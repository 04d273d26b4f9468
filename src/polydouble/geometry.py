"""Exact rational H-representations, kernel slices, and vertex enumeration.

A polytope {x : Ax + b >= 0} is re-expressed as the slice
{y in R^m, y >= 0 : Cy = q} under the affine embedding y = Ax + b, where
the rows of C span the left kernel of A and q = Cb.  Doubling then acts
on the slice by duplicating every column of C, which realizes the doubled
polytope inside the nonnegative orthant of R^(2m).

Everything is exact, over the integers or Fraction; no tolerance appears
anywhere.  Vertex enumeration still considers every row or column basis,
in lexicographic order, but one depth-first walk with fraction-free
integer elimination serves both forms: a shared prefix of basis columns
is eliminated once, a dependent prefix ends its branch, and only a
feasible basis builds a Fraction.  Results are sorted, so they do not
depend on the walk.  The enumeration is also the only test of an
H-representation: boundedness, emptiness, simplicity and irredundancy
are all read off its vertices and tight sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul

from .complexes import DualPolytope, SimplicialComplex, validate_dual
from .errors import (
    BudgetExceeded,
    Empty,
    Infeasible,
    NotSimple,
    RankDeficient,
    RedundantRow,
    Unbounded,
    ValidationError,
)

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

# Cap on the candidate row or column bases of a vertex enumeration.  The
# doubled slice of product(polygon:5,polygon:6) has C(22, 7) = 170544.
_BASIS_BUDGET = 1 << 18


@dataclass(frozen=True)
class PolytopeSystem:
    """Validated H-representation: A is m x n, rows index facets 1..m."""

    A: Matrix
    b: Vector

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])

    def embed(self, x: Vector) -> Vector:
        """y = Ax + b, the facet-distance coordinates of a point."""
        return tuple(
            sum((row[j] * x[j] for j in range(self.n)), start=Fraction(0)) + self.b[i]
            for i, row in enumerate(self.A)
        )


@dataclass(frozen=True)
class LinearSlice:
    """Integer matrix C with Cy = q cutting the polytope out of y >= 0.

    Columns of C form the linear Gale configuration of the polytope;
    doubling duplicates each column. `cols` is stored explicitly so the
    zero-row slice of the point polytope stays representable.
    """

    C: tuple[tuple[int, ...], ...]
    q: Vector
    cols: int

    def __post_init__(self):
        for row in self.C:
            if len(row) != self.cols:
                raise ValidationError("row length does not match column count")
        if len(self.q) != len(self.C):
            raise ValidationError("q length does not match row count")

    @property
    def rows(self) -> int:
        return len(self.C)

    def gale_columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row[j] for row in self.C) for j in range(self.cols))


@dataclass(frozen=True)
class VertexSet:
    """Vertices with their tight index sets (1-based rows or columns)."""

    vertices: tuple[Vector, ...]
    incidences: tuple[frozenset[int], ...]


# -- exact linear algebra helpers -------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _nonsingular_bases(rows: list[list[int]], count: int):
    """Every nonsingular basis among the first `count` columns of `rows`.

    `rows` is an integer r x W matrix; its first `count` columns are the
    candidates and the others are carried along.  Column choices are
    walked depth-first in lexicographic order, and fraction-free
    Gauss-Jordan elimination (Bareiss) is carried down the walk, so a
    shared prefix is eliminated once.  After the pivots of a prefix its
    columns read det * I, det being the last pivot, and every entry is an
    integer minor of the input up to sign, so each division is exact.  A
    candidate that vanishes on the unpivoted rows lies in the span of the
    prefix, and its branch ends there.

    Yields (basis, rows, det) at each nonsingular basis B, where rows is
    det * B^-1 times the carried columns, row k belonging to basis[k],
    and det may be negative.  More than `_BASIS_BUDGET` candidate bases
    raise `BudgetExceeded` before any elimination.
    """
    r = len(rows)
    total = comb(count, r)
    if total > _BASIS_BUDGET:
        raise BudgetExceeded(
            f"C({count}, {r}) = {total} candidate bases, budget {_BASIS_BUDGET}"
        )
    basis: list[int] = []

    def walk(M: list[list[int]], start: int, det: int):
        # M holds columns start.. of the eliminated matrix; rows k.. are
        # unpivoted.
        k = len(basis)
        if k == r:
            yield tuple(basis), M, det
            return
        for c in range(start, count - r + k + 1):
            j = c - start
            pivot = next((i for i in range(k, r) if M[i][j]), None)
            if pivot is None:
                continue
            top = M[pivot]
            p = top[j]
            # Below the last pivot only the carried columns are read.
            lo = count - start if k == r - 1 else j + 1
            head = top[lo:]
            child = []
            for i in range(r):
                if i == k:
                    child.append(head)
                    continue
                row = M[k] if i == pivot else M[i]
                f = row[j]
                child.append([(p * v - f * h) // det for v, h in zip(row[lo:], head)])
            basis.append(c)
            yield from walk(child, c + 1, p)
            basis.pop()

    return walk(rows, 0, 1)


def _sorted_vertex_set(seen: dict[Vector, frozenset[int]]) -> VertexSet:
    ordered = sorted(seen.items())
    return VertexSet(tuple(v for v, _ in ordered), tuple(t for _, t in ordered))


def _primitive_int_row(row: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational row to coprime integers with a positive leading entry."""
    denom = lcm(*(v.denominator for v in row))
    ints = [int(v * denom) for v in row]
    g = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple(v // g for v in ints) if g else tuple(ints)


def recession_cone_is_trivial(vs: VertexSet) -> bool:
    """True iff every ridge of `vs` lies on exactly two vertices.

    Preconditions: A has rank n, and every vertex is tight on exactly n
    rows.  A ridge is a vertex's tight set minus one row.  Dropping that
    row at a simple vertex leaves an edge, which either ends at exactly
    one other vertex, whose tight set then contains the ridge, or is a
    ray, and then no other vertex contains it.  If every edge ends, P is
    bounded: were d != 0 in the recession cone, take c with c.d > 0 and
    the vertex v maximizing c.  Every edge direction e at v has c.e <= 0,
    and the tangent cone at the simple vertex v, which contains d, is
    generated by those n directions; so c.d <= 0.  For n = 1 the ridge is
    the empty set: a segment has two vertices and a ray has one.
    """
    ridges = Counter(t - {i} for t in vs.incidences for i in t)
    return all(count == 2 for count in ridges.values())


# -- H-representation validation and vertex enumeration ----------------------


def _coerce_matrix(A) -> Matrix:
    out = tuple(tuple(Fraction(v) for v in row) for row in A)
    if not out or not out[0]:
        raise ValidationError("A must be a nonempty matrix")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise ValidationError("ragged matrix")
    return out


def validate_hrep(A, b) -> PolytopeSystem:
    """Validate boundedness, nonemptiness, simplicity, and irredundancy.

    Errors come in this order: the shape of A and b and m > n; rank A < n
    (`Unbounded`, since the system then has a line of solutions); no
    vertex (`Empty`); a vertex not tight on exactly n rows (`NotSimple`);
    an edge that is a ray, read off the tight sets by
    `recession_cone_is_trivial` (`Unbounded`); a row no vertex is tight
    on (`RedundantRow`).  Everything after the rank reads the one cached
    `enumerate_vertices`.
    """
    A = _coerce_matrix(A)
    b = tuple(Fraction(v) for v in b)
    if len(b) != len(A):
        raise ValidationError("b length does not match row count of A")
    m, n = len(A), len(A[0])
    if m <= n:
        raise ValidationError(f"{m} inequalities cannot bound a {n}-dimensional polytope")
    # With rank A < n there is no vertex either, so this check must come
    # before the one for emptiness.
    if len(_rref(list(zip(*A)))[1]) < n:
        raise Unbounded("recession cone is not {0}")
    system = PolytopeSystem(A, b)
    vs = enumerate_vertices(system)
    if not vs.vertices:
        raise Empty("no vertex satisfies all inequalities")
    for v, tight in zip(vs.vertices, vs.incidences):
        if len(tight) != n:
            raise NotSimple(
                f"vertex {tuple(map(str, v))} is tight on {sorted(tight)}, expected {n} rows"
            )
    if not recession_cone_is_trivial(vs):
        raise Unbounded("recession cone is not {0}")
    # At a simple vertex the n tight rows are linearly independent, so the
    # vertex cone is simplicial and each tight row is tight on an
    # (n-1)-face through the vertex.  A row no vertex is tight on supports
    # no face at all, since every nonempty face of a polytope has a vertex.
    touched = frozenset().union(*vs.incidences)
    for i in range(1, m + 1):
        if i not in touched:
            raise RedundantRow(i)
    return system


@lru_cache(maxsize=256)
def enumerate_vertices(S: PolytopeSystem) -> VertexSet:
    """All vertices with their tight row sets, sorted lexicographically.

    Each nonsingular choice of n rows B gives the point x with A_B x = -b_B,
    kept when Ax + b >= 0.  The basis kernel runs on [A^T | I] with each
    row of A and b scaled to integers by a positive factor, which keeps
    every inequality; the identity block ends as det * (A_B^T)^-1, so
    det * x and det * (Ax + b) are integers and only a feasible x becomes
    a Fraction.

    This is the only vertex enumeration of an H-representation:
    `validate_hrep` reads its checks off it, and the cache hands the same
    result to every later reader of the system.
    """
    m, n = S.m, S.n
    scales = [lcm(bi.denominator, *(v.denominator for v in row)) for row, bi in zip(S.A, S.b)]
    A = [[int(v * s) for v in row] for row, s in zip(S.A, scales)]
    b = [int(bi * s) for bi, s in zip(S.b, scales)]
    matrix = [[row[j] for row in A] + [int(j == k) for k in range(n)] for j in range(n)]
    seen: dict[Vector, frozenset[int]] = {}
    for basis, inverse, det in _nonsingular_bases(matrix, m):
        if det < 0:
            inverse, det = [[-v for v in row] for row in inverse], -det
        # det * x, and det * (Ax + b) with each row scaled.
        x = [-sum(inverse[k][j] * b[i] for k, i in enumerate(basis)) for j in range(n)]
        slack = [sum(map(mul, row, x)) + det * bi for row, bi in zip(A, b)]
        if any(v < 0 for v in slack):
            continue
        point = tuple(Fraction(v, det) for v in x)
        if point not in seen:
            seen[point] = frozenset(i + 1 for i, v in enumerate(slack) if v == 0)
    return _sorted_vertex_set(seen)


def dual_complex_from_hrep(S: PolytopeSystem) -> DualPolytope:
    """Complex on facet labels whose maximal faces are vertex tight sets."""
    vs = enumerate_vertices(S)
    complex = SimplicialComplex.from_facets(S.m, [sorted(t) for t in vs.incidences])
    return validate_dual(complex, S.n)


# -- the kernel slice and its doubling ----------------------------------------


def derive_linear_slice(S: PolytopeSystem) -> LinearSlice:
    """Canonical integer basis C of the left kernel of A, with q = Cb.

    The basis rows are the reduced echelon basis of {y : yA = 0}, scaled
    to coprime integers with positive pivots, so the slice is reproducible
    across platforms.  Every row of C is checked to annihilate A, so
    C(Ax + b) = Cb = q holds at every point x.
    """
    m, n = S.m, S.n
    At = [[S.A[i][j] for i in range(m)] for j in range(n)]
    rref, pivots = _rref(At)
    if len(pivots) < n:
        raise RankDeficient(f"rank {len(pivots)} < n = {n}")
    free = [c for c in range(m) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    reduced, _ = _rref(basis)
    C = tuple(_primitive_int_row(row) for row in reduced[: len(free)])
    q = tuple(
        sum((Fraction(C[r][i]) * S.b[i] for i in range(m)), start=Fraction(0))
        for r in range(len(C))
    )
    for row in C:
        if any(sum(row[i] * S.A[i][j] for i in range(m)) for j in range(n)):
            raise ValidationError("slice row does not annihilate A")
    return LinearSlice(C=C, q=q, cols=m)


def double_system(L: LinearSlice) -> LinearSlice:
    """Duplicate every column: [C | C] on 2m columns, same q.

    Column m+i repeats column i, so the doubled Gale configuration lists
    every original vector twice, and the solutions in the orthant of
    R^(2m) form the doubled polytope.
    """
    C = tuple(row + row for row in L.C)
    return LinearSlice(C=C, q=L.q, cols=2 * L.cols)


def enumerate_slice_vertices(L: LinearSlice) -> tuple[VertexSet, DualPolytope]:
    """Basic feasible solutions of {y >= 0 : Cy = q} and the dual complex.

    Each choice of `rows` linearly independent columns yields at most one
    vertex; its tight set is the zero coordinates (exactly cols - rows of
    them when the polytope is simple), and those tight sets are the
    maximal faces of the dual complex on the column labels.  The basis
    kernel runs on [C | q * scale], scale clearing the denominators of q,
    and reads det * scale * y_B off the last column.  With no rows the
    one empty basis gives the origin: the point for cols = 0, and for
    cols > 0 the orthant, which `validate_dual` refuses.
    """
    N = L.cols
    scale = lcm(*(v.denominator for v in L.q))
    augmented = [list(row) + [int(v * scale)] for row, v in zip(L.C, L.q)]
    seen: dict[Vector, frozenset[int]] = {}
    for basis, rows, det in _nonsingular_bases(augmented, N):
        values = [row[0] for row in rows]
        if det < 0:
            values, det = [-v for v in values], -det
        if any(v < 0 for v in values):
            continue
        y = [Fraction(0)] * N
        for j, v in zip(basis, values):
            y[j] = Fraction(v, det * scale)
        point = tuple(y)
        if point not in seen:
            seen[point] = frozenset(i + 1 for i in range(N) if y[i] == 0)
    if not seen:
        raise Infeasible("no basic feasible solution")
    expected_zeros = N - L.rows
    for point, zeros in seen.items():
        if len(zeros) != expected_zeros:
            raise NotSimple(
                f"vertex with {len(zeros)} zero coordinates, expected {expected_zeros}"
            )
    vs = _sorted_vertex_set(seen)
    complex = SimplicialComplex.from_facets(N, [sorted(t) for t in vs.incidences])
    return vs, validate_dual(complex, expected_zeros)
