"""Exact rational H-representations, kernel slices, and vertex enumeration.

A polytope {x : Ax + b >= 0} is re-expressed as the slice
{y in R^m, y >= 0 : Cy = q} under the affine embedding y = Ax + b, where
the rows of C span the left kernel of A and q = Cb.  Doubling then acts
on the slice by duplicating every column of C, which realizes the doubled
polytope inside the nonnegative orthant of R^(2m).

Everything is computed over Fraction; no tolerance appears anywhere.
Vertex enumeration is deliberately brute force (all row or column bases)
so that results are order independent and trivially auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

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

# Fourier-Motzkin can square the row count at every elimination step.
_FM_ROW_CAP = 200_000

# Cap on the row or column bases a brute-force enumeration tries.  The
# doubled slice of product(polygon:5,polygon:6) needs C(22, 7) = 170544.
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


def _solve_square(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve an n x n system exactly; None when singular."""
    n = len(M)
    aug = [list(M[i]) + [rhs[i]] for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c]
        aug[c] = [v / inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def _bases(count: int, size: int):
    """Every size-subset of range(count), refused above the basis budget."""
    total = comb(count, size)
    if total > _BASIS_BUDGET:
        raise BudgetExceeded(
            f"C({count}, {size}) = {total} candidate bases, budget {_BASIS_BUDGET}"
        )
    return combinations(range(count), size)


def _sorted_vertex_set(seen: dict[Vector, frozenset[int]]) -> VertexSet:
    ordered = sorted(seen.items())
    return VertexSet(tuple(v for v, _ in ordered), tuple(t for _, t in ordered))


def _primitive_direction(row: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational row by a positive factor to coprime integers."""
    denom = 1
    for v in row:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    return tuple(ints)


def _primitive_int_row(row: list[Fraction]) -> tuple[int, ...]:
    """Primitive integer row normalized to a positive leading entry."""
    ints = list(_primitive_direction(row))
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


# -- Fourier-Motzkin boundedness check ---------------------------------------


def _fm_eliminate(rows: set[tuple[int, ...]], k: int) -> set[tuple[int, ...]]:
    """Project the cone {x : rows . x >= 0} along coordinate k."""
    zero, pos, neg = set(), [], []
    for row in rows:
        if row[k] > 0:
            pos.append(row)
        elif row[k] < 0:
            neg.append(row)
        else:
            zero.add(row)
    out = set(zero)
    for p in pos:
        for q in neg:
            combo = [p[k] * q[j] - q[k] * p[j] for j in range(len(p))]
            if any(combo):
                out.add(_primitive_direction([Fraction(v) for v in combo]))
            if len(out) > _FM_ROW_CAP:
                raise BudgetExceeded(
                    f"Fourier-Motzkin elimination passed {_FM_ROW_CAP} rows"
                )
    return out


def recession_cone_is_trivial(A: Matrix) -> bool:
    """True iff {x : Ax >= 0} = {0}, by projecting onto every axis."""
    n = len(A[0])
    base = {_primitive_direction(list(row)) for row in A}
    base.discard(tuple([0] * n))
    for axis in range(n):
        rows = set(base)
        for k in range(n):
            if k != axis:
                rows = _fm_eliminate(rows, k)
        has_pos = any(r[axis] > 0 for r in rows)
        has_neg = any(r[axis] < 0 for r in rows)
        if not (has_pos and has_neg):
            return False
    return True


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

    Boundedness is decided exactly by Fourier-Motzkin elimination on the
    recession cone; the rest read the vertices and tight row sets off the
    cached `enumerate_vertices`.  Once every vertex is tight on exactly n
    rows, a row supports a facet iff some vertex is tight on it.
    """
    A = _coerce_matrix(A)
    b = tuple(Fraction(v) for v in b)
    if len(b) != len(A):
        raise ValidationError("b length does not match row count of A")
    m, n = len(A), len(A[0])
    if m <= n:
        raise ValidationError(f"{m} inequalities cannot bound a {n}-dimensional polytope")
    if not recession_cone_is_trivial(A):
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

    This is the only vertex enumeration of an H-representation:
    `validate_hrep` reads its checks off it, and the cache hands the same
    result to every later reader of the system.
    """
    m, n = S.m, S.n
    seen: dict[Vector, frozenset[int]] = {}
    for rows in _bases(m, n):
        M = [list(S.A[i]) for i in rows]
        rhs = [-S.b[i] for i in rows]
        x = _solve_square(M, rhs)
        if x is None:
            continue
        y = S.embed(tuple(x))
        if any(val < 0 for val in y):
            continue
        point = tuple(x)
        if point not in seen:
            seen[point] = frozenset(i + 1 for i in range(m) if y[i] == 0)
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
    maximal faces of the dual complex on the column labels.
    """
    r, N = L.rows, L.cols
    if r == 0:
        point = SimplicialComplex.point()
        return (
            VertexSet(vertices=(tuple(),), incidences=(frozenset(),)),
            validate_dual(point, 0),
        )
    seen: dict[Vector, frozenset[int]] = {}
    for cols in _bases(N, r):
        M = [[Fraction(L.C[i][j]) for j in cols] for i in range(r)]
        rhs = list(L.q)
        sol = _solve_square(M, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        y = [Fraction(0)] * N
        for j, v in zip(cols, sol):
            y[j] = v
        point = tuple(y)
        if point not in seen:
            seen[point] = frozenset(i + 1 for i in range(N) if y[i] == 0)
    if not seen:
        raise Infeasible("no basic feasible solution")
    expected_zeros = N - r
    for point, zeros in seen.items():
        if len(zeros) != expected_zeros:
            raise NotSimple(
                f"vertex with {len(zeros)} zero coordinates, expected {expected_zeros}"
            )
    vs = _sorted_vertex_set(seen)
    complex = SimplicialComplex.from_facets(N, [sorted(t) for t in vs.incidences])
    return vs, validate_dual(complex, expected_zeros)
