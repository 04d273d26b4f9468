import pathlib
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import pytest

from polydouble import geometry
from polydouble.catalog import built_in_catalog
from polydouble.complexes import SimplicialComplex, full_subcomplex, validate_dual
from polydouble.errors import BudgetExceeded, Infeasible, NotSimple, PolytopeError
from polydouble.geometry import (
    VertexSet,
    enumerate_slice_vertices,
    enumerate_vertices,
    recession_cone_is_trivial,
)
from polydouble.moment_angle import reduced_homology_ranks

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def catalog():
    """The verification catalog, built once per test session."""
    return built_in_catalog()


@pytest.fixture(scope="session")
def pentagon_hrep_path():
    return str(DATA / "pentagon_hrep.json")


@pytest.fixture(scope="session")
def c5_complex_path():
    return str(DATA / "c5_complex.json")


@pytest.fixture(scope="session")
def torus7_complex_path():
    """The 7-vertex torus: a connected pseudomanifold, not a sphere."""
    return str(DATA / "torus7_complex.json")


def _plain_hochster(K, field_tag):
    """Hochster sums over all 2^m full subcomplexes, one at a time.

    The reference for the union sweep in `hochster_betti`: it visits every
    subset, cone or not, and builds each K_J with `full_subcomplex`.
    Returns the (Z ranks, R ranks) dicts.
    """
    z: dict[int, int] = {}
    r: dict[int, int] = {}
    for J in range(1 << K.vertex_count):
        ranks = reduced_homology_ranks(full_subcomplex(K, J), field_tag)
        for d, rank in enumerate(ranks, start=-1):
            if rank:
                k = d + J.bit_count() + 1
                z[k] = z.get(k, 0) + rank
                r[d + 1] = r.get(d + 1, 0) + rank
    return z, r


@pytest.fixture(scope="session")
def plain_hochster():
    return _plain_hochster


def _submask_faces(K):
    """Every face of K as the union of the submasks of its maximal faces.

    The reference for `SimplicialComplex.faces_by_size`: it visits each
    face once per maximal face that contains it and never groups by size.
    """
    faces = set()
    for f in K.maximal_faces:
        sub = f
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return faces


def _check_face_levels(K):
    """faces_by_size partitions the faces of K by size, and its faces are
    exactly those of the submask union."""
    levels = K.faces_by_size()
    assert levels[0] == [0]
    for s, level in enumerate(levels):
        assert level, s
        assert all(f.bit_count() == s for f in level), s
    flat = [f for level in levels for f in level]
    assert len(flat) == len(set(flat))
    assert set(flat) == _submask_faces(K) == K.all_faces()


@pytest.fixture(scope="session")
def check_face_levels():
    return _check_face_levels


def _subset_search_non_faces(K):
    """Minimal non-faces by trying every vertex subset, smallest first.

    The reference for `minimal_non_faces` (the search it used to run): a
    non-face with no smaller minimal non-face inside is itself minimal, and
    none has more than (top face size + 1) vertices.
    """
    m = K.vertex_count
    top = max(f.bit_count() for f in K.maximal_faces)
    found = []
    for size in range(1, min(m, top + 1) + 1):
        for combo in combinations(range(m), size):
            mask = sum(1 << v for v in combo)
            if not any(N & ~mask == 0 for N in found) and not K.is_face(mask):
                found.append(mask)
    return frozenset(found)


@pytest.fixture(scope="session")
def subset_search_non_faces():
    return _subset_search_non_faces


def _affine_dim(points):
    """Exact affine dimension of a list of rational points; -1 if empty."""
    if not points:
        return -1
    rows = [[p[j] - points[0][j] for j in range(len(p))] for p in points[1:]]
    rank = 0
    for c in range(len(points[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_facet_rule(S):
    """On a system whose vertices are all simple, "the vertices tight on
    row i span an (n-1)-flat" (the facet test `validate_hrep` used to run)
    must equal "some vertex is tight on row i" (the one it runs now)."""
    vs = enumerate_vertices(S)
    assert all(len(t) == S.n for t in vs.incidences)
    for i in range(1, S.m + 1):
        on_row = [v for v, t in zip(vs.vertices, vs.incidences) if i in t]
        assert (_affine_dim(on_row) == S.n - 1) == bool(on_row), i


@pytest.fixture(scope="session")
def check_facet_rule():
    return _check_facet_rule


def _primitive_direction(row):
    """Scale a rational row by a positive factor to coprime integers."""
    denom = lcm(*(v.denominator for v in row))
    ints = [int(v * denom) for v in row]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g else tuple(ints)


def _fm_eliminate(rows, k):
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
    return out


def _fourier_motzkin_bounded(A):
    """True iff {x : Ax >= 0} = {0}, by projecting onto every axis.

    Fourier-Motzkin elimination: the test `validate_hrep` used to run.
    """
    n = len(A[0])
    base = {_primitive_direction(list(row)) for row in A}
    base.discard(tuple([0] * n))
    for axis in range(n):
        rows = set(base)
        for k in range(n):
            if k != axis:
                rows = _fm_eliminate(rows, k)
        if not (any(r[axis] > 0 for r in rows) and any(r[axis] < 0 for r in rows)):
            return False
    return True


def _check_ridge_rule(S):
    """On a system with a vertex whose vertices are all simple, "every
    ridge lies on exactly two vertices" must equal Fourier-Motzkin's
    verdict on the recession cone.  A vertex needs n independent tight
    rows, so such a system has rank A = n.  Returns the shared verdict."""
    vs = enumerate_vertices(S)
    assert vs.vertices and all(len(t) == S.n for t in vs.incidences)
    bounded = recession_cone_is_trivial(vs)
    assert bounded == _fourier_motzkin_bounded(S.A)
    return bounded


@pytest.fixture(scope="session")
def check_ridge_rule():
    return _check_ridge_rule


def _solve_square(M, rhs):
    """Solve an n x n system exactly over Fraction; None when singular."""
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


def _oracle_bases(count, size):
    total = comb(count, size)
    if total > geometry._BASIS_BUDGET:
        raise BudgetExceeded(
            f"C({count}, {size}) = {total} candidate bases, budget {geometry._BASIS_BUDGET}"
        )
    return combinations(range(count), size)


def _oracle_vertices(S):
    """Vertices of {x : Ax + b >= 0} by a fresh Fraction solve per row basis.

    The reference for `enumerate_vertices` (the enumeration it used to
    run): each n-subset of rows, in lexicographic order, gives at most
    one point, kept when it satisfies every inequality.
    """
    m, n = S.m, S.n
    seen = {}
    for rows in _oracle_bases(m, n):
        x = _solve_square([list(S.A[i]) for i in rows], [-S.b[i] for i in rows])
        if x is None:
            continue
        y = S.embed(tuple(x))
        if any(val < 0 for val in y):
            continue
        point = tuple(x)
        if point not in seen:
            seen[point] = frozenset(i + 1 for i in range(m) if y[i] == 0)
    return geometry._sorted_vertex_set(seen)


def _oracle_slice_vertices(L):
    """Basic feasible solutions of {y >= 0 : Cy = q} by a fresh Fraction
    solve per column basis, and the dual complex.

    The reference for `enumerate_slice_vertices` (the enumeration it used
    to run, whose separate zero-row branch is dropped: the one empty basis
    gives the origin).  A non-simple vertex is reported in the order the
    bases are tried.
    """
    r, N = L.rows, L.cols
    seen = {}
    for cols in _oracle_bases(N, r):
        M = [[Fraction(L.C[i][j]) for j in cols] for i in range(r)]
        sol = _solve_square(M, list(L.q))
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
    for zeros in seen.values():
        if len(zeros) != expected_zeros:
            raise NotSimple(
                f"vertex with {len(zeros)} zero coordinates, expected {expected_zeros}"
            )
    vs = geometry._sorted_vertex_set(seen)
    complex = SimplicialComplex.from_facets(N, [sorted(t) for t in vs.incidences])
    return vs, validate_dual(complex, expected_zeros)


def _outcome(run, arg):
    """A result, or the type and message of the PolytopeError raised."""
    try:
        return run(arg)
    except PolytopeError as exc:
        return type(exc), str(exc)


def _check_vertex_oracle(S):
    """`enumerate_vertices` equals the per-basis Fraction enumeration on
    vertices, incidences and order, or raises the same error.  Returns
    the shared outcome."""
    enumerate_vertices.cache_clear()
    outcome = _outcome(enumerate_vertices, S)
    assert outcome == _outcome(_oracle_vertices, S)
    return outcome


def _check_slice_oracle(L):
    """`enumerate_slice_vertices` equals the per-basis Fraction enumeration,
    its dual complex included, or raises the same error.  Returns the
    shared outcome."""

    def run(enumerate_):
        outcome = _outcome(enumerate_, L)
        if isinstance(outcome[0], VertexSet):
            vs, dual = outcome
            return vs, dual.complex, dual.dim
        return outcome

    outcome = run(enumerate_slice_vertices)
    assert outcome == run(_oracle_slice_vertices)
    return outcome


@pytest.fixture(scope="session")
def check_vertex_oracle():
    return _check_vertex_oracle


@pytest.fixture(scope="session")
def check_slice_oracle():
    return _check_slice_oracle
