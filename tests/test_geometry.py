from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydouble import geometry
from polydouble.catalog import (
    block_diagonal,
    cube_hrep,
    polygon_complex,
    polygon_hrep,
    simplex_hrep,
)
from polydouble.complexes import SimplicialComplex, double_complex, equal_under_relabel
from polydouble.errors import (
    BudgetExceeded,
    Empty,
    Infeasible,
    NotPseudomanifold,
    NotSimple,
    RankDeficient,
    RedundantRow,
    Unbounded,
    ValidationError,
)
from polydouble.geometry import (
    LinearSlice,
    PolytopeSystem,
    derive_linear_slice,
    double_system,
    dual_complex_from_hrep,
    enumerate_slice_vertices,
    enumerate_vertices,
    validate_hrep,
)

F = Fraction


def system(A, b):
    return validate_hrep(
        [[F(v) for v in row] for row in A], [F(v) for v in b]
    )


SQUARE = ([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 1, 1])
PENTAGON = ([[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]], [0, 0, 2, 2, 3])
TRIANGLE = ([[1, 0], [0, 1], [-1, -1]], [0, 0, 1])
SEGMENT = ([[1], [-1]], [0, 1])


class TestValidateHrep:
    def test_square(self):
        S = system(*SQUARE)
        assert (S.m, S.n) == (4, 2)

    def test_pentagon(self):
        S = system(*PENTAGON)
        assert (S.m, S.n) == (5, 2)

    def test_half_plane_unbounded(self):
        with pytest.raises(Unbounded):
            system([[1, 0], [0, 1], [0, -1]], [0, 0, 1])

    def test_empty(self):
        with pytest.raises(Empty):
            system([[1], [-1]], [0, -1])

    def test_not_simple(self):
        # Three concurrent lines through the origin vertex.
        with pytest.raises(NotSimple):
            system([[1, 0], [0, 1], [-1, -1], [1, 1]], [0, 0, 1, 0])

    def test_redundant_row(self):
        # x + y <= 3 never touches the unit square.
        with pytest.raises(RedundantRow) as info:
            system([[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]], [0, 0, 1, 1, 3])
        assert info.value.row == 5

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            system([[1, 0]], [1])


def test_recession_cone_line_is_not_trivial():
    # {y = 0} contains the whole x-axis even though the y-projection is {0}.
    # A has rank 1 < 2, so the system has no vertex; that must not read
    # as empty.
    with pytest.raises(Unbounded):
        system([[0, 1], [0, -1], [0, -1]], [0, 0, 1])


class TestEnumerateVertices:
    def test_square(self):
        vs = enumerate_vertices(system(*SQUARE))
        assert [tuple(map(int, v)) for v in vs.vertices] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_pentagon_frozen(self):
        vs = enumerate_vertices(system(*PENTAGON))
        assert [tuple(map(int, v)) for v in vs.vertices] == [
            (0, 0), (0, 2), (1, 2), (2, 0), (2, 1),
        ]
        assert all(len(t) == 2 for t in vs.incidences)

    def test_triangle(self):
        vs = enumerate_vertices(system(*TRIANGLE))
        assert len(vs.vertices) == 3


class TestDualComplex:
    def test_square_is_four_cycle(self):
        dual = dual_complex_from_hrep(system(*SQUARE))
        assert set(dual.complex.facets_as_tuples()) == {
            (1, 2), (2, 3), (1, 4), (3, 4),
        }

    def test_pentagon_is_five_cycle(self):
        dual = dual_complex_from_hrep(system(*PENTAGON))
        relabel = {1: 1, 2: 2, 3: 3, 5: 4, 4: 5}
        assert equal_under_relabel(dual.complex, polygon_complex(5), relabel)

    def test_simplex(self):
        dual = dual_complex_from_hrep(system(*simplex_hrep(3)))
        assert len(dual.complex.maximal_faces) == 4
        assert dual.dim == 3


class TestLinearSlice:
    def test_segment(self):
        L = derive_linear_slice(system(*SEGMENT))
        assert L.C == ((1, 1),)
        assert L.q == (F(1),)

    def test_square_canonical(self):
        L = derive_linear_slice(system(*cube_hrep(2)))
        assert L.C == ((1, 0, 1, 0), (0, 1, 0, 1))
        assert L.q == (F(1), F(1))

    def test_triangle(self):
        L = derive_linear_slice(system(*TRIANGLE))
        assert L.C == ((1, 1, 1),)
        assert L.q == (F(1),)

    def test_pentagon_kernel_identities(self):
        S = system(*PENTAGON)
        L = derive_linear_slice(S)
        assert L.rows == 3 and L.cols == 5
        for row in L.C:
            for j in range(S.n):
                assert sum(row[i] * S.A[i][j] for i in range(S.m)) == 0
        assert L.q == tuple(
            sum(F(row[i]) * S.b[i] for i in range(S.m)) for row in L.C
        )

    def test_gale_columns(self):
        L = derive_linear_slice(system(*cube_hrep(2)))
        assert L.gale_columns() == ((1, 0), (0, 1), (1, 0), (0, 1))

    def test_rank_deficient(self):
        # Bypasses validation: all rows parallel, A has rank 1 < 2.
        S = PolytopeSystem(
            A=((F(1), F(0)), (F(2), F(0)), (F(-1), F(0))),
            b=(F(0), F(0), F(1)),
        )
        with pytest.raises(RankDeficient):
            derive_linear_slice(S)


class TestDoubleSystem:
    def test_segment_gives_simplex3_system(self):
        L = double_system(derive_linear_slice(system(*SEGMENT)))
        assert L.C == ((1, 1, 1, 1),)
        assert L.q == (F(1),)

    def test_empty_system(self):
        empty = LinearSlice(C=(), q=(), cols=0)
        assert double_system(empty) == empty

    def test_pentagon_shape_and_columns(self):
        base = derive_linear_slice(system(*PENTAGON))
        L = double_system(base)
        assert (L.rows, L.cols) == (3, 10)
        cols = L.gale_columns()
        assert cols[:5] == cols[5:] == base.gale_columns()


class TestSliceVertices:
    def test_doubled_segment(self):
        L = double_system(derive_linear_slice(system(*SEGMENT)))
        vs, dual = enumerate_slice_vertices(L)
        assert len(vs.vertices) == 4
        assert len(dual.complex.maximal_faces) == 4
        assert dual.dim == 3

    def test_pentagon_slice_matches_embedding(self):
        S = system(*PENTAGON)
        L = derive_linear_slice(S)
        vs, dual = enumerate_slice_vertices(L)
        expected = sorted(S.embed(v) for v in enumerate_vertices(S).vertices)
        assert list(vs.vertices) == expected
        assert dual.complex == dual_complex_from_hrep(S).complex

    def test_doubled_pentagon(self):
        S = system(*PENTAGON)
        L = double_system(derive_linear_slice(S))
        vs, dual = enumerate_slice_vertices(L)
        assert len(vs.vertices) == 40
        # Simplicity: exactly cols - rows = 7 zero coordinates each, so
        # exactly 3 positive ones.
        for v, tight in zip(vs.vertices, vs.incidences):
            assert len(tight) == 7
            assert sum(1 for c in v if c > 0) == 3
        assert dual.complex == double_complex(dual_complex_from_hrep(S).complex)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            enumerate_slice_vertices(LinearSlice(C=((1, 1),), q=(F(-1),), cols=2))

    def test_degenerate_not_simple(self):
        with pytest.raises(NotSimple):
            enumerate_slice_vertices(LinearSlice(C=((1, -1),), q=(F(0),), cols=2))


def test_round_trip_all_small_systems():
    for A, b in (SQUARE, PENTAGON, TRIANGLE, SEGMENT):
        S = system(A, b)
        direct = dual_complex_from_hrep(S)
        _, via_slice = enumerate_slice_vertices(derive_linear_slice(S))
        assert direct.complex == via_slice.complex


def test_polygon_hreps_have_matching_counts():
    for m in range(3, 9):
        S = validate_hrep(*polygon_hrep(m))
        assert S.m == m
        assert len(enumerate_vertices(S).vertices) == m


REDUNDANT = ([[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]], [0, 0, 1, 1, 3])


def unvalidated(A, b):
    return PolytopeSystem(
        tuple(tuple(F(v) for v in row) for row in A), tuple(F(v) for v in b)
    )


class TestFacetRule:
    """The tight-set facet test against the affine-dimension oracle."""

    def test_catalog_systems(self, catalog, check_facet_rule):
        for entry in catalog:
            if entry.system is not None:
                check_facet_rule(entry.system)

    def test_product_system(self, check_facet_rule):
        check_facet_rule(
            validate_hrep(*block_diagonal(simplex_hrep(2), polygon_hrep(6)))
        )

    def test_small_systems(self, check_facet_rule):
        for A, b in (SQUARE, PENTAGON, TRIANGLE, SEGMENT, REDUNDANT):
            check_facet_rule(unvalidated(A, b))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        cuts=st.lists(
            st.tuples(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      st.integers(-2, 6)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_random_simple_systems(self, check_facet_rule, n, cuts):
        # The box 0 <= x <= 2 keeps every system bounded; the cuts may be
        # facets, redundant, or empty the polytope.
        A, b = cube_hrep(n)
        b = [2 * v for v in b]
        for row, offset in cuts:
            A.append([F(v) for v in row[:n]])
            b.append(F(offset))
        S = unvalidated(A, b)
        if all(len(t) == n for t in enumerate_vertices(S).incidences):
            check_facet_rule(S)


HALF_STRIP = ([[1, 0], [0, 1], [0, -1]], [0, 0, 1])
RAY = ([[1], [2]], [0, 1])
PRISM = ([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1]], [0, 0, 1, 0])


class TestRidgeRule:
    """The ridge test for boundedness against the Fourier-Motzkin oracle."""

    def test_catalog_systems(self, catalog, check_ridge_rule):
        for entry in catalog:
            if entry.system is not None:
                assert check_ridge_rule(entry.system)

    def test_product_system(self, check_ridge_rule):
        assert check_ridge_rule(
            validate_hrep(*block_diagonal(simplex_hrep(2), polygon_hrep(6)))
        )

    def test_unbounded_systems(self, check_ridge_rule):
        for A, b in (HALF_STRIP, RAY, PRISM):
            assert not check_ridge_rule(unvalidated(A, b))
            with pytest.raises(Unbounded):
                system(A, b)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        rows=st.lists(
            st.tuples(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                      st.integers(-1, 3)),
            min_size=3,
            max_size=6,
        ),
    )
    def test_random_simple_systems(self, check_ridge_rule, n, rows):
        # Most offsets are >= 0, so the origin is often feasible.  Of 3000
        # such draws about half had a vertex and only simple ones; of those,
        # 64% were bounded for n = 1, 38% for n = 2 and 14% for n = 3.
        S = unvalidated([row[:n] for row, _ in rows], [offset for _, offset in rows])
        vs = enumerate_vertices(S)
        if vs.vertices and all(len(t) == n for t in vs.incidences):
            check_ridge_rule(S)


def test_one_enumeration_per_system():
    # Validation, the dual complex and the slice share one enumeration,
    # and the slice reads no vertices at all.
    enumerate_vertices.cache_clear()
    S = validate_hrep(*polygon_hrep(7))
    dual_complex_from_hrep(S)
    derive_linear_slice(S)
    info = enumerate_vertices.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_basis_count_over_budget(monkeypatch):
    # C(4, 2) = 6 row bases for the square and C(4, 2) = 6 column bases
    # for its slice; the cache is cleared so that the square is enumerated.
    monkeypatch.setattr(geometry, "_BASIS_BUDGET", 5)
    enumerate_vertices.cache_clear()
    with pytest.raises(BudgetExceeded):
        system(*SQUARE)
    with pytest.raises(BudgetExceeded):
        enumerate_slice_vertices(
            LinearSlice(C=((1, 0, 1, 0), (0, 1, 0, 1)), q=(F(1), F(1)), cols=4)
        )


def test_zero_row_slices():
    # No rows leaves the one empty basis and the origin.  With no columns
    # that is the point; with columns it is the orthant, not a polytope.
    vs, dual = enumerate_slice_vertices(LinearSlice(C=(), q=(), cols=0))
    assert vs == geometry.VertexSet(vertices=((),), incidences=(frozenset(),))
    assert dual.complex == SimplicialComplex.from_facets(0, [[]]) == SimplicialComplex.point()
    assert dual.dim == 0
    for cols in (1, 3):
        with pytest.raises(NotPseudomanifold):
            enumerate_slice_vertices(LinearSlice(C=(), q=(), cols=cols))


def _rationals(numerators):
    return st.builds(F, numerators, st.integers(1, 3))


@st.composite
def slices(draw):
    """r = 1..3 rows, at most r + 4 columns, entries -2..2, rational q."""
    r = draw(st.integers(1, 3))
    cols = draw(st.integers(1, r + 4))
    row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols).map(tuple)
    C = draw(st.lists(row, min_size=r, max_size=r))
    q = draw(st.lists(_rationals(st.integers(-1, 3)), min_size=r, max_size=r))
    return LinearSlice(C=tuple(C), q=tuple(q), cols=cols)


@st.composite
def hreps(draw):
    """n = 1..3, m = 1..6 rows, rational entries; no validation."""
    n = draw(st.integers(1, 3))
    row = st.lists(_rationals(st.integers(-2, 2)), min_size=n, max_size=n)
    A = draw(st.lists(row, min_size=1, max_size=6))
    b = draw(st.lists(_rationals(st.integers(-1, 4)), min_size=len(A), max_size=len(A)))
    return unvalidated(A, b)


class TestBasisKernel:
    """Both enumerations against the per-basis Fraction oracle."""

    def test_catalog_systems(self, catalog, check_vertex_oracle, check_slice_oracle):
        for entry in catalog:
            if entry.system is None:
                continue
            check_vertex_oracle(entry.system)
            L = derive_linear_slice(entry.system)
            check_slice_oracle(L)
            check_slice_oracle(double_system(L))

    def test_product_system(self, check_vertex_oracle, check_slice_oracle):
        S = validate_hrep(*block_diagonal(simplex_hrep(2), polygon_hrep(6)))
        check_vertex_oracle(S)
        L = derive_linear_slice(S)
        check_slice_oracle(L)
        check_slice_oracle(double_system(L))

    def test_budget_refusals(self, monkeypatch, check_vertex_oracle, check_slice_oracle):
        monkeypatch.setattr(geometry, "_BASIS_BUDGET", 5)
        assert check_vertex_oracle(unvalidated(*SQUARE))[0] is BudgetExceeded
        L = LinearSlice(C=((1, 0, 1, 0), (0, 1, 0, 1)), q=(F(1), F(1)), cols=4)
        assert check_slice_oracle(L)[0] is BudgetExceeded

    @settings(max_examples=400, deadline=None)
    @given(L=slices())
    # Infeasible; degenerate; rank-deficient; a pivot found below the
    # first unpivoted row; a negative determinant.
    @example(L=LinearSlice(C=((1, 1),), q=(F(-1),), cols=2))
    @example(L=LinearSlice(C=((1, -1),), q=(F(0),), cols=2))
    @example(L=LinearSlice(C=((1, 1, 0), (2, 2, 0)), q=(F(1), F(2)), cols=3))
    @example(L=LinearSlice(C=((0, 1, 1), (1, 0, 1)), q=(F(1, 2), F(1, 3)), cols=3))
    @example(L=LinearSlice(C=((-1, 0, 1), (0, 1, 1)), q=(F(1, 2), F(2, 3)), cols=3))
    def test_random_slices(self, check_slice_oracle, L):
        check_slice_oracle(L)

    @settings(max_examples=400, deadline=None)
    @given(S=hreps())
    # Rank 1 < n = 2; the pentagon with rational rows.
    @example(S=unvalidated([[1, 0], [2, 0], [-1, 0]], [0, 0, 1]))
    @example(S=unvalidated([[F(1, 2), 0], [0, 1], [-1, 0], [0, F(-1, 3)], [-1, -1]],
                           [0, 0, 2, F(2, 3), 3]))
    def test_random_hreps(self, check_vertex_oracle, S):
        check_vertex_oracle(S)
