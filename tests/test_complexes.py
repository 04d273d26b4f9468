import pytest

from polydouble.bitsets import mask_of, vertices_of
from polydouble.catalog import cube_complex, polygon_complex, simplex_complex
from polydouble.complexes import (
    DualPolytope,
    SimplicialComplex,
    disjoint_facet_count,
    double_complex,
    doubled_face_rule,
    equal_under_relabel,
    f_counts,
    full_subcomplex,
    join,
    link,
    minimal_non_faces,
    validate_dual,
)
from polydouble.errors import (
    Disconnected,
    NotAFace,
    NotPseudomanifold,
    NotPure,
    SizeMismatch,
    ValidationError,
)


def facets(K):
    return set(K.facets_as_tuples())


C5 = polygon_complex(5)
OCTAHEDRON = cube_complex(3)
BOUNDARY_D3 = simplex_complex(3)
TWO_POINTS = simplex_complex(1)


class TestConstruction:
    def test_contained_faces_are_dropped(self):
        K = SimplicialComplex.from_facets(3, [[1, 2], [1], [3]])
        assert facets(K) == {(1, 2), (3,)}

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialComplex.from_facets(3, [[1, 2]])

    def test_duplicate_vertex_in_facet_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialComplex.from_facets(2, [[1, 1], [2]])

    def test_vertex_budget(self):
        with pytest.raises(ValidationError):
            SimplicialComplex.from_masks(65, [(1 << 65) - 1])

    def test_point_complex(self):
        pt = SimplicialComplex.point()
        assert pt.vertex_count == 0
        assert pt.maximal_faces == frozenset({0})
        assert pt.dim == -1


class TestValidateDual:
    def test_pentagon(self):
        P = validate_dual(C5, 2)
        assert P.m == 5 and P.n == 2

    def test_triangle_boundary(self):
        K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
        assert validate_dual(K, 2).dim == 2

    def test_dangling_edge_not_pseudomanifold(self):
        K = SimplicialComplex.from_facets(4, [[1, 2], [1, 3], [2, 3], [1, 4]])
        with pytest.raises(NotPseudomanifold):
            validate_dual(K, 2)

    def test_three_points_not_a_zero_sphere(self):
        K = SimplicialComplex.from_facets(3, [[1], [2], [3]])
        with pytest.raises(NotPseudomanifold):
            validate_dual(K, 1)

    def test_wrong_purity(self):
        K = SimplicialComplex.from_facets(5, [[1, 2, 3], [4, 5]])
        with pytest.raises(NotPure):
            validate_dual(K, 3)

    def test_disconnected(self):
        K = SimplicialComplex.from_facets(
            6, [[1, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4]]
        )
        with pytest.raises(Disconnected):
            validate_dual(K, 2)

    def test_point_dual(self):
        assert validate_dual(SimplicialComplex.point(), 0).dim == 0


class TestFCounts:
    def test_pentagon(self):
        assert f_counts(validate_dual(C5, 2)) == [5, 5]

    def test_cube(self):
        assert f_counts(validate_dual(OCTAHEDRON, 3)) == [6, 12, 8]

    def test_simplex(self):
        assert f_counts(validate_dual(BOUNDARY_D3, 3)) == [4, 6, 4]


class TestFacesBySize:
    def test_small_complexes(self, check_face_levels):
        non_pure = SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [5]])
        for K in [SimplicialComplex.point(), SimplicialComplex.from_masks(4, [0b1111]),
                  non_pure, C5, OCTAHEDRON]:
            check_face_levels(K)

    def test_catalog_and_doubles(self, catalog, check_face_levels):
        for entry in catalog:
            if entry.m <= 6:
                check_face_levels(entry.complex)
                check_face_levels(double_complex(entry.complex))


class TestLink:
    def test_pentagon_vertex(self):
        L, labels = link(validate_dual(C5, 2), (1,))
        assert labels == (2, 5)
        assert facets(L.complex) == {(1,), (2,)}
        assert L.dim == 1

    def test_empty_face_is_identity(self):
        L, labels = link(validate_dual(C5, 2), ())
        assert L.complex == C5
        assert labels == (1, 2, 3, 4, 5)

    def test_octahedron_vertex_is_square(self):
        L, _ = link(validate_dual(OCTAHEDRON, 3), (1,))
        assert L.complex == cube_complex(2)

    def test_not_a_face(self):
        with pytest.raises(NotAFace):
            link(validate_dual(C5, 2), (1, 3))

    def test_maximal_face_gives_point(self):
        L, labels = link(validate_dual(C5, 2), (1, 2))
        assert L.complex == SimplicialComplex.point()
        assert L.dim == 0 and labels == ()


class TestDouble:
    def test_segment_gives_tetrahedron_boundary(self):
        D = double_complex(TWO_POINTS)
        assert D.vertex_count == 4
        assert facets(D) == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}

    def test_pentagon_double_shape(self):
        D = double_complex(C5)
        assert D.vertex_count == 10
        assert len(D.maximal_faces) == 40
        assert all(f.bit_count() == 7 for f in D.maximal_faces)

    def test_pentagon_double_minimal_non_faces(self):
        D = double_complex(C5)
        expected = {
            mask_of((i, j, i + 5, j + 5))
            for i in range(1, 6)
            for j in range(1, 6)
            if i < j and not C5.is_face(mask_of((i, j)))
        }
        assert minimal_non_faces(D) == expected

    def test_point_fixed(self):
        assert double_complex(SimplicialComplex.point()) == SimplicialComplex.point()

    def test_rule_matches_enumeration(self):
        D = double_complex(C5)
        all_faces = D.all_faces()
        for mask in range(1 << 10):
            assert (mask in all_faces) == doubled_face_rule(C5, mask)


class TestJoin:
    def test_two_segments_make_square(self):
        assert join(TWO_POINTS, TWO_POINTS) == cube_complex(2)

    def test_prism(self):
        K = join(simplex_complex(2), TWO_POINTS)
        assert K.vertex_count == 5
        assert len(K.maximal_faces) == 6
        assert all(f.bit_count() == 3 for f in K.maximal_faces)

    def test_point_is_unit(self):
        assert join(C5, SimplicialComplex.point()) == C5
        assert join(SimplicialComplex.point(), C5) == C5


class TestFullSubcomplex:
    def test_edge_plus_point(self):
        K = full_subcomplex(C5, (1, 2, 4))
        assert facets(K) == {(1, 2), (3,)}

    def test_empty_selection(self):
        K = full_subcomplex(C5, ())
        assert K == SimplicialComplex.point()

    def test_two_isolated_points(self):
        K = full_subcomplex(C5, (1, 3))
        assert facets(K) == {(1,), (2,)}

    def test_full_selection_is_identity(self):
        assert full_subcomplex(C5, (1, 2, 3, 4, 5)) == C5


class TestMinimalNonFaces:
    def test_pentagon(self):
        expected = {
            mask_of(p) for p in [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
        }
        assert minimal_non_faces(C5) == expected

    def test_simplex_boundary(self):
        assert minimal_non_faces(BOUNDARY_D3) == {mask_of((1, 2, 3, 4))}

    def test_two_points(self):
        assert minimal_non_faces(TWO_POINTS) == {mask_of((1, 2))}


class TestDisjointFacetCount:
    def test_pentagon(self):
        assert disjoint_facet_count(validate_dual(C5, 2), 1) == 2

    def test_simplex(self):
        P = validate_dual(BOUNDARY_D3, 3)
        assert all(disjoint_facet_count(P, v) == 0 for v in range(1, 5))

    def test_hexagon(self):
        P = validate_dual(polygon_complex(6), 2)
        assert disjoint_facet_count(P, 1) == 3

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            disjoint_facet_count(validate_dual(C5, 2), 6)


class TestEqualUnderRelabel:
    def test_identity(self):
        identity = {v: v for v in range(1, 6)}
        assert equal_under_relabel(C5, C5, identity)

    def test_rotation(self):
        rotation = {v: v % 5 + 1 for v in range(1, 6)}
        assert equal_under_relabel(C5, C5, rotation)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            equal_under_relabel(polygon_complex(4), C5, {})

    def test_non_bijection(self):
        with pytest.raises(SizeMismatch):
            equal_under_relabel(C5, C5, {v: 1 for v in range(1, 6)})


def test_link_of_every_face_is_valid_dual():
    for complex, n in [(C5, 2), (OCTAHEDRON, 3), (BOUNDARY_D3, 3)]:
        P = validate_dual(complex, n)
        for face in sorted(P.complex.all_faces()):
            L, _ = link(P, face)
            assert isinstance(L, DualPolytope)
            assert L.dim == n - face.bit_count()


def test_double_of_dual_is_pure_of_dimension_m_plus_n():
    for complex, n in [(C5, 2), (OCTAHEDRON, 3), (BOUNDARY_D3, 3)]:
        D = double_complex(complex)
        m = complex.vertex_count
        assert D.vertex_count == 2 * m
        assert all(f.bit_count() == m + n for f in D.maximal_faces)
        validate_dual(D, m + n)


def test_vertices_of_round_trip():
    assert vertices_of(mask_of((2, 5, 7))) == (2, 5, 7)
