import pytest

from polydouble import moment_angle
from polydouble.catalog import (
    cube_complex,
    polygon_complex,
    simplex_complex,
)
from polydouble.complexes import (
    DualPolytope,
    SimplicialComplex,
    double_complex,
    minimal_non_faces,
    validate_dual,
)
from polydouble.errors import BudgetExceeded, ValidationError
from polydouble.fileio import load_complex_file
from polydouble.moment_angle import (
    GF2,
    RATIONALS,
    SPACE_R,
    SPACE_Z,
    hochster_betti,
    hrk,
    is_homology_sphere,
    reduced_homology_ranks,
    verify_facet_splitting,
    verify_lemma6,
    verify_trc_bound,
)


def polygon_hrk(m: int) -> int:
    """Closed form for the total rank of the m-gon's moment-angle manifold:
    a surface of genus 1 + (m-4) 2^(m-3) for the real double, total rank
    4 + (m-4) 2^(m-2)."""
    return 4 + (m - 4) * (1 << (m - 2))


C5 = polygon_complex(5)

# The 6-vertex triangulation of the real projective plane: 10 triangles,
# every one of the 15 edges in exactly two of them, Euler characteristic 1.
RP2 = SimplicialComplex.from_facets(
    6,
    [
        (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
        (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
    ],
)


class TestReducedHomology:
    def test_circle(self):
        assert reduced_homology_ranks(C5, RATIONALS) == [0, 0, 1]

    def test_two_points(self):
        K = simplex_complex(1)
        assert reduced_homology_ranks(K, RATIONALS) == [0, 1]

    def test_empty_complex(self):
        assert reduced_homology_ranks(SimplicialComplex.point(), RATIONALS) == [1]

    def test_two_sphere(self):
        K = simplex_complex(3)
        assert reduced_homology_ranks(K, RATIONALS) == [0, 0, 0, 1]
        assert reduced_homology_ranks(cube_complex(3), GF2) == [0, 0, 0, 1]

    def test_projective_plane_depends_on_field(self):
        assert reduced_homology_ranks(RP2, RATIONALS) == [0, 0, 0, 0]
        assert reduced_homology_ranks(RP2, GF2) == [0, 0, 1, 1]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            reduced_homology_ranks(C5, "F3")


class TestHomologySphere:
    def test_catalog_and_small_doubles(self, catalog):
        for entry in catalog:
            assert is_homology_sphere(entry.dual), entry.name
            if entry.m <= 4:
                doubled = validate_dual(double_complex(entry.complex), entry.m + entry.dual.dim)
                assert is_homology_sphere(doubled), entry.name

    def test_point(self):
        assert is_homology_sphere(validate_dual(SimplicialComplex.point(), 0))

    def test_torus_passes_the_weak_checks_only(self, torus7_complex_path):
        torus = validate_dual(load_complex_file(torus7_complex_path), 3)
        assert reduced_homology_ranks(torus.complex, RATIONALS) == [0, 0, 2, 1]
        assert not is_homology_sphere(torus)

    def test_projective_plane(self):
        # Over Q RP2 has the homology of a point, over F2 that of no sphere.
        assert not is_homology_sphere(validate_dual(RP2, 3))

    def test_link_failing_validation_is_not_a_sphere(self):
        # Two tetrahedron boundaries sharing vertex 1, wrapped without
        # validate_dual: K, the link of the empty face, fails it (its facet
        # graph is disconnected).
        K = SimplicialComplex.from_facets(
            7,
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
             (1, 5, 6), (1, 5, 7), (1, 6, 7), (5, 6, 7)],
        )
        assert not is_homology_sphere(DualPolytope(K, 3))


class TestHochster:
    def test_segment_dual_z(self):
        table = hochster_betti(simplex_complex(1), SPACE_Z, RATIONALS)
        assert table.ranks == {0: 1, 3: 1}

    def test_pentagon_z(self):
        table = hochster_betti(C5, SPACE_Z, RATIONALS)
        assert table.ranks == {0: 1, 3: 5, 4: 5, 7: 1}
        assert hrk(table) == 12

    def test_pentagon_r(self):
        table = hochster_betti(C5, SPACE_R, RATIONALS)
        assert table.ranks == {0: 1, 1: 10, 2: 1}
        assert hrk(table) == 12

    def test_hexagon_total(self):
        assert hrk(hochster_betti(polygon_complex(6), SPACE_Z, RATIONALS)) == 36

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_polygon_totals_match_genus_formula(self, m):
        table = hochster_betti(polygon_complex(m), SPACE_Z, RATIONALS)
        assert hrk(table) == polygon_hrk(m)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_polygon_real_table_is_a_surface(self, m):
        table = hochster_betti(polygon_complex(m), SPACE_R, RATIONALS)
        genus = 1 + (m - 4) * (1 << (m - 3))
        assert table.ranks == {0: 1, 1: 2 * genus, 2: 1}

    def test_z_and_r_totals_agree(self):
        for K in (C5, cube_complex(2), simplex_complex(2), RP2):
            for field in (RATIONALS, GF2):
                z = hochster_betti(K, SPACE_Z, field)
                r = hochster_betti(K, SPACE_R, field)
                assert hrk(z) == hrk(r)

    def test_field_independence_on_catalog(self, catalog):
        # All full subcomplexes of the catalog duals are torsion free, so
        # both fields must give the same tables there (unlike RP2 below).
        for entry in catalog:
            for space in (SPACE_Z, SPACE_R):
                q = hochster_betti(entry.complex, space, RATIONALS)
                f2 = hochster_betti(entry.complex, space, GF2)
                assert q.ranks == f2.ranks, (entry.name, space)

    def test_field_divergence_is_visible_for_rp2(self):
        q = hochster_betti(RP2, SPACE_Z, RATIONALS)
        f2 = hochster_betti(RP2, SPACE_Z, GF2)
        assert q.ranks != f2.ranks

    def test_matches_the_plain_scan(self, catalog, plain_hochster):
        # RP2 keeps a case whose tables differ between the fields.
        cases = [("rp2", RP2)]
        for entry in catalog:
            if entry.m <= 5:
                cases.append((entry.name, entry.complex))
                cases.append((f"double({entry.name})", double_complex(entry.complex)))
        for name, K in cases:
            for field in (RATIONALS, GF2):
                z, r = plain_hochster(K, field)
                assert hochster_betti(K, SPACE_Z, field).ranks == z, (name, field)
                assert hochster_betti(K, SPACE_R, field).ranks == r, (name, field)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            hochster_betti(polygon_complex(21), SPACE_Z, RATIONALS)

    def test_bad_space_kind(self):
        with pytest.raises(ValidationError):
            hochster_betti(C5, "ZR", RATIONALS)


class TestMinimalNonFaces:
    """`minimal_non_faces` bounds the union sweep; it must match the
    subset search on the complexes the sweep sees."""

    def test_catalog_and_doubles(self, catalog, subset_search_non_faces):
        for entry in catalog:
            if entry.m > 8:
                continue
            K = entry.complex
            for L in (K, double_complex(K)):
                assert minimal_non_faces(L) == subset_search_non_faces(L), entry.name

    def test_rp2_and_torus(self, torus7_complex_path, subset_search_non_faces):
        for K in (RP2, load_complex_file(torus7_complex_path)):
            assert minimal_non_faces(K) == subset_search_non_faces(K)


class TestLemma6:
    @pytest.mark.parametrize(
        "K,expected",
        [
            (simplex_complex(1), 2),
            (simplex_complex(2), 2),
            (polygon_complex(4), 4),
            (polygon_complex(5), 12),
        ],
        ids=["segment", "triangle", "square", "pentagon"],
    )
    def test_totals(self, K, expected):
        report = verify_lemma6(K, RATIONALS)
        assert report.passed
        assert report.total_z == report.total_r == expected
        assert report.per_degree_equal

    def test_budget(self, monkeypatch):
        # The doubled vertex count is refused before any sweep starts.
        def no_sweep(*args):
            raise AssertionError("swept before the budget check")

        monkeypatch.setattr(moment_angle, "hochster_betti", no_sweep)
        with pytest.raises(BudgetExceeded):
            verify_lemma6(polygon_complex(11), RATIONALS)
        with pytest.raises(BudgetExceeded):
            verify_trc_bound(validate_dual(polygon_complex(11), 2), RATIONALS)

    def test_holds_for_non_polytopal_complexes(self):
        # The squaring substitution underlying the equality does not need
        # the complex to be a polytope dual; torsion shifts the totals
        # between fields but the two space kinds still agree per degree.
        q = verify_lemma6(RP2, RATIONALS)
        f2 = verify_lemma6(RP2, GF2)
        assert q.passed and q.total_z == 32
        assert f2.passed and f2.total_z == 34


class TestTrcBound:
    def test_pentagon_strict(self):
        report = verify_trc_bound(validate_dual(C5, 2), RATIONALS)
        assert report.passed
        assert (report.z_hrk, report.bound) == (12, 8)
        assert report.z_margin == 4

    def test_square_equality(self):
        report = verify_trc_bound(validate_dual(cube_complex(2), 2), RATIONALS)
        assert report.passed
        assert report.z_hrk == report.bound == 4
        assert report.r_double_hrk == 4

    def test_hexagon(self):
        report = verify_trc_bound(validate_dual(polygon_complex(6), 2), RATIONALS)
        assert report.passed
        assert (report.z_hrk, report.bound) == (36, 16)


class TestFacetSplitting:
    def test_pentagon(self):
        report = verify_facet_splitting(validate_dual(C5, 2), 1, RATIONALS)
        assert report.passed
        assert (report.lhs, report.rhs) == (12, 8)
        assert report.disjoint_count == 2

    def test_triangle_equality(self):
        report = verify_facet_splitting(
            validate_dual(simplex_complex(2), 2), 1, RATIONALS
        )
        assert report.passed
        assert report.lhs == report.rhs == 2

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            verify_facet_splitting(validate_dual(polygon_complex(21), 2), 1, RATIONALS)

    def test_hexagon(self):
        report = verify_facet_splitting(validate_dual(polygon_complex(6), 2), 1, RATIONALS)
        assert report.passed
        assert (report.lhs, report.rhs) == (36, 16)


def test_betti_table_renders_in_degree_order():
    table = hochster_betti(C5, SPACE_Z, RATIONALS)
    assert table.render() == "0: 1\n3: 5\n4: 5\n7: 1\nhrk: 12"
    payload = table.to_jsonable()
    assert payload["hrk"] == 12
    assert payload["ranks"] == {"0": 1, "3": 5, "4": 5, "7": 1}
