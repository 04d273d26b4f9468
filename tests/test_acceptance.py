"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion.  Every comparison is exact integer or exact rational; the only
tolerances are the stated wall-clock budgets.
"""

import time

import pytest

from polydouble.bipoly import f_polynomial, h_polynomial
from polydouble.catalog import (
    parse_spec,
    polygon_complex,
    simplex_complex,
)
from polydouble.complexes import double_complex, validate_dual
from polydouble.geometry import (
    derive_linear_slice,
    double_system,
    dual_complex_from_hrep,
    enumerate_slice_vertices,
)
from polydouble.moment_angle import (
    GF2,
    RATIONALS,
    SPACE_R,
    SPACE_Z,
    hochster_betti,
    hrk,
    verify_facet_splitting,
    verify_lemma6,
)
from polydouble.verify import (
    check_dring,
    check_lemma2,
    check_operator,
    check_product_double,
    check_theorem3,
)


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


def test_criterion_1_theorem3_exact_equality(catalog):
    start = time.monotonic()
    for entry in catalog:
        result = check_theorem3(entry)
        assert result.passed, f"{entry.name}: {result.lhs} != {result.rhs}"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    report(1, f"product formula for h(double) on {len(catalog)} polytopes "
              f"({elapsed:.1f}s)")


def test_criterion_2_lemma2_face_sum(catalog):
    for entry in catalog:
        result = check_lemma2(entry)
        assert result.passed, f"{entry.name}: {result.lhs} != {result.rhs}"
    report(2, f"alternating face sum equals h(double) on {len(catalog)} polytopes")


def test_criterion_3_operator_form(catalog):
    for entry in catalog:
        result = check_operator(entry)
        assert result.passed, f"{entry.name}: {result.lhs} != {result.rhs}"
    report(3, f"divided-derivative operator equals the product form on "
              f"{len(catalog)} polytopes")


def test_criterion_4_differential_ring(catalog):
    for entry in catalog:
        for result in check_dring(entry):
            assert result.passed, f"{entry.name}: {result.input}"
    pairs = [
        ("simplex:1", "simplex:1"),
        ("simplex:2", "simplex:1"),
        ("polygon:5", "simplex:1"),
        ("cube:2", "simplex:2"),
    ]
    for a, b in pairs:
        entry = parse_spec(f"product({a},{b})")
        results = check_dring(entry)
        assert len(results) == 2, "product entries must also check Leibniz"
        assert all(r.passed for r in results), f"({a},{b})"
    report(4, f"derivation identity on {len(catalog)} polytopes, Leibniz on "
              f"{len(pairs)} products")


def test_criterion_5_product_double_commutation():
    pairs = [("simplex:1", "simplex:1"), ("simplex:2", "simplex:1"),
             ("polygon:5", "simplex:1")]
    for a, b in pairs:
        result = check_product_double(parse_spec(a), parse_spec(b))
        assert result.passed, f"({a},{b})"
    report(5, f"double(join) = join(doubles) on {len(pairs)} pairs")


def test_criterion_6_geometric_combinatorial_agreement(pentagon_hrep_path):
    start = time.monotonic()
    specs = ["simplex:1", "simplex:2", "cube:2", f"hrep:{pentagon_hrep_path}"]
    for spec_text in specs:
        entry = parse_spec(spec_text)
        system = entry.require_system()
        base = dual_complex_from_hrep(system)
        doubled = double_system(derive_linear_slice(system))
        vertex_set, slice_dual = enumerate_slice_vertices(doubled)
        # enumerate_slice_vertices raises NotSimple unless every vertex has
        # exactly cols - rows zero coordinates, and validates the dual at
        # dimension cols - rows = m + n on 2m facet labels.
        assert slice_dual.complex == double_complex(base.complex), spec_text
        assert slice_dual.dim == base.m + base.dim, spec_text
        assert slice_dual.complex.vertex_count == 2 * base.m, spec_text
        if spec_text.startswith("hrep:"):
            assert len(vertex_set.vertices) == 40
            for vertex in vertex_set.vertices:
                assert sum(1 for c in vertex if c > 0) == 3
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"
    report(6, f"doubled-slice enumeration matches double_complex on "
              f"{len(specs)} systems ({elapsed:.1f}s)")


def test_criterion_7_lemma6_totals():
    start = time.monotonic()
    cases = [
        (simplex_complex(1), 2),
        (simplex_complex(2), 2),
        (polygon_complex(4), 4),
        (polygon_complex(5), 12),
        (polygon_complex(6), 36),
    ]
    for K, expected in cases:
        for field in (RATIONALS, GF2):
            rep = verify_lemma6(K, field)
            assert rep.passed
            assert rep.total_z == rep.total_r == expected, (K, field)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"
    report(7, f"hrk(Z_K) = hrk(R of double) = {[c[1] for c in cases]} over both "
              f"fields ({elapsed:.1f}s)")


def test_criterion_8_toral_rank_bound(catalog):
    strict, equal = [], []
    for entry in catalog:
        P = entry.require_dual()
        bound = 1 << (P.m - P.dim)
        total = hrk(hochster_betti(P.complex, SPACE_Z, RATIONALS))
        assert total >= bound, f"{entry.name}: {total} < {bound}"
        (equal if total == bound else strict).append(entry.name)
        if entry.kind in ("cube", "simplex"):
            assert total == bound, f"{entry.name} should attain the bound"
        if entry.kind == "polygon" and entry.m >= 5:
            assert total > bound, f"{entry.name} should exceed the bound"
    pentagon = hrk(hochster_betti(polygon_complex(5), SPACE_Z, RATIONALS))
    hexagon = hrk(hochster_betti(polygon_complex(6), SPACE_Z, RATIONALS))
    assert (pentagon, hexagon) == (12, 36)
    report(8, f"hrk(Z) >= 2^(m-n) on {len(strict) + len(equal)} polytopes "
              f"({len(equal)} with equality)")


def test_criterion_9_facet_splitting(catalog):
    checked = 0
    for entry in catalog:
        P = entry.require_dual()
        for v in range(1, P.m + 1):
            rep = verify_facet_splitting(P, v, RATIONALS)
            assert rep.passed, f"{entry.name} v={v}: {rep.lhs} < {rep.rhs}"
            checked += 1
    report(9, f"hrk(R) >= 2^k hrk(R of facet) for all {checked} facets")


def test_criterion_10_structural_invariants(catalog):
    for entry in catalog:
        P = entry.require_dual()
        h = h_polynomial(P)
        assert h.is_palindromic(), entry.name
        assert h.homogeneous_degree() == P.dim
        assert f_polynomial(P).homogeneous_degree() == P.dim
        table = hochster_betti(P.complex, SPACE_Z, RATIONALS)
        top = P.m + P.dim
        for k, rank in table.ranks.items():
            assert table.ranks.get(top - k, 0) == rank, (entry.name, k)
    z5 = hochster_betti(polygon_complex(5), SPACE_Z, RATIONALS)
    r5 = hochster_betti(polygon_complex(5), SPACE_R, RATIONALS)
    assert z5.ranks == {0: 1, 3: 5, 4: 5, 7: 1}
    assert r5.ranks == {0: 1, 1: 10, 2: 1}
    report(10, "Dehn-Sommerville, Betti symmetry, and frozen pentagon tables")
