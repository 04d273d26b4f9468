"""Property-based tests for the structural invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydouble.bipoly import (
    BivariatePolynomial,
    derivative_sum,
    doubling_operator_apply,
    theorem3_rhs,
)
from polydouble.bitsets import mask_of
from polydouble.complexes import (
    SimplicialComplex,
    double_complex,
    doubled_face_rule,
    equal_under_relabel,
    full_subcomplex,
    join,
    minimal_non_faces,
)
from polydouble.moment_angle import (
    GF2,
    RATIONALS,
    SPACE_R,
    SPACE_Z,
    hochster_betti,
    hrk,
    reduced_homology_ranks,
)
from polydouble.verify import canonical_product_double_map


@st.composite
def complexes(draw, max_vertices=6):
    m = draw(st.integers(min_value=1, max_value=max_vertices))
    subsets = draw(
        st.lists(
            st.sets(st.integers(1, m), min_size=0, max_size=m),
            min_size=1,
            max_size=6,
        )
    )
    masks = {mask_of(s) for s in subsets}
    covered = 0
    for f in masks:
        covered |= f
    for v in range(m):
        if not covered >> v & 1:
            masks.add(1 << v)
    return SimplicialComplex.from_masks(m, masks)


@st.composite
def homogeneous_polys(draw, max_degree=4):
    n = draw(st.integers(0, max_degree))
    coeffs = draw(
        st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1).filter(any)
    )
    return BivariatePolynomial({(n - j, j): c for j, c in enumerate(coeffs)}), n


@st.composite
def polys(draw):
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-9, 9),
            max_size=6,
        )
    )
    return BivariatePolynomial(entries)


@given(complexes())
def test_double_has_twice_the_vertices(K):
    assert double_complex(K).vertex_count == 2 * K.vertex_count


@given(complexes(max_vertices=4))
def test_doubled_membership_matches_rule(K):
    D = double_complex(K)
    faces = D.all_faces()
    for mask in range(1 << D.vertex_count):
        assert (mask in faces) == doubled_face_rule(K, mask)


@given(K=complexes())
@example(K=SimplicialComplex.point())
@example(K=SimplicialComplex.from_masks(4, [0b1111]))
def test_faces_by_size_matches_the_submask_union(K, check_face_levels):
    check_face_levels(K)


@given(complexes())
def test_minimal_non_faces_double_exactly(K):
    m = K.vertex_count
    expected = {tau | (tau << m) for tau in minimal_non_faces(K)}
    assert minimal_non_faces(double_complex(K)) == expected


@given(K=complexes())
@example(K=SimplicialComplex.point())
@example(K=SimplicialComplex.from_masks(4, [0b1111]))
@example(K=SimplicialComplex.from_facets(5, [(1, 2, 3), (3, 4), (5,)]))
def test_minimal_non_faces_match_the_subset_search(K, subset_search_non_faces):
    assert minimal_non_faces(K) == subset_search_non_faces(K)


@given(complexes(max_vertices=4), complexes(max_vertices=4))
def test_double_commutes_with_join(K1, K2):
    lhs = double_complex(join(K1, K2))
    rhs = join(double_complex(K1), double_complex(K2))
    mapping = canonical_product_double_map(K1.vertex_count, K2.vertex_count)
    assert equal_under_relabel(lhs, rhs, mapping)


@given(complexes(), st.data())
def test_full_subcomplex_nested(K, data):
    m = K.vertex_count
    everything = tuple(range(1, m + 1))
    assert full_subcomplex(K, everything) == K
    J1 = sorted(data.draw(st.sets(st.integers(1, m))))
    J2_positions = sorted(data.draw(st.sets(st.integers(1, len(J1))))) if J1 else []
    direct = full_subcomplex(K, [J1[p - 1] for p in J2_positions])
    via = full_subcomplex(full_subcomplex(K, J1), J2_positions)
    assert direct == via


@given(complexes(max_vertices=5), st.sampled_from([RATIONALS, GF2]))
@settings(max_examples=40, deadline=None)
def test_euler_characteristic_cross_check(K, field):
    faces = [f for f in K.all_faces() if f]
    chi = -1 + sum((-1) ** (f.bit_count() - 1) for f in faces)
    ranks = reduced_homology_ranks(K, field)
    assert sum((-1) ** d * r for d, r in enumerate(ranks, start=-1)) == chi


@given(complexes(max_vertices=5), st.sampled_from([RATIONALS, GF2]))
@settings(max_examples=25, deadline=None)
def test_hochster_totals_agree_across_space_kinds(K, field):
    z = hochster_betti(K, SPACE_Z, field)
    r = hochster_betti(K, SPACE_R, field)
    assert hrk(z) == hrk(r)


@given(K=complexes(), field=st.sampled_from([RATIONALS, GF2]))
@example(K=SimplicialComplex.point(), field=RATIONALS)
@example(K=SimplicialComplex.point(), field=GF2)
@example(K=SimplicialComplex.from_masks(4, [0b1111]), field=RATIONALS)
@example(K=SimplicialComplex.from_masks(4, [0b1111]), field=GF2)
@settings(max_examples=60, deadline=None)
def test_union_sweep_matches_the_plain_scan(K, field, plain_hochster):
    z, r = plain_hochster(K, field)
    assert hochster_betti(K, SPACE_Z, field).ranks == z
    assert hochster_betti(K, SPACE_R, field).ranks == r


@given(polys())
def test_text_round_trip(p):
    assert BivariatePolynomial.from_text(p.to_text()) == p


@given(polys(), polys())
def test_derivative_is_a_derivation(p, q):
    lhs = derivative_sum(p * q)
    rhs = derivative_sum(p) * q + p * derivative_sum(q)
    assert lhs == rhs


@given(homogeneous_polys(), st.integers(0, 3))
def test_operator_agrees_with_product_form(hn, slack):
    # The operator identity is an algebraic fact for every homogeneous
    # polynomial, not only h-polynomials of polytopes.
    h, n = hn
    m = n + slack
    assert doubling_operator_apply(h, m) == theorem3_rhs(h, m, n)


@given(homogeneous_polys(max_degree=3), homogeneous_polys(max_degree=3),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_operator_is_multiplicative(h1n1, h2n2, s1, s2):
    h1, n1 = h1n1
    h2, n2 = h2n2
    m1, m2 = n1 + s1, n2 + s2
    lhs = doubling_operator_apply(h1 * h2, m1 + m2)
    rhs = doubling_operator_apply(h1, m1) * doubling_operator_apply(h2, m2)
    assert lhs == rhs
