"""Identity checks wired up for the command line and the test suite.

Every check produces CheckResult records with printable left and right
sides, so text output, JSON lines output, and assertions all read the
same data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import (
    BivariatePolynomial,
    derivative_sum,
    doubling_operator_apply,
    face_sum_lemma2,
    h_polynomial,
    theorem3_rhs,
)
from .catalog import CatalogEntry
from .complexes import (
    DualPolytope,
    SimplicialComplex,
    double_complex,
    equal_under_relabel,
    join,
    validate_dual,
)
from .errors import ValidationError
from .geometry import derive_linear_slice, double_system, dual_complex_from_hrep, enumerate_slice_vertices
from .polytope_ring import boundary_d, h_of_sum, product
from .moment_angle import (
    RATIONALS,
    verify_facet_splitting,
    verify_lemma6,
    verify_trc_bound,
)

# In `verify all` runs, lemma6/trc double the complex and sweep 2^(2m)
# subcomplexes; beyond this many vertices they are skipped, not failed.
ALL_MODE_HOCHSTER_LIMIT = 6


@dataclass(frozen=True)
class CheckResult:
    check: str
    input: str
    lhs: str
    rhs: str
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "check": self.check,
            "input": self.input,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


def _render_complex(K: SimplicialComplex) -> str:
    facets = ";".join(
        ",".join(str(v) for v in facet) for facet in K.facets_as_tuples()
    )
    return f"m={K.vertex_count} facets=[{facets}]"


def doubled_dual(entry: CatalogEntry) -> DualPolytope:
    """Validated dual of the doubled complex: dimension m + n on 2m labels."""
    P = entry.require_dual()
    return validate_dual(double_complex(P.complex), P.m + P.dim)


def check_theorem3(
    entry: CatalogEntry, lhs: BivariatePolynomial | None = None
) -> CheckResult:
    """h of the double, by raw face enumeration, against the product form.

    `lhs`, when given, is that h: `run_all` computes it once for this
    check and `check_lemma2`.
    """
    P = entry.require_dual()
    if lhs is None:
        lhs = h_polynomial(doubled_dual(entry))
    rhs = theorem3_rhs(h_polynomial(P), P.m, P.dim)
    return CheckResult(
        "theorem3", entry.name, lhs.to_text(), rhs.to_text(), lhs == rhs
    )


def check_lemma2(
    entry: CatalogEntry, lhs: BivariatePolynomial | None = None
) -> CheckResult:
    """h of the double against the alternating face sum over links."""
    P = entry.require_dual()
    if lhs is None:
        lhs = h_polynomial(doubled_dual(entry))
    rhs = face_sum_lemma2(P, P.m)
    return CheckResult("lemma2", entry.name, lhs.to_text(), rhs.to_text(), lhs == rhs)


def check_operator(entry: CatalogEntry) -> CheckResult:
    """The divided-derivative operator against the product form."""
    P = entry.require_dual()
    lhs = doubling_operator_apply(h_polynomial(P), P.m)
    rhs = theorem3_rhs(h_polynomial(P), P.m, P.dim)
    return CheckResult(
        "operator", entry.name, lhs.to_text(), rhs.to_text(), lhs == rhs
    )


def check_dring(entry: CatalogEntry) -> list[CheckResult]:
    """Boundary against derivative; Leibniz when the entry is a product."""
    P = entry.require_dual()
    lhs = h_of_sum(boundary_d(P))
    rhs = derivative_sum(h_polynomial(P))
    results = [
        CheckResult(
            "dring", f"{entry.name} [derivation]", lhs.to_text(), rhs.to_text(), lhs == rhs
        )
    ]
    if entry.kind == "product" and len(entry.parts) == 2:
        Pa = entry.parts[0].require_dual()
        Pb = entry.parts[1].require_dual()
        left = boundary_d(product(Pa, Pb))
        right = boundary_d(Pa).times_polytope(Pb) + boundary_d(Pb).times_polytope(
            Pa, on_left=True
        )
        results.append(
            CheckResult(
                "dring",
                f"{entry.name} [leibniz]",
                left.render(),
                right.render(),
                left == right,
            )
        )
    return results


def canonical_product_double_map(m1: int, m2: int) -> dict[int, int]:
    """Pairing of double(join(K1,K2)) labels with join(double(K1),double(K2)).

    On the left, label i <= m1+m2 is an original vertex and m1+m2+i its
    primed copy; on the right K1's copies occupy 1..2*m1.
    """
    mapping = {}
    for i in range(1, m1 + 1):
        mapping[i] = i
        mapping[m1 + m2 + i] = m1 + i
    for j in range(1, m2 + 1):
        mapping[m1 + j] = 2 * m1 + j
        mapping[m1 + m2 + m1 + j] = 2 * m1 + m2 + j
    return mapping


def check_product_double(e1: CatalogEntry, e2: CatalogEntry) -> CheckResult:
    """double(join) must equal join(doubles) under the canonical pairing."""
    K1, K2 = e1.complex, e2.complex
    lhs = double_complex(join(K1, K2))
    rhs = join(double_complex(K1), double_complex(K2))
    mapping = canonical_product_double_map(K1.vertex_count, K2.vertex_count)
    same = equal_under_relabel(lhs, rhs, mapping)
    return CheckResult(
        "productdouble",
        f"product({e1.name},{e2.name})",
        _render_complex(lhs),
        _render_complex(rhs),
        same,
    )


def check_geom_double(entry: CatalogEntry) -> CheckResult:
    """Doubled slice enumeration against combinatorial doubling.

    Also cross-checks the doubled vertex count against the evaluation of
    the doubled h-polynomial at (1, 1).
    """
    system = entry.require_system()
    base_dual = dual_complex_from_hrep(system)
    doubled = double_system(derive_linear_slice(system))
    vertex_set, slice_dual = enumerate_slice_vertices(doubled)
    expected = double_complex(base_dual.complex)
    same = slice_dual.complex == expected
    predicted_vertices = theorem3_rhs(
        h_polynomial(base_dual), base_dual.m, base_dual.dim
    ).evaluate(1, 1)
    count_ok = len(vertex_set.vertices) == predicted_vertices
    dim_ok = slice_dual.dim == base_dual.m + base_dual.dim
    facet_ok = slice_dual.complex.vertex_count == 2 * base_dual.m
    return CheckResult(
        "geomdouble",
        entry.name,
        f"{_render_complex(slice_dual.complex)} vertices={len(vertex_set.vertices)}",
        f"{_render_complex(expected)} vertices={predicted_vertices}",
        same and count_ok and dim_ok and facet_ok,
    )


def check_lemma6(entry: CatalogEntry, field_tag: str = RATIONALS) -> CheckResult:
    report = verify_lemma6(entry.complex, field_tag)
    return CheckResult(
        "lemma6", entry.name, str(report.total_z), str(report.total_r), report.passed
    )


def check_trc(entry: CatalogEntry, field_tag: str = RATIONALS) -> list[CheckResult]:
    report = verify_trc_bound(entry.require_dual(), field_tag)
    return [
        CheckResult(
            "trc", f"{entry.name} [Z]", str(report.z_hrk), str(report.bound), report.z_hrk >= report.bound
        ),
        CheckResult(
            "trc",
            f"{entry.name} [R(double)]",
            str(report.r_double_hrk),
            str(report.bound),
            report.r_double_hrk >= report.bound,
        ),
    ]


def check_facetsplit(entry: CatalogEntry, field_tag: str = RATIONALS) -> list[CheckResult]:
    P = entry.require_dual()
    results = []
    for v in range(1, P.m + 1):
        report = verify_facet_splitting(P, v, field_tag)
        results.append(
            CheckResult(
                "facetsplit",
                f"{entry.name} [v={v}]",
                str(report.lhs),
                f"2^{report.disjoint_count}*{report.rhs >> report.disjoint_count}",
                report.passed,
            )
        )
    return results


CHECK_NAMES = (
    "theorem3",
    "lemma2",
    "operator",
    "dring",
    "productdouble",
    "geomdouble",
    "lemma6",
    "trc",
    "facetsplit",
    "all",
)


def run_check(
    which: str, entry: CatalogEntry, field_tag: str = RATIONALS
) -> list[CheckResult]:
    """Run one named check (or every applicable one) on a catalog entry."""
    if which == "theorem3":
        return [check_theorem3(entry)]
    if which == "lemma2":
        return [check_lemma2(entry)]
    if which == "operator":
        return [check_operator(entry)]
    if which == "dring":
        return check_dring(entry)
    if which == "productdouble":
        if entry.kind != "product" or len(entry.parts) != 2:
            raise ValidationError("productdouble needs a product(spec,spec) input")
        return [check_product_double(*entry.parts)]
    if which == "geomdouble":
        return [check_geom_double(entry)]
    if which == "lemma6":
        return [check_lemma6(entry, field_tag)]
    if which == "trc":
        return check_trc(entry, field_tag)
    if which == "facetsplit":
        return check_facetsplit(entry, field_tag)
    if which == "all":
        return run_all(entry, field_tag)
    raise ValidationError(f"unknown check {which!r}, expected one of {CHECK_NAMES}")


def run_all(entry: CatalogEntry, field_tag: str = RATIONALS) -> list[CheckResult]:
    """All checks that apply to this entry, budget-gated for the heavy two."""
    results: list[CheckResult] = []
    h = h_polynomial(doubled_dual(entry))
    results.append(check_theorem3(entry, h))
    results.append(check_lemma2(entry, h))
    results.append(check_operator(entry))
    results.extend(check_dring(entry))
    if entry.kind == "product" and len(entry.parts) == 2:
        results.append(check_product_double(*entry.parts))
    if entry.system is not None:
        results.append(check_geom_double(entry))
    results.extend(check_facetsplit(entry, field_tag))
    if entry.m <= ALL_MODE_HOCHSTER_LIMIT:
        results.append(check_lemma6(entry, field_tag))
        results.extend(check_trc(entry, field_tag))
    return results
