"""Cohomology ranks of moment-angle and real moment-angle complexes.

Both spaces attached to a complex K on m vertices decompose over the
full subcomplexes K_J, J a vertex subset:

  * moment-angle (kind "Z"):   rank in degree k  +=  dim H~_(k-|J|-1)(K_J)
  * real moment-angle ("R"):   rank in degree k  +=  dim H~_(k-1)(K_J)

The J = {} term contributes 1 in degree 0 for both kinds (the empty
complex has reduced rank 1 in dimension -1).  Only J that are unions of
minimal non-faces of K can contribute anything else: if some v in a
nonempty J lies in no minimal non-face inside J, then every face of K_J
stays a face with v added, so K_J is a cone with apex v and has no
reduced homology over any field.  The sweep therefore visits those
unions only.  This is the lcm-lattice support of Hochster's formula
(Gasharov-Peeva-Welker, "The lcm-lattice in monomial resolutions",
1999; Buchstaber-Panov, Toric Topology, ch. 3-4).  Reduced homology of
each subcomplex is computed from boundary-matrix ranks by exact
elimination: fraction-free integer column reduction over the rationals,
bit-packed column reduction over the two-element field.

Total rank over all degrees is the same for both kinds, which is why the
homeomorphism checks (verify_lemma6) compare per degree as well.
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd

from .complexes import (
    DualPolytope, SimplicialComplex, disjoint_facet_count, double_complex, link, minimal_non_faces,
)
from .errors import BudgetExceeded, PolytopeError, ValidationError

RATIONALS = "Q"
GF2 = "F2"
FIELDS = (RATIONALS, GF2)

SPACE_Z = "Z"
SPACE_R = "R"
SPACE_KINDS = (SPACE_Z, SPACE_R)

# hochster_betti can still reach all 2^m subsets (nearly every subset of a
# polygon's vertices is a union of minimal non-faces); above this it refuses.
# verify_lemma6 and verify_trc_bound check the doubled count 2m up front.
HOCHSTER_VERTEX_BUDGET = 20


def _check_field(field_tag: str) -> None:
    if field_tag not in FIELDS:
        raise ValidationError(f"unknown field {field_tag!r}, expected one of {FIELDS}")


@dataclass(frozen=True)
class BettiTable:
    """Per-degree cohomology ranks of one space over one field."""

    space_kind: str
    field: str
    ranks: dict[int, int]
    m: int
    complex: SimplicialComplex

    def __post_init__(self):
        if self.space_kind not in SPACE_KINDS:
            raise ValidationError(f"space kind must be one of {SPACE_KINDS}")
        _check_field(self.field)
        if self.ranks.get(0) != 1:
            raise ValidationError("degree 0 must have rank 1")

    def render(self) -> str:
        lines = [f"{k}: {self.ranks[k]}" for k in sorted(self.ranks)]
        lines.append(f"hrk: {hrk(self)}")
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "space": self.space_kind,
            "field": self.field,
            "m": self.m,
            "ranks": {str(k): self.ranks[k] for k in sorted(self.ranks)},
            "hrk": hrk(self),
        }


def hrk(table: BettiTable) -> int:
    """Total cohomology rank: the sum of all per-degree ranks."""
    return sum(table.ranks.values())


# -- exact ranks of sparse columns --------------------------------------------


def _rank_gf2(columns: list[int]) -> int:
    """Rank over F2; each column is a bit mask of row indices."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            p = col.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                rank += 1
                break
            col ^= other
    return rank


def _rank_rational(columns: list[dict[int, int]]) -> int:
    """Rank over Q by fraction-free integer column reduction.

    Columns are sparse {row: coefficient} dicts; each reduction step
    cross-multiplies to stay in the integers and strips the gcd to keep
    entries small.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        while col:
            p = max(col)
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                rank += 1
                break
            a, o = col[p], other[p]
            g = gcd(a, o)
            fo, fc = o // g, a // g
            merged: dict[int, int] = {}
            for r, v in col.items():
                w = fo * v - fc * other.get(r, 0)
                if w:
                    merged[r] = w
            for r, v in other.items():
                if r not in col:
                    merged[r] = -fc * v
            if merged:
                g2 = 0
                for v in merged.values():
                    g2 = gcd(g2, v)
                if g2 > 1:
                    merged = {r: v // g2 for r, v in merged.items()}
            col = merged
    return rank


def _ranks_from_levels(levels: list[list[int]], row: dict[int, int], field_tag: str) -> list[int]:
    """Reduced homology ranks (dims -1..top) of a complex given by its
    faces grouped by size: levels[s] lists the faces with s vertices, so
    levels[0] is [0], the empty face, and no level is empty.  `row`
    numbers the faces without repeats; over F2 it gives the bit positions."""
    top = len(levels) - 1
    # boundary_rank[s] = rank of the map from faces of size s to size s-1;
    # size-1 faces map onto the empty face (augmentation).  Column order
    # does not change an exact rank, so the levels stay unsorted.
    boundary_rank = [0] * (top + 2)
    boundary_rank[1] = 1 if top else 0
    for s in range(2, top + 1):
        if field_tag == GF2:
            cols_gf2 = []
            for f in levels[s]:
                mask = 0
                rest = f
                while rest:
                    low = rest & -rest
                    mask |= 1 << row[f ^ low]
                    rest ^= low
                cols_gf2.append(mask)
            boundary_rank[s] = _rank_gf2(cols_gf2)
        else:
            cols_q = []
            for f in levels[s]:
                col: dict[int, int] = {}
                sign = 1
                rest = f
                while rest:
                    low = rest & -rest
                    col[f ^ low] = sign
                    sign = -sign
                    rest ^= low
                cols_q.append(col)
            boundary_rank[s] = _rank_rational(cols_q)
    return [len(levels[s]) - boundary_rank[s] - boundary_rank[s + 1] for s in range(top + 1)]


def reduced_homology_ranks(K: SimplicialComplex, field_tag: str) -> list[int]:
    """Reduced homology ranks by dimension, starting at dimension -1.

    The empty complex {∅} yields [1]; any nonempty complex starts [0, ...].
    """
    _check_field(field_tag)
    levels = K.faces_by_size()
    row = {f: i for i, f in enumerate(chain.from_iterable(levels))}
    return _ranks_from_levels(levels, row, field_tag)


def is_homology_sphere(P: DualPolytope) -> bool:
    """True iff the complex and the link of every face have the reduced
    homology of a sphere of their dimension over Q and over F2.

    This is Stanley's Gorenstein* condition over each field (Stanley,
    Combinatorics and Commutative Algebra, ch. II); `validate_dual` alone
    admits pseudomanifolds such as the torus.  A link that fails
    `validate_dual` is not a sphere.
    """
    for face in chain.from_iterable(P.complex.faces_by_size()):
        try:
            L, _ = link(P, face)
        except PolytopeError:
            return False
        sphere = [0] * L.dim + [1]
        if any(reduced_homology_ranks(L.complex, f) != sphere for f in FIELDS):
            return False
    return True


# -- Hochster-type accumulation ------------------------------------------------


def _union_subsets(K: SimplicialComplex, faces: Container[int]) -> Iterator[tuple[int, list]]:
    """Yield (J, levels) for every union J of minimal non-faces of K, the
    empty union first; levels lists the faces of K inside J as
    `_ranks_from_levels` takes them.  `faces` holds the faces of K.

    A depth-first walk adds vertices in increasing order.  It carries the
    faces inside J forward and ORs in the minimal non-faces whose highest
    vertex is the one just added, so `cover` is the union of the minimal
    non-faces inside J.  A branch ends as soon as some vertex of J lies in
    no minimal non-face that fits inside J plus the vertices still to come.
    """
    m = K.vertex_count
    nonfaces = minimal_non_faces(K)
    by_top = [[N for N in nonfaces if N.bit_length() == v + 1] for v in range(m)]
    through = [[N for N in nonfaces if N >> v & 1] for v in range(m)]
    yield 0, [[0]]
    stack = [(0, [[0]], 0, 0)]
    while stack:
        J, levels, cover, start = stack.pop()
        for v in range(start, m):
            b = 1 << v
            Jv = J | b
            grown = cover
            for N in by_top[v]:
                if N & ~Jv == 0:
                    grown |= N
            # Vertices up to v are settled: outside Jv they never join it.
            settled = ((b << 1) - 1) & ~Jv
            rest = Jv & ~grown
            while rest:
                low = rest & -rest
                if not any(N & settled == 0 for N in through[low.bit_length() - 1]):
                    break
                rest ^= low
            if rest:
                continue
            # Faces through v of size s come from faces of size s-1; once a
            # size has no faces at all, no larger size has any.
            inside = [[0]]
            for s, below in enumerate(levels, start=1):
                level = levels[s] if s < len(levels) else []
                new = [g for f in below if (g := f | b) in faces]
                if new:
                    level = level + new
                elif not level:
                    break
                inside.append(level)
            if grown == Jv:
                yield Jv, inside
            stack.append((Jv, inside, grown, v + 1))


def hochster_betti(K: SimplicialComplex, space_kind: str, field_tag: str) -> BettiTable:
    """Betti table of the (real) moment-angle complex of K.

    Sums the Hochster terms over the full subcomplexes K_J for J a union
    of minimal non-faces of K, the empty union included.  Any other
    nonempty J has a vertex in no minimal non-face inside J, so K_J is a
    cone on that vertex and adds nothing over either field (Gasharov-
    Peeva-Welker 1999; Buchstaber-Panov, Toric Topology, ch. 3-4).
    """
    _check_field(field_tag)
    if space_kind not in SPACE_KINDS:
        raise ValidationError(f"space kind must be one of {SPACE_KINDS}")
    m = K.vertex_count
    if m > HOCHSTER_VERTEX_BUDGET:
        raise BudgetExceeded(
            f"{m} vertices means 2^{m} subcomplexes, budget is {HOCHSTER_VERTEX_BUDGET}"
        )
    return _hochster_cached(K, space_kind, field_tag)


@lru_cache(maxsize=4096)
def _hochster_cached(K: SimplicialComplex, space_kind: str, field_tag: str) -> BettiTable:
    row = {f: i for i, f in enumerate(chain.from_iterable(K.faces_by_size()))}
    table: dict[int, int] = {}
    for J, levels in _union_subsets(K, row):
        shift = J.bit_count() + 1 if space_kind == SPACE_Z else 1
        for d, r in enumerate(_ranks_from_levels(levels, row, field_tag), start=-1):
            if r:
                table[d + shift] = table.get(d + shift, 0) + r
    return BettiTable(
        space_kind=space_kind, field=field_tag, ranks=table, m=K.vertex_count, complex=K
    )


# -- verification reports -------------------------------------------------------


@dataclass(frozen=True)
class Lemma6Report:
    """Total and per-degree comparison of Z(K) against R(double of K)."""

    z_table: BettiTable
    r_table: BettiTable
    total_z: int
    total_r: int
    per_degree_equal: bool
    passed: bool


def verify_lemma6(K: SimplicialComplex, field_tag: str) -> Lemma6Report:
    """hrk of the moment-angle complex of K must equal hrk of the real
    moment-angle complex of the double, degree by degree."""
    if 2 * K.vertex_count > HOCHSTER_VERTEX_BUDGET:
        raise BudgetExceeded(
            f"{K.vertex_count} vertices doubles to {2 * K.vertex_count}, "
            f"budget is {HOCHSTER_VERTEX_BUDGET}"
        )
    z = hochster_betti(K, SPACE_Z, field_tag)
    r = hochster_betti(double_complex(K), SPACE_R, field_tag)
    per_degree = z.ranks == r.ranks
    total_z, total_r = hrk(z), hrk(r)
    return Lemma6Report(
        z_table=z,
        r_table=r,
        total_z=total_z,
        total_r=total_r,
        per_degree_equal=per_degree,
        passed=(total_z == total_r) and per_degree,
    )


@dataclass(frozen=True)
class TrcReport:
    """Lower bound 2^(m-n) against the total ranks of Z(K) and R(double)."""

    bound: int
    z_hrk: int
    r_double_hrk: int
    passed: bool
    z_margin: int = 0
    r_margin: int = 0


def verify_trc_bound(P: DualPolytope, field_tag: str) -> TrcReport:
    """Check hrk(Z) >= 2^(m-n) and hrk(R of the double) >= 2^(m-n)."""
    m, n = P.m, P.n
    if 2 * m > HOCHSTER_VERTEX_BUDGET:
        raise BudgetExceeded(f"m = {m} doubles to {2 * m}, budget is {HOCHSTER_VERTEX_BUDGET}")
    bound = 1 << (m - n)
    z = hrk(hochster_betti(P.complex, SPACE_Z, field_tag))
    r = hrk(hochster_betti(double_complex(P.complex), SPACE_R, field_tag))
    return TrcReport(
        bound=bound,
        z_hrk=z,
        r_double_hrk=r,
        passed=z >= bound and r >= bound,
        z_margin=z - bound,
        r_margin=r - bound,
    )


@dataclass(frozen=True)
class FacetSplitReport:
    """hrk(R of K) against 2^k * hrk(R of the link of one vertex)."""

    vertex: int
    disjoint_count: int
    lhs: int
    rhs: int
    passed: bool


def verify_facet_splitting(P: DualPolytope, v: int, field_tag: str) -> FacetSplitReport:
    """Splitting off one facet: the boundary of the halved manifold is the
    real moment-angle complex of the facet times a discrete factor of
    size 2^k, k the number of facets disjoint from facet v."""
    k = disjoint_facet_count(P, v)
    lhs = hrk(hochster_betti(P.complex, SPACE_R, field_tag))
    facet, _ = link(P, (v,))
    rhs = (1 << k) * hrk(hochster_betti(facet.complex, SPACE_R, field_tag))
    return FacetSplitReport(
        vertex=v, disjoint_count=k, lhs=lhs, rhs=rhs, passed=lhs >= rhs
    )
