"""Simplicial complexes on labeled vertices and the doubling construction.

A complex is stored by its maximal faces only (as bit masks over the
vertex set {1..m}).  Every other face comes from a downward closure by
size: the faces with s vertices are the maximal faces of that size plus
every face one vertex below the faces with s+1 vertices.
The dual complex of a simple n-dimensional polytope with m facets lives
here as a `DualPolytope`: a pure (n-1)-dimensional complex on the facet
labels that passes weak sphere checks (pseudomanifold plus connectivity).

The doubling rule: on the doubled vertex set {1..m, 1'..m'} (label i'
stored as m+i), a subset s is a face iff {i : i in s and i' in s} is a
face of the input.  Equivalently each minimal non-face {v1..vk} of the
input turns into the minimal non-face {v1, v1', ..., vk, vk'}.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

from .bitsets import iter_bits, mask_of, vertices_of
from .errors import (
    BudgetExceeded,
    Disconnected,
    NotAFace,
    NotPseudomanifold,
    NotPure,
    SizeMismatch,
    ValidationError,
)

MAX_VERTICES = 64

# Cap on maximal faces produced by double_complex and join.
_MAXIMAL_FACE_BUDGET = 1 << 22

# Cap on the faces faces_by_size may build, checked before each level so
# that a huge complex fails fast instead of exhausting memory.  The largest
# input in use, double(product(simplex:2,polygon:6)), has 168399 faces.
_FACE_BUDGET = 1 << 24


def _maximal(masks: set[int]) -> set[int]:
    """The inclusion-maximal members of a set of masks."""
    return {f for f in masks if not any(f != g and f & ~g == 0 for g in masks)}


def _relabel(masks: Iterable[int], new_bit: dict[int, int]) -> set[int]:
    """Carry bit v of every mask to bit new_bit[v]."""
    out = set()
    for f in masks:
        nf = 0
        for v in iter_bits(f):
            nf |= 1 << new_bit[v]
        out.add(nf)
    return out


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable complex given by vertex count and maximal face masks.

    The point complex (m = 0, maximal_faces = {0}) is admitted: it is the
    dual of the point polytope, the unit of the join, and the fixed point
    of doubling.
    """

    vertex_count: int
    maximal_faces: frozenset[int]

    @staticmethod
    def from_masks(vertex_count: int, masks: Iterable[int]) -> "SimplicialComplex":
        """Build from face masks, dropping faces contained in others."""
        if not 0 <= vertex_count <= MAX_VERTICES:
            raise ValidationError(
                f"vertex count must be between 0 and {MAX_VERTICES}, got {vertex_count}"
            )
        full = (1 << vertex_count) - 1
        cleaned = set()
        for mask in masks:
            if mask & ~full:
                raise ValidationError(f"face mask {mask:#x} uses vertices above {vertex_count}")
            cleaned.add(mask)
        if not cleaned:
            raise ValidationError("a complex needs at least one face (the point complex is {∅})")
        maximal = _maximal(cleaned)
        covered = 0
        for f in maximal:
            covered |= f
        if covered != full:
            missing = [v for v in range(1, vertex_count + 1) if not covered >> (v - 1) & 1]
            raise ValidationError(f"vertices {missing} appear in no maximal face")
        return SimplicialComplex(vertex_count, frozenset(maximal))

    @staticmethod
    def from_facets(vertex_count: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build from iterables of 1-based vertex labels."""
        masks = []
        for facet in facets:
            facet = list(facet)
            if len(set(facet)) != len(facet):
                raise ValidationError(f"facet {facet} repeats a vertex")
            if any(not 1 <= v <= vertex_count for v in facet):
                raise ValidationError(f"facet {facet} out of range 1..{vertex_count}")
            masks.append(mask_of(facet))
        return SimplicialComplex.from_masks(vertex_count, masks)

    @staticmethod
    def point() -> "SimplicialComplex":
        return SimplicialComplex(0, frozenset({0}))

    @property
    def dim(self) -> int:
        """Dimension: -1 for the point complex {∅}."""
        return max(f.bit_count() for f in self.maximal_faces) - 1

    def is_face(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.maximal_faces)

    def sorted_maximal(self) -> list[int]:
        return sorted(self.maximal_faces)

    def faces_by_size(self) -> list[list[int]]:
        """Every face grouped by size: levels[s] lists the faces with s
        vertices, levels[0] == [0], and no level is empty.

        Built top down: a level is the maximal faces of its size plus each
        face of the level above with one vertex removed.
        """
        top = self.dim + 1
        levels: list[list[int]] = [[] for _ in range(top + 1)]
        for f in self.maximal_faces:
            levels[f.bit_count()].append(f)
        total = len(levels[top])
        for s in range(top - 1, -1, -1):
            above = levels[s + 1]
            if total + len(levels[s]) + len(above) * (s + 1) > _FACE_BUDGET:
                raise BudgetExceeded(
                    f"complex may have more faces than the budget of {_FACE_BUDGET}"
                )
            level = set(levels[s])
            for f in above:
                rest = f
                while rest:
                    low = rest & -rest
                    level.add(f ^ low)
                    rest ^= low
            levels[s] = list(level)
            total += len(level)
        return levels

    def all_faces(self) -> set[int]:
        """Every face mask, the empty face included."""
        return set(chain.from_iterable(self.faces_by_size()))

    def facets_as_tuples(self) -> list[tuple[int, ...]]:
        return [vertices_of(f) for f in self.sorted_maximal()]


@dataclass(frozen=True)
class DualPolytope:
    """A complex validated as the dual of a simple n-polytope.

    `dim` is the polytope dimension n; the complex is pure of dimension
    n-1 on m = facet count vertices.  Face masks of the complex
    correspond to faces of the polytope of equal codimension; the empty
    mask corresponds to the polytope itself.
    """

    complex: SimplicialComplex
    dim: int

    @property
    def m(self) -> int:
        return self.complex.vertex_count

    @property
    def n(self) -> int:
        return self.dim


def validate_dual(complex: SimplicialComplex, n: int) -> DualPolytope:
    """Check purity, the pseudomanifold condition, and connectivity.

    These are the weak sphere proxies: full sphere recognition is not
    attempted.  n = 0 only admits the point complex.
    """
    if n < 0:
        raise ValidationError(f"dimension must be nonnegative, got {n}")
    if n == 0:
        if complex.vertex_count != 0:
            raise NotPure("only the point complex is a valid dual in dimension 0")
        return DualPolytope(complex, 0)
    maximal = complex.sorted_maximal()
    for f in maximal:
        if f.bit_count() != n:
            raise NotPure(
                f"maximal face {vertices_of(f)} has {f.bit_count()} vertices, expected {n}"
            )
    # Ridges: (n-2)-dimensional faces, i.e. n-1 vertices, each mapped to the
    # indices of the maximal faces containing it.  Each must lie in exactly
    # two maximal faces. For n = 1 the single ridge is the empty face.
    by_ridge: dict[int, list[int]] = {}
    for i, f in enumerate(maximal):
        for v in iter_bits(f):
            by_ridge.setdefault(f ^ (1 << v), []).append(i)
    if n == 1:
        if len(maximal) != 2:
            raise NotPseudomanifold(
                f"{len(maximal)} points cannot bound a segment, expected exactly 2"
            )
    else:
        for ridge, members in by_ridge.items():
            if len(members) != 2:
                raise NotPseudomanifold(
                    f"ridge {vertices_of(ridge)} lies in {len(members)} maximal faces, expected 2"
                )
    # Facet adjacency graph: maximal faces sharing a ridge.
    adjacency: list[list[int]] = [[] for _ in maximal]
    for members in by_ridge.values():
        for a in members:
            for b in members:
                if a != b:
                    adjacency[a].append(b)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(maximal):
        raise Disconnected(
            f"facet adjacency graph has {len(maximal) - len(seen)} unreachable maximal faces"
        )
    return DualPolytope(complex, n)


def f_counts(P: DualPolytope) -> list[int]:
    """Counts of i-dimensional faces of the complex, i = 0..n-1.

    Entry i counts the codimension-(i+1) faces of the polytope.
    """
    return [len(level) for level in P.complex.faces_by_size()[1:]]


def link(P: DualPolytope, sigma: int | Iterable[int]) -> tuple[DualPolytope, tuple[int, ...]]:
    """Link of a face, as the dual of the corresponding polytope face.

    Returns (link, labels): the link on consecutively relabeled vertices
    together with the original label of each new vertex, order
    preserving (new vertex i+1 had label labels[i]).
    """
    sigma_mask = sigma if isinstance(sigma, int) else mask_of(sigma)
    K = P.complex
    if not K.is_face(sigma_mask):
        raise NotAFace(f"{vertices_of(sigma_mask)} is not a face")
    raw = {f & ~sigma_mask for f in K.maximal_faces if sigma_mask & ~f == 0}
    ground = 0
    for f in raw:
        ground |= f
    labels = vertices_of(ground)
    relabeled = _relabel(raw, {v: i for i, v in enumerate(iter_bits(ground))})
    sub = SimplicialComplex.from_masks(len(labels), relabeled)
    return validate_dual(sub, P.dim - sigma_mask.bit_count()), labels


def double_complex(K: SimplicialComplex) -> SimplicialComplex:
    """The doubled complex on 2m vertices (i stays i, i' becomes m+i).

    Maximal faces: for each maximal face T of K take both copies of every
    vertex of T and one copy (either one) of every other vertex.  The
    result is an antichain because the T's are.
    """
    m = K.vertex_count
    if 2 * m > MAX_VERTICES:
        raise BudgetExceeded(f"doubling a complex on {m} vertices exceeds {MAX_VERTICES}")
    produced = sum(1 << (m - T.bit_count()) for T in K.maximal_faces)
    if produced > _MAXIMAL_FACE_BUDGET:
        raise BudgetExceeded(
            f"double would have {produced} maximal faces, budget {_MAXIMAL_FACE_BUDGET}"
        )
    out = set()
    for T in K.maximal_faces:
        base = T | (T << m)
        rest = [v for v in range(m) if not T >> v & 1]
        for choice in range(1 << len(rest)):
            face = base
            for j, v in enumerate(rest):
                face |= 1 << (v if choice >> j & 1 else v + m)
            out.add(face)
    return SimplicialComplex(2 * m, frozenset(out))


def doubled_face_rule(K: SimplicialComplex, mask: int) -> bool:
    """Direct membership test for faces of the double of K."""
    m = K.vertex_count
    pairs = mask & (mask >> m) & ((1 << m) - 1)
    return K.is_face(pairs)


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Join: faces are unions, with K2 vertices relabeled after K1's."""
    m1 = K1.vertex_count
    m = m1 + K2.vertex_count
    if m > MAX_VERTICES:
        raise BudgetExceeded(f"join on {m} vertices exceeds {MAX_VERTICES}")
    produced = len(K1.maximal_faces) * len(K2.maximal_faces)
    if produced > _MAXIMAL_FACE_BUDGET:
        raise BudgetExceeded(
            f"join would have {produced} maximal faces, budget {_MAXIMAL_FACE_BUDGET}"
        )
    faces = {f1 | (f2 << m1) for f1 in K1.maximal_faces for f2 in K2.maximal_faces}
    return SimplicialComplex(m, frozenset(faces))


def full_subcomplex(K: SimplicialComplex, J: int | Iterable[int]) -> SimplicialComplex:
    """Faces of K contained in J, relabeled consecutively along sorted J."""
    J_mask = J if isinstance(J, int) else mask_of(J)
    maximal = _maximal({f & J_mask for f in K.maximal_faces})
    relabeled = _relabel(maximal, {v: i for i, v in enumerate(iter_bits(J_mask))})
    return SimplicialComplex(J_mask.bit_count(), frozenset(relabeled))


def minimal_non_faces(K: SimplicialComplex) -> frozenset[int]:
    """Inclusion-minimal vertex sets that are not faces.

    Let N be a minimal non-face and v its highest vertex.  Then f = N - v
    is a face, and every vertex of f lies below v.  So each minimal
    non-face is a face f plus one vertex v above f's highest vertex, and
    such a candidate is one iff it is not a face and each of its subsets
    with one vertex fewer is; f = ∅ gives the non-faces of size 1.  Only
    levels s and s+1 of `faces_by_size` are held as sets at a time.  The
    face budget there bounds this job too: at most faces × m set lookups.
    """
    m = K.vertex_count
    levels = K.faces_by_size() + [[]]
    found = []
    here = {0}
    for s in range(len(levels) - 1):
        above = set(levels[s + 1])
        for f in levels[s]:
            for v in range(f.bit_length(), m):
                N = f | 1 << v
                if N not in above and all(N ^ 1 << u in here for u in iter_bits(f)):
                    found.append(N)
        here = above
    return frozenset(found)


def disjoint_facet_count(P: DualPolytope, i: int) -> int:
    """Number of facets of the polytope meeting facet i in nothing.

    In the dual complex: vertices j != i with {i, j} not an edge.
    """
    K = P.complex
    if not 1 <= i <= K.vertex_count:
        raise ValidationError(f"vertex {i} out of range 1..{K.vertex_count}")
    bit = 1 << (i - 1)
    count = 0
    for j in range(K.vertex_count):
        other = 1 << j
        if other != bit and not K.is_face(bit | other):
            count += 1
    return count


def equal_under_relabel(
    K1: SimplicialComplex, K2: SimplicialComplex, mapping: dict[int, int]
) -> bool:
    """True iff `mapping` carries the maximal faces of K1 exactly onto K2's."""
    m = K1.vertex_count
    if K2.vertex_count != m:
        raise SizeMismatch(f"vertex counts differ: {m} vs {K2.vertex_count}")
    if sorted(mapping) != list(range(1, m + 1)) or sorted(mapping.values()) != list(
        range(1, m + 1)
    ):
        raise SizeMismatch("mapping is not a bijection of {1..m}")
    image = _relabel(K1.maximal_faces, {v - 1: w - 1 for v, w in mapping.items()})
    return image == K2.maximal_faces
