"""Built-in polytope families and the spec expression grammar.

Spec expressions name polytopes for the command line and tests:

    point | simplex:n | cube:n | polygon:m
    | product(spec, spec) | double(spec)
    | file:PATH (complex file) | hrep:PATH (H-representation file)

Each entry carries the dual complex, the polytope dimension when known,
and an exact H-representation when one is constructible (simplices,
cubes, polygons up to 8 sides, products of those, hrep files).  Polygon
H-representations with 6 to 8 sides are corner cuts of the square
[0,4]^2; the pentagon is the standard rational one with vertices (0,0),
(2,0), (2,1), (1,2), (0,2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .complexes import (
    MAX_VERTICES,
    DualPolytope,
    SimplicialComplex,
    double_complex,
    join,
    validate_dual,
)
from .errors import ParseError, PolytopeError, ValidationError
from .fileio import load_complex_file, load_hrep_file
from .geometry import PolytopeSystem, dual_complex_from_hrep, validate_hrep
from .moment_angle import is_homology_sphere

MAX_SPEC_DEPTH = 8


@dataclass(frozen=True)
class CatalogEntry:
    """A named polytope: dual complex plus optional exact geometry."""

    name: str
    complex: SimplicialComplex
    dual: DualPolytope | None
    system: PolytopeSystem | None
    kind: str
    parts: tuple["CatalogEntry", ...] = ()

    @property
    def m(self) -> int:
        return self.complex.vertex_count

    def require_dual(self) -> DualPolytope:
        if self.dual is None:
            raise ValidationError(f"{self.name}: complex is not a valid polytope dual")
        return self.dual

    def require_system(self) -> PolytopeSystem:
        if self.system is None:
            raise ValidationError(f"{self.name}: no exact H-representation available")
        return self.system


# -- complex builders -----------------------------------------------------------


def point_complex() -> SimplicialComplex:
    return SimplicialComplex.point()


def simplex_complex(n: int) -> SimplicialComplex:
    """Dual of the n-simplex: all n-subsets of n+1 vertices."""
    if n == 0:
        return point_complex()
    full = (1 << (n + 1)) - 1
    return SimplicialComplex.from_masks(
        n + 1, [full ^ (1 << v) for v in range(n + 1)]
    )


def segment_complex() -> SimplicialComplex:
    return simplex_complex(1)


def cube_complex(n: int) -> SimplicialComplex:
    """Dual of the n-cube: the n-fold join of two-point complexes."""
    K = point_complex()
    for _ in range(n):
        K = join(K, segment_complex())
    return K


def polygon_complex(m: int) -> SimplicialComplex:
    """Dual of the m-gon: the cycle 1-2-...-m-1."""
    if m < 3:
        raise ValidationError(f"a polygon needs at least 3 sides, got {m}")
    edges = [(i, i % m + 1) for i in range(1, m + 1)]
    return SimplicialComplex.from_facets(m, edges)


# -- exact H-representations ------------------------------------------------------


def simplex_hrep(n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """x_i >= 0 and 1 - sum(x) >= 0."""
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    A.append([Fraction(-1)] * n)
    b = [Fraction(0)] * n + [Fraction(1)]
    return A, b


def cube_hrep(n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """x_i >= 0 and 1 - x_i >= 0."""
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    A += [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    b = [Fraction(0)] * n + [Fraction(1)] * n
    return A, b


_PENTAGON_A = [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]]
_PENTAGON_B = [0, 0, 2, 2, 3]

# Corner cuts of [0,4]^2, applied in this order for 6-, 7-, 8-gons.
_SQUARE4_A = [[1, 0], [0, 1], [-1, 0], [0, -1]]
_SQUARE4_B = [0, 0, 4, 4]
_CORNER_CUTS = [
    ([1, 1], -1),    # cuts (0,0):  x + y >= 1
    ([-1, -1], 7),   # cuts (4,4):  x + y <= 7
    ([-1, 1], 3),    # cuts (4,0):  y - x >= -3
    ([1, -1], 3),    # cuts (0,4):  x - y >= -3
]


def polygon_hrep(m: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rational m-gons for 3 <= m <= 8."""
    if m == 3:
        return simplex_hrep(2)
    if m == 4:
        return cube_hrep(2)
    if m == 5:
        A = [[Fraction(v) for v in row] for row in _PENTAGON_A]
        return A, [Fraction(v) for v in _PENTAGON_B]
    if 6 <= m <= 8:
        rows = [list(r) for r in _SQUARE4_A] + [
            list(cut) for cut, _ in _CORNER_CUTS[: m - 4]
        ]
        offs = list(_SQUARE4_B) + [off for _, off in _CORNER_CUTS[: m - 4]]
        return (
            [[Fraction(v) for v in row] for row in rows],
            [Fraction(v) for v in offs],
        )
    raise ValidationError(f"no built-in H-representation for a {m}-gon")


def block_diagonal(
    s1: tuple[list[list[Fraction]], list[Fraction]],
    s2: tuple[list[list[Fraction]], list[Fraction]],
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """H-representation of a product: stack the systems on disjoint variables."""
    A1, b1 = s1
    A2, b2 = s2
    n1 = len(A1[0]) if A1 else 0
    n2 = len(A2[0]) if A2 else 0
    rows = [row + [Fraction(0)] * n2 for row in A1]
    rows += [[Fraction(0)] * n1 + row for row in A2]
    return rows, list(b1) + list(b2)


# -- catalog entries -----------------------------------------------------------------


def _entry(
    name: str,
    complex: SimplicialComplex,
    n: int | None,
    system: PolytopeSystem | None,
    kind: str,
    parts: tuple[CatalogEntry, ...] = (),
) -> CatalogEntry:
    dual = None
    if n is not None:
        try:
            dual = validate_dual(complex, n)
        except PolytopeError:
            dual = None
    return CatalogEntry(
        name=name, complex=complex, dual=dual, system=system, kind=kind, parts=parts
    )


def point_entry() -> CatalogEntry:
    return _entry("point", point_complex(), 0, None, "point")


def simplex_entry(n: int) -> CatalogEntry:
    if n == 0:
        return point_entry()
    system = validate_hrep(*simplex_hrep(n))
    return _entry(f"simplex:{n}", simplex_complex(n), n, system, "simplex")


def cube_entry(n: int) -> CatalogEntry:
    if n == 0:
        return point_entry()
    system = validate_hrep(*cube_hrep(n))
    return _entry(f"cube:{n}", cube_complex(n), n, system, "cube")


def polygon_entry(m: int) -> CatalogEntry:
    system = validate_hrep(*polygon_hrep(m)) if m <= 8 else None
    return _entry(f"polygon:{m}", polygon_complex(m), 2, system, "polygon")


def product_entry(e1: CatalogEntry, e2: CatalogEntry) -> CatalogEntry:
    name = f"product({e1.name},{e2.name})"
    complex = join(e1.complex, e2.complex)
    n = None
    if e1.dual is not None and e2.dual is not None:
        n = e1.dual.dim + e2.dual.dim
    system = None
    if e1.system is not None and e2.system is not None:
        A1 = [list(r) for r in e1.system.A]
        A2 = [list(r) for r in e2.system.A]
        system = validate_hrep(
            *block_diagonal((A1, list(e1.system.b)), (A2, list(e2.system.b)))
        )
    elif e1.kind == "point":
        system = e2.system
    elif e2.kind == "point":
        system = e1.system
    return _entry(name, complex, n, system, "product", (e1, e2))


def double_entry(inner: CatalogEntry) -> CatalogEntry:
    name = f"double({inner.name})"
    complex = double_complex(inner.complex)
    n = None
    if inner.dual is not None:
        n = inner.m + inner.dual.dim
    return _entry(name, complex, n, None, "double", (inner,))


def file_entry(path: str) -> CatalogEntry:
    complex = load_complex_file(path)
    top = max(f.bit_count() for f in complex.maximal_faces)
    entry = _entry(f"file:{path}", complex, top, None, "file")
    # A file may hold any pseudomanifold.  Built specs skip this test:
    # join, double and link carry spheres to spheres.
    if entry.dual is not None and not is_homology_sphere(entry.dual):
        return replace(entry, dual=None)
    return entry


def hrep_entry(path: str) -> CatalogEntry:
    A, b = load_hrep_file(path)
    system = validate_hrep(A, b)
    dual = dual_complex_from_hrep(system)
    return CatalogEntry(
        name=f"hrep:{path}",
        complex=dual.complex,
        dual=dual,
        system=system,
        kind="hrep",
    )


# -- spec expression parser -------------------------------------------------------------


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(f"spec {self.text!r}: {message} (at offset {self.pos})")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # a superscript digit, or past the digit limit
            raise self.error(str(exc)) from exc

    def read_path(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",()":
            self.pos += 1
        path = self.text[start : self.pos].strip()
        if not path:
            raise self.error("expected a path")
        return path

    def read_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def parse(self, depth: int = 0) -> CatalogEntry:
        if depth > MAX_SPEC_DEPTH:
            raise self.error(f"nesting depth exceeds {MAX_SPEC_DEPTH}")
        word = self.read_word()
        if word == "point":
            return point_entry()
        if word in ("simplex", "cube", "polygon"):
            self.expect(":")
            value = self.read_int()
            if word == "polygon" and value < 3:
                raise self.error("polygon needs at least 3 sides")
            predicted = {"simplex": value + 1, "cube": 2 * value, "polygon": value}[word]
            if predicted > MAX_VERTICES:
                raise self.error(
                    f"{word}:{value} has {predicted} facets, limit {MAX_VERTICES}"
                )
            entry = {
                "simplex": simplex_entry,
                "cube": cube_entry,
                "polygon": polygon_entry,
            }[word](value)
        elif word == "product":
            self.expect("(")
            left = self.parse(depth + 1)
            self.expect(",")
            right = self.parse(depth + 1)
            self.expect(")")
            entry = product_entry(left, right)
        elif word == "double":
            self.expect("(")
            inner = self.parse(depth + 1)
            self.expect(")")
            entry = double_entry(inner)
        elif word == "file":
            self.expect(":")
            entry = file_entry(self.read_path())
        elif word == "hrep":
            self.expect(":")
            entry = hrep_entry(self.read_path())
        else:
            raise self.error(f"unknown form {word!r}")
        return entry


def parse_spec(text: str) -> CatalogEntry:
    """Parse and build a spec expression, validating budgets."""
    parser = _SpecParser(text)
    entry = parser.parse()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing characters")
    return entry


def built_in_catalog() -> list[CatalogEntry]:
    """The verification catalog: simplices, polygons, cubes, two products."""
    entries = [simplex_entry(n) for n in range(1, 6)]
    entries += [polygon_entry(m) for m in range(4, 9)]
    entries += [cube_entry(n) for n in range(1, 5)]
    entries.append(product_entry(polygon_entry(5), simplex_entry(1)))
    entries.append(product_entry(simplex_entry(2), simplex_entry(1)))
    return entries
