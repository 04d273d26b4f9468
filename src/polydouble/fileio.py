"""Text file formats: complexes and H-representations, both JSON objects.

Complex file:        {"vertices": 5, "facets": [[1, 2], [2, 3], ...]}
H-representation:    {"A": [["1/2", 0], ...], "b": [0, "3/2", ...]}

Rationals are JSON integers or "p" / "p/q" strings of ASCII digits with an
optional sign; whitespace between JSON tokens is free-form.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import SimplicialComplex
from .errors import ParseError, ValidationError

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """An int (not a bool), or a str "p" or "p/q" of ASCII digits with an
    optional sign.  Exponents, decimal points, whitespace, underscores and
    non-ASCII digits are refused: `Fraction` would accept "1e10000000" and
    spend seconds building its 10-million-digit numerator."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:  # past the digit limit, or q = 0
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def render_rational(value: Fraction) -> str:
    return str(value)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    # ValueError: a NUL in the path, or an integer past Python's digit
    # limit; RecursionError: arrays nested too deep for the decoder.
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def load_complex_file(path: str) -> SimplicialComplex:
    data = _load_json(path)
    if "vertices" not in data or "facets" not in data:
        raise ParseError(f"{path}: complex file needs 'vertices' and 'facets'")
    vertices = data["vertices"]
    facets = data["facets"]
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise ParseError(f"{path}: 'vertices' must be an integer")
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError(f"{path}: 'facets' must be an array of arrays")
    for facet in facets:
        if any(not isinstance(v, int) or isinstance(v, bool) for v in facet):
            raise ParseError(f"{path}: facet {facet} has a non-integer entry")
    try:
        return SimplicialComplex.from_facets(vertices, facets)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_hrep_file(path: str) -> tuple[list[list[Fraction]], list[Fraction]]:
    data = _load_json(path)
    if "A" not in data or "b" not in data:
        raise ParseError(f"{path}: H-representation file needs 'A' and 'b'")
    A = data["A"]
    b = data["b"]
    if not isinstance(A, list) or not all(isinstance(row, list) for row in A):
        raise ParseError(f"{path}: 'A' must be an array of arrays")
    if not isinstance(b, list):
        raise ParseError(f"{path}: 'b' must be an array")
    return (
        [[parse_rational(v) for v in row] for row in A],
        [parse_rational(v) for v in b],
    )
