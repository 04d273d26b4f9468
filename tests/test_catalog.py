import json
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydouble import geometry
from polydouble.catalog import (
    built_in_catalog,
    parse_spec,
    polygon_complex,
)
from polydouble.errors import ParseError, PolytopeError, ValidationError
from polydouble.fileio import load_complex_file, load_hrep_file, parse_rational


class TestParseSpec:
    def test_point(self):
        entry = parse_spec("point")
        assert entry.m == 0 and entry.dual.dim == 0

    def test_simplex(self):
        entry = parse_spec("simplex:3")
        assert entry.m == 4 and entry.dual.dim == 3
        assert entry.system is not None

    def test_cube(self):
        entry = parse_spec("cube:2")
        assert entry.m == 4 and entry.dual.dim == 2

    def test_polygon(self):
        entry = parse_spec("polygon:7")
        assert entry.complex == polygon_complex(7)

    def test_product(self):
        entry = parse_spec("product(polygon:5, simplex:1)")
        assert entry.m == 7 and entry.dual.dim == 3
        assert entry.system is not None

    def test_double(self):
        entry = parse_spec("double(simplex:1)")
        assert entry.m == 4 and entry.dual.dim == 3
        assert entry.system is None

    def test_nested(self):
        entry = parse_spec("double(product(simplex:1, simplex:1))")
        assert entry.m == 8 and entry.dual.dim == 6

    def test_file(self, c5_complex_path):
        entry = parse_spec(f"file:{c5_complex_path}")
        assert entry.complex == polygon_complex(5)
        assert entry.dual is not None and entry.dual.dim == 2

    def test_file_that_is_not_a_sphere(self, torus7_complex_path):
        entry = parse_spec(f"file:{torus7_complex_path}")
        assert entry.dual is None
        assert len(entry.complex.maximal_faces) == 14
        with pytest.raises(ValidationError):
            entry.require_dual()

    def test_hrep(self, pentagon_hrep_path):
        entry = parse_spec(f"hrep:{pentagon_hrep_path}")
        assert entry.m == 5 and entry.dual.dim == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "polygon:2",
            "simplex",
            "gadget:3",
            "product(simplex:1)",
            "double(simplex:1",
            "point extra",
            "polygon:70",
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_spec(bad)

    def test_depth_limit(self):
        spec = "double(" * 9 + "point" + ")" * 9
        with pytest.raises(ParseError):
            parse_spec(spec)

    def test_vertex_budget(self):
        with pytest.raises(PolytopeError):
            parse_spec("double(double(double(double(simplex:4))))")

    def test_face_count_budget(self):
        with pytest.raises(PolytopeError):
            parse_spec("double(double(polygon:12))")

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_spec("file:/nonexistent/path.json")


class TestFileFormats:
    def test_duplicate_vertex_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 3, "facets": [[1, 1], [2, 3]]}')
        with pytest.raises(ValidationError):
            parse_spec(f"file:{path}")

    def test_rational_strings(self, tmp_path):
        path = tmp_path / "seg.json"
        path.write_text('{"A": [["1/1"], ["-2/2"]], "b": [0, "1/2"]}')
        entry = parse_spec(f"hrep:{path}")
        assert entry.m == 2 and entry.dual.dim == 1

    def test_bad_rational(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [["x"], [-1]], "b": [0, 1]}')
        with pytest.raises(ParseError):
            parse_spec(f"hrep:{path}")

    @pytest.mark.parametrize(
        "text",
        ["1e10000000", "1.5", " 1/2", "\u0661", "1/0", "1" * 5000],
        ids=["exponent", "decimal", "space", "arabic-indic", "zero-q", "5000-digits"],
    )
    def test_rational_outside_the_documented_forms(self, text):
        # "1e10000000" alone took 14.7 s when strings went straight to Fraction.
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_rational(text)
        assert time.perf_counter() - start < 1.0

    def test_rational_forms(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("+7") == 7
        assert parse_rational(12) == 12
        with pytest.raises(ParseError):
            parse_rational(True)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("vertices: 3")
        with pytest.raises(ParseError):
            parse_spec(f"file:{path}")


# Specs one combinator deep over leaves with integers <= 6, some of them
# malformed.  Paths use letters only, so they name no file.
_LEAVES = st.one_of(
    st.just("point"),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["simplex", "cube", "polygon"]),
        st.integers(0, 6),
    ),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["file", "hrep"]),
        st.text("abc", max_size=3),
    ),
    st.text(max_size=6),
)
_SPECS = st.one_of(
    _LEAVES,
    st.builds("double({})".format, _LEAVES),
    st.builds("product({},{})".format, _LEAVES, _LEAVES),
    st.builds("{}{}".format, _LEAVES, st.sampled_from(["(", ")", ",", ":", " "])),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["1/2", "-3", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
_OBJECTS = st.dictionaries(
    st.sampled_from(["A", "b", "vertices", "facets", "x"]), _JSON, max_size=4
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


class TestParserFuzz:
    """Only PolytopeError escapes the spec parser and the file loaders."""

    @settings(max_examples=150, deadline=None)
    @given(spec=_SPECS)
    @example(spec="simplex:\u00b2")
    @example(spec="simplex:" + "9" * 5000)
    @example(spec="file:a\x00b")
    def test_parse_spec(self, spec):
        # A small basis budget keeps products such as
        # product(cube:5,cube:5) from enumerating C(20, 10) bases.
        with mock.patch.object(geometry, "_BASIS_BUDGET", 1 << 10):
            try:
                parse_spec(spec)
            except PolytopeError:
                pass

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(st.binary(max_size=48), _OBJECTS.map(
        lambda obj: json.dumps(obj).encode())))
    @example(data=b"\xff\xfe{}")
    @example(data=b"[" * 100_000 + b"]" * 100_000)
    @example(data=b'{"A": [[' + b"1" * 5000 + b']], "b": [1]}')
    def test_file_loaders(self, fuzz_path, data):
        fuzz_path.write_bytes(data)
        for load in (load_complex_file, load_hrep_file):
            try:
                load(str(fuzz_path))
            except PolytopeError:
                pass


def test_built_in_catalog_members():
    names = [entry.name for entry in built_in_catalog()]
    assert names == [
        "simplex:1", "simplex:2", "simplex:3", "simplex:4", "simplex:5",
        "polygon:4", "polygon:5", "polygon:6", "polygon:7", "polygon:8",
        "cube:1", "cube:2", "cube:3", "cube:4",
        "product(polygon:5,simplex:1)",
        "product(simplex:2,simplex:1)",
    ]


def test_catalog_entries_have_duals_and_systems(catalog):
    for entry in catalog:
        assert entry.dual is not None
        assert entry.system is not None
        assert entry.system.m == entry.m
