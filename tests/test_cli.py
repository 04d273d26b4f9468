import json
import time

import pytest

from polydouble.cli import _emit_results, main
from polydouble.complexes import SimplicialComplex
from polydouble.verify import CheckResult

DESCRIBE_PENTAGON = """\
spec: polygon:5
m: 5
n: 2
f: [5, 5]
f_polynomial: a^2 + 5*a*t + 5*t^2
h_polynomial: a^2 + 3*a*t + t^2
minimal_non_faces: 5
"""

THEOREM3_PENTAGON_JSONL = (
    '{"check": "theorem3", "input": "polygon:5", '
    '"lhs": "a^7 + 3*a^6*t + 6*a^5*t^2 + 10*a^4*t^3 + 10*a^3*t^4 + 6*a^2*t^5 + 3*a*t^6 + t^7", '
    '"rhs": "a^7 + 3*a^6*t + 6*a^5*t^2 + 10*a^4*t^3 + 10*a^3*t^4 + 6*a^2*t^5 + 3*a*t^6 + t^7", '
    '"pass": true}'
)


class TestDescribe:
    def test_pentagon_golden(self, capsys):
        assert main(["describe", "polygon:5"]) == 0
        assert capsys.readouterr().out == DESCRIBE_PENTAGON

    def test_point(self, capsys):
        assert main(["describe", "point"]) == 0
        out = capsys.readouterr().out
        assert "m: 0" in out and "n: 0" in out and "h_polynomial: 1" in out

    def test_double_segment(self, capsys):
        assert main(["describe", "double(simplex:1)"]) == 0
        out = capsys.readouterr().out
        assert "m: 4" in out and "n: 3" in out

    @pytest.mark.parametrize(
        "spec, count",
        [
            ("double(polygon:6)", 9),
            ("double(simplex:5)", 1),
            ("double(product(polygon:5,simplex:1))", 6),
        ],
    )
    def test_double_minimal_non_faces(self, capsys, spec, count):
        assert main(["describe", spec]) == 0
        assert f"\nminimal_non_faces: {count}\n" in capsys.readouterr().out

    def test_two_face_enumerations(self, capsys, monkeypatch):
        # f, f_polynomial and h_polynomial share one enumeration, and
        # minimal_non_faces makes the other.
        calls = []
        levels = SimplicialComplex.faces_by_size
        monkeypatch.setattr(SimplicialComplex, "faces_by_size",
                            lambda K: calls.append(K) or levels(K))
        assert main(["describe", "double(cube:2)"]) == 0
        assert len(calls) == 2
        assert "f: [8, 28, 56, 68, 48, 16]\n" in capsys.readouterr().out

    def test_parse_error_exit_2(self, capsys):
        assert main(["describe", "polygon:2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_theorem3_jsonl_golden(self, capsys):
        assert main(["verify", "theorem3", "polygon:5", "--format", "jsonl"]) == 0
        assert capsys.readouterr().out.strip() == THEOREM3_PENTAGON_JSONL

    def test_lemma6_text(self, capsys):
        assert main(["verify", "lemma6", "polygon:5"]) == 0
        out = capsys.readouterr().out
        assert "lemma6 polygon:5: PASS" in out
        assert "lhs: 12" in out and "rhs: 12" in out

    def test_trc_square(self, capsys):
        assert main(["verify", "trc", "cube:2"]) == 0
        out = capsys.readouterr().out
        assert "trc cube:2 [Z]: PASS" in out
        assert "trc cube:2 [R(double)]: PASS" in out

    def test_productdouble_needs_product(self, capsys):
        assert main(["verify", "productdouble", "polygon:5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_geomdouble_needs_hrep(self, capsys):
        assert main(["verify", "geomdouble", "double(simplex:1)"]) == 2

    def test_budget_exit_2(self, capsys):
        assert main(["verify", "lemma6", "polygon:12"]) == 2
        assert "error:" in capsys.readouterr().err
        # 2^31 faces: refused before the enumeration, not killed for memory.
        assert main(["describe", "simplex:30"]) == 2
        assert "faces" in capsys.readouterr().err
        # C(32, 12) column bases: refused before the first solve.
        assert main(["verify", "geomdouble", "product(polygon:8,polygon:8)"]) == 2
        assert "bases" in capsys.readouterr().err

    def test_largest_admitted_slice(self, capsys):
        # The doubled slice has C(22, 7) = 170544 column bases, the most
        # the basis budget admits among the inputs in use.
        start = time.monotonic()
        assert main(["verify", "geomdouble", "product(polygon:5,polygon:6)"]) == 0
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert out.startswith("geomdouble product(polygon:5,polygon:6): PASS\n")
        assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"

    def test_missing_spec_for_single_check(self, capsys):
        assert main(["verify", "theorem3"]) == 2

    def test_all_on_one_spec(self, capsys):
        assert main(["verify", "all", "cube:2"]) == 0
        out = capsys.readouterr().out
        for name in ("theorem3", "lemma2", "operator", "dring", "geomdouble",
                     "facetsplit", "lemma6", "trc"):
            assert name in out
        assert "FAIL" not in out

    def test_jsonl_schema(self, capsys):
        assert main(["verify", "all", "simplex:1", "--format", "jsonl"]) == 0
        for line in capsys.readouterr().out.splitlines():
            record = json.loads(line)
            assert list(record) == ["check", "input", "lhs", "rhs", "pass"]
            assert record["pass"] is True

    def test_field_flag(self, capsys):
        assert main(["verify", "lemma6", "polygon:4", "--field", "F2"]) == 0

    def test_no_results_is_an_error(self, capsys):
        # The point has no facets to split off; that must not read as a pass.
        assert main(["verify", "facetsplit", "point"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "facetsplit" in captured.err and "point" in captured.err


def test_non_utf8_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    for spec in (f"hrep:{path}", f"file:{path}"):
        assert main(["describe", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestNotASphere:
    """The 7-vertex torus passes the weak dual checks but is no sphere."""

    def test_describe_exit_2(self, capsys, torus7_complex_path):
        assert main(["describe", f"file:{torus7_complex_path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_theorem3_exit_2(self, capsys, torus7_complex_path):
        assert main(["verify", "theorem3", f"file:{torus7_complex_path}"]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_betti_still_accepts_it(self, capsys, torus7_complex_path):
        assert main(["betti", f"file:{torus7_complex_path}", "--space", "Z"]) == 0
        assert capsys.readouterr().out.endswith("hrk: 130\n")


class TestBetti:
    def test_pentagon_z_golden(self, capsys):
        assert main(["betti", "polygon:5", "--space", "Z"]) == 0
        assert capsys.readouterr().out == "0: 1\n3: 5\n4: 5\n7: 1\nhrk: 12\n"

    def test_pentagon_r_f2(self, capsys):
        assert main(["betti", "polygon:5", "--space", "R", "--field", "F2"]) == 0
        assert capsys.readouterr().out == "0: 1\n1: 10\n2: 1\nhrk: 12\n"

    def test_segment_z(self, capsys):
        assert main(["betti", "simplex:1", "--space", "Z"]) == 0
        assert capsys.readouterr().out == "0: 1\n3: 1\nhrk: 2\n"

    def test_jsonl(self, capsys):
        assert main(["betti", "simplex:1", "--space", "Z", "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "space": "Z", "field": "Q", "m": 2,
            "ranks": {"0": 1, "3": 1}, "hrk": 2,
        }

    def test_budget(self, capsys):
        assert main(["betti", "polygon:21", "--space", "Z"]) == 2

    def test_works_on_arbitrary_complexes(self, capsys, tmp_path):
        # A non-polytopal complex (two triangles glued along an edge).
        path = tmp_path / "k.json"
        path.write_text('{"vertices": 4, "facets": [[1, 2, 3], [2, 3, 4]]}')
        assert main(["betti", f"file:{path}", "--space", "Z"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("hrk: 2\n")


class TestVertices:
    def test_pentagon_golden(self, capsys, pentagon_hrep_path):
        assert main(["vertices", f"hrep:{pentagon_hrep_path}"]) == 0
        assert capsys.readouterr().out == "0 0\n0 2\n1 2\n2 0\n2 1\n"

    def test_fractional_coordinates(self, capsys, tmp_path):
        path = tmp_path / "seg.json"
        path.write_text('{"A": [[2], [-2]], "b": [1, 1]}')
        assert main(["vertices", f"hrep:{path}"]) == 0
        assert capsys.readouterr().out == "-1/2\n1/2\n"

    def test_needs_hrep(self, capsys):
        assert main(["vertices", "double(simplex:1)"]) == 2


def test_exit_code_1_on_failing_results(capsys):
    results = [
        CheckResult("demo", "x", "1", "2", False),
        CheckResult("demo", "y", "1", "1", True),
    ]
    assert _emit_results(results, "text") == 1
    out = capsys.readouterr().out
    assert "demo x: FAIL" in out and "demo y: PASS" in out
