"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED REFERENCE OUT --mode run|setup|trace

Run from the repository root with `src` on PYTHONPATH (perfbench/run.py
does this).  The pass imports polydouble, builds its inputs from the
seed, times each operation, then checks every answer against the
reference and writes one JSON object to OUT.  `setup` stops when the
first operation would start; `trace` records spans of every layer.
Set-up ends at `ready_at`, read from the system-wide monotonic clock so
that the parent can subtract its launch time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".bench_work")

# Span names whose arguments the traced pass keeps, to measure input properties.
CAPTURE = ("moment_angle.hochster_betti", "geometry.enumerate_slice_vertices")

# Machine speed drifts by +-25% over tens of seconds on shared hosts, for
# every process alike.  A fixed pure-Python unit of work, run between
# operations at least every CALIBRATE_EVERY_S, measures that drift; each
# latency is scaled by REFERENCE_UNIT_S over the median unit time within
# WINDOW_S of the operation.  Times are thus in seconds at the speed where
# the unit takes REFERENCE_UNIT_S (its median on the 2-vCPU Linux host,
# Python 3.11, on which the benchmark was defined).
CALIBRATE_EVERY_S = 0.2
WINDOW_S = 1.5
# Units run right after set-up; their median scales the set-up time.
SETUP_UNITS = 3
REFERENCE_UNIT_S = 0.0150


def calibration_unit() -> int:
    """Fixed work in the mix polydouble does: int and bit arithmetic, dict
    and set traffic over a working set of some hundred kilobytes, sorting,
    and Fraction arithmetic."""
    acc = 0
    seen: dict[int, int] = {}
    for i in range(14000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        seen[acc & 1023] = i
        if acc >> 21 in seen:
            acc ^= i
    keys = [(i * 2654435761) & 0xFFFFFF for i in range(12000)]
    members = set(keys)
    index = {k: i for i, k in enumerate(keys)}
    for k in keys:
        if k ^ 1 in members:
            acc += index[k]
    keys.sort()
    f = Fraction(0)
    for i in range(1, 300):
        f = (f + Fraction(i, 7)) * Fraction(3, i + 2)
    return acc + f.numerator


def speed_factors(intervals: list[tuple[float, float]], units: list[tuple[float, float]]) -> list[float]:
    """REFERENCE_UNIT_S over the median unit time near each interval.

    `units` holds (midpoint, duration) of calibration units; an interval
    uses those within WINDOW_S of it, or the three nearest.
    """
    factors = []
    for start, end in intervals:
        near = [d for t, d in units if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < 3:
            near = [d for _, d in sorted(units, key=lambda u: abs(u[0] - (start + end) / 2))[:3]]
        factors.append(REFERENCE_UNIT_S / statistics.median(near))
    return factors


def union_subsets(K, minimal_non_faces) -> int:
    """Subsets J of the vertices that are unions of minimal non-faces of K.

    cover[J] is the union of the minimal non-faces inside J; any such face
    other than J itself misses some vertex of J, so it lies in J minus one
    vertex.  The empty set is the empty union.
    """
    nonfaces = set(minimal_non_faces(K))
    cover = [0] * (1 << K.vertex_count)
    count = 1
    for J in range(1, len(cover)):
        union = J if J in nonfaces else 0
        rest = J
        while rest:
            low = rest & -rest
            union |= cover[J ^ low]
            rest ^= low
        cover[J] = union
        count += union == J
    return count


def input_properties(captured: dict[str, list[tuple]]) -> dict[str, int]:
    """Work the traced pass asked of the sweep and the slice enumeration.

    Counted over distinct Hochster inputs (the cache serves repeats) and
    over every enumerate_slice_vertices call (it has no cache).
    """
    from polydouble.complexes import minimal_non_faces

    inputs = {args[:3] for args in captured["moment_angle.hochster_betti"]}
    props = {
        "moment_angle.subsets": 0,
        "moment_angle.union_subsets": 0,
        "moment_angle.faces_swept": 0,
        "geometry.square_solves": 0,
    }
    unions: dict = {}
    for K, _space, _field in inputs:
        m = K.vertex_count
        if K not in unions:
            unions[K] = union_subsets(K, minimal_non_faces)
        props["moment_angle.subsets"] += 1 << m
        props["moment_angle.union_subsets"] += unions[K]
        props["moment_angle.faces_swept"] += sum(1 << (m - f.bit_count()) for f in K.all_faces() if f)
    for (L,) in captured["geometry.enumerate_slice_vertices"]:
        props["geometry.square_solves"] += comb(L.cols, L.rows)
    return props


def check_answers(ops, outputs, reference: dict) -> list[str | None]:
    """Failure reason per op, or None: raised, FAIL verdict or nonzero
    exit, answer differing from the reference, or equal to the answer of
    an op it must differ from."""
    reasons: list[str | None] = []
    answers = []
    for op, (output, error) in zip(ops, outputs):
        answer = None
        if error is None:
            try:
                answer, ok = op.answer(output)
            except (ValueError, KeyError, AttributeError) as exc:
                error, ok = f"unreadable output: {exc!r}", False
            if error is None and not ok:
                error = f"FAIL verdict or nonzero exit: {answer}"
            elif error is None and op.key not in reference:
                error = "no reference answer"
            elif error is None and answer != reference[op.key]:
                error = f"answer differs from reference: {answer}"
        reasons.append(error)
        answers.append(answer)
    groups: dict[str, list[int]] = {}
    for index, op in enumerate(ops):
        if op.distinct:
            groups.setdefault(op.distinct, []).append(index)
    for members in groups.values():
        for a in members:
            if any(b != a and answers[a] == answers[b] for b in members):
                reasons[a] = reasons[a] or "answer equals one it must differ from"
    return reasons


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("reference")
    parser.add_argument("out")
    parser.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    args = parser.parse_args()

    import polydouble

    if Path(polydouble.__file__).resolve().parent != ROOT / "src" / "polydouble":
        raise SystemExit(f"imported polydouble from {polydouble.__file__}, not from this checkout")
    import workloads

    ops = workloads.build(args.workload, args.seed, WORK_DIR)
    result: dict = {"ops": len(ops), "ready_at": time.monotonic()}
    clock = time.perf_counter
    units: list[tuple[float, float]] = []

    def calibrate() -> None:
        start = clock()
        calibration_unit()
        end = clock()
        units.append(((start + end) / 2, end - start))

    for _ in range(SETUP_UNITS):
        calibrate()
    result["setup_factor"] = REFERENCE_UNIT_S / statistics.median(d for _, d in units)
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer(capture=CAPTURE)
        tracer.install()
    outputs = []
    intervals = []
    for op in ops:
        if clock() - units[-1][0] >= CALIBRATE_EVERY_S:
            calibrate()
        start = clock()
        try:
            outputs.append((op.call(), None))
        except Exception:
            outputs.append((None, traceback.format_exc(limit=3)))
        intervals.append((start, clock()))
    calibrate()
    factors = speed_factors(intervals, units)
    raw = [end - start for start, end in intervals]
    result["latencies"] = [f * s for f, s in zip(factors, raw)]
    result["raw_wall_s"] = sum(raw)
    result["wall_s"] = sum(result["latencies"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["properties"] = input_properties(tracer.captured)
        tracer.write(WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))[args.workload]
    reasons = check_answers(ops, outputs, reference)
    result["failures"] = [
        {"op": op.key, "reason": reason} for op, reason in zip(ops, reasons) if reason
    ]
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
