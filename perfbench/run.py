"""The polydouble benchmark: one command runs any workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--reference PATH]

Run from the root of a checkout.  Every pass over a workload runs in a
fresh interpreter (perfbench/worker.py), one child process at a time,
because every `poly` call is a fresh process and because the caches on
hochster_betti and enumerate_vertices must not carry results across
passes.  Within a pass the caches behave as in `poly verify all`.

--trace 0 times passes with tracing off until --seconds is spent (at
least enough passes for the tail percentile) and prints the end-to-end
metrics.  --trace 1 runs one untraced and one traced pass and prints the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_catalog", "betti_sweep", "identities")

# Tail percentile per workload: the highest of p75, p90, p95 that leaves at
# least 10 samples beyond it in a 30-second run (1 pass of verify_catalog,
# 3-4 of the others).  Shorter runs still make enough passes for that.
TAIL = {"verify_catalog": 0.90, "betti_sweep": 0.75, "identities": 0.75}
SETUP_PROBES = 5
PASS_TIMEOUT_S = 150

REPORTED_FUNCTIONS = (
    "moment_angle.hochster_betti",
    "complexes.all_faces",
    "complexes.link",
    "complexes.validate_dual",
    "complexes.double_complex",
    "bipoly.h_polynomial",
    "bipoly.face_sum_lemma2",
    "polytope_ring.boundary_d",
    "geometry.validate_hrep",
    "geometry.recession_cone_is_trivial",
    "geometry.enumerate_slice_vertices",
    "geometry.derive_linear_slice",
    "catalog.parse_spec",
    "fileio.load_hrep_file",
    "verify.run_check",
    "cli.main",
)
PROPERTIES = (
    "moment_angle.subsets",
    "moment_angle.union_subsets",
    "moment_angle.faces_swept",
    "geometry.square_solves",
)


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, reference: Path, mode: str) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        out = Path(tmp) / "pass.json"
        argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
                str(reference), str(out), "--mode", mode]
        launched = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = (result["ready_at"] - launched) * result["setup_factor"]
    return result


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by the Beta(q(n+1), (1-q)(n+1))
    density over each one's share of [0, 1].  It moves less from run to
    run than the one or two order statistics of the usual estimate.  The
    weights are integrated by the midpoint rule and renormalised.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log(1 - x) - log_beta)
                           for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, reference: Path) -> tuple[list[dict], dict]:
    setups = [run_pass(workload, seed, reference, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    tail = TAIL[workload]
    passes: list[dict] = []
    started = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, reference, "run"))
        elapsed = time.monotonic() - started
        min_passes = math.ceil(10 / ((1 - tail) * passes[0]["ops"]))
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    latencies = [s for p in passes for s in p["latencies"]]
    setups += [p["setup_s"] for p in passes]
    beyond = sum(1 for s in latencies if s > percentile(latencies, tail))
    print(f"{workload} seed {seed}: {len(passes)} passes, {len(latencies)} ops, "
          f"op_s.tail is p{tail * 100:g} with {beyond} samples beyond it, "
          f"setup_s from {len(setups)} start-ups, unscaled wall_s "
          f"{statistics.median(p['raw_wall_s'] for p in passes):.4f}")
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "op_s.p50": metric(percentile(latencies, 0.5), "s"),
        "op_s.tail": metric(percentile(latencies, tail), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    return passes, metrics


def traced_run(workload: str, seed: int, reference: Path) -> tuple[list[dict], dict]:
    plain = run_pass(workload, seed, reference, "run")
    traced = run_pass(workload, seed, reference, "trace")
    trace = traced["trace"]
    functions = trace["functions"]
    op_wall = traced["raw_wall_s"]
    unattributed = op_wall - trace["root_s"]
    print(f"{workload} seed {seed}: {trace['spans']} spans, "
          f"{trace['negative_self_spans']} with negative self time")
    metrics = {}
    for name in REPORTED_FUNCTIONS:
        stats = functions[name]
        metrics[f"{name}.calls"] = metric(stats["calls"], "count")
        metrics[f"{name}.self_s"] = metric(stats["self_s"], "s")
    for layer in LAYERS:
        self_s = sum(s["self_s"] for n, s in functions.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.share"] = metric(self_s / op_wall, "ratio")
    for name in PROPERTIES:
        metrics[name] = metric(traced["properties"][name], "count")
    metrics["trace.op_wall_s"] = metric(op_wall, "s")
    metrics["trace.unattributed_s"] = metric(unattributed, "s")
    metrics["trace_overhead_ratio"] = metric(traced["wall_s"] / plain["wall_s"], "ratio")
    if trace["negative_self_spans"] or unattributed < 0:
        raise PassFailed("traced spans do not nest inside their parents and operations")
    return [plain, traced], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args()

    if not (SRC / "polydouble" / "__init__.py").is_file():
        print(f"error: no polydouble sources under {SRC}", file=sys.stderr)
        return 2
    # Users do not pay bytecode compilation on every call; do it once, untimed.
    for directory in (SRC / "polydouble", HERE):
        compileall.compile_dir(directory, quiet=1)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed, args.reference.resolve())
        else:
            passes, metrics = timed_run(args.workload, args.seed, args.seconds,
                                        args.reference.resolve())
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures[:10]:
        print(f"FAILED {failure['op']}: {failure['reason'][:300]}")
    print(f"fail_ratio {len(failures) / attempted:g} ({len(failures)} of {attempted} operations)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
