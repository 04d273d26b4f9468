"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the repository root; it takes about four minutes.  It checks:

  * each workload, untraced and traced, prints exactly the metric names
    and units BENCHMARK.json lists, and no operation fails;
  * in the traced runs the layers' self times add up to the traced
    operation wall time (at most 2% of it falls outside every span);
  * a reference with one deliberately wrong answer makes the identities
    run report failed operations, so fail_ratio rises above 0.

Exits 1 and says why on the first check that does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import LAYERS  # noqa: E402


def run(workload: str, trace: int, reference: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "11", "--seconds", "1", "--trace", str(trace)]
    if reference is not None:
        argv += ["--reference", str(reference)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(reference: dict) -> dict:
    """Change one stored answer per workload."""
    wrong = json.loads(json.dumps(reference))
    for answers in wrong.values():
        key = sorted(answers)[0]
        answers[key] = {"corrupted": answers[key]}
    return wrong


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from perfbench/run.py")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                raise SystemExit(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(printed) ^ set(expected[trace]))}")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} --trace {trace}: {result['failed']} operations failed")
            if trace:
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
                wall = metrics["trace.op_wall_s"]
                if abs(layers + metrics["trace.unattributed_s"] - wall) > 1e-6 * wall:
                    raise SystemExit(f"{workload}: self times do not partition the op wall time")
                if wall - layers > 0.02 * wall:
                    raise SystemExit(f"{workload}: layers' self times {layers} miss more than "
                                     f"2% of the op wall time {wall}")
            print(f"ok: {workload} --trace {trace}")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wrong = ROOT / ".bench_work" / "corrupted-reference.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps(corrupt(reference)), encoding="utf-8")
    result = run("identities", 0, wrong)
    if result["correct"] or result["failed"] == 0:
        raise SystemExit("a corrupted reference answer did not fail any operation")
    print(f"ok: corrupted reference fails {result['failed']} of {result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
