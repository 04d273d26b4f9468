"""Recompute perfbench/reference.json from the unrelabeled inputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root.  Only rerun it when a change is meant to
alter an output, and say why in CHANGES.md: the benchmark counts every
answer that differs from this file as a failed operation.  The script
refuses to write a reference that holds a FAIL verdict, a nonzero exit,
RP^2 tables that agree over Q and F2, or a catalog check list that
differs from what run_all makes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import workloads
from run import WORKLOADS
from polydouble.catalog import built_in_catalog
from polydouble.moment_angle import RATIONALS
from polydouble.verify import run_all

OUT = Path(__file__).resolve().parent / "reference.json"


def check_pinned_catalog() -> None:
    entries = built_in_catalog()
    if [(e.name, e.m) for e in entries] != list(workloads.CATALOG):
        raise SystemExit("workloads.CATALOG no longer matches built_in_catalog()")
    for entry in entries:
        made = list(dict.fromkeys(r.check for r in run_all(entry, RATIONALS)))
        pinned = workloads.catalog_checks(entry.name, entry.m, RATIONALS)
        if made != pinned:
            raise SystemExit(f"{entry.name}: run_all makes {made}, pinned list is {pinned}")


def main() -> int:
    os.chdir(Path(__file__).resolve().parent.parent)
    check_pinned_catalog()
    reference: dict[str, dict] = {}
    for workload in WORKLOADS:
        ops = workloads.build(workload, None, Path(".bench_work"))
        answers: dict[str, object] = {}
        by_group: dict[str, list] = {}
        for op in ops:
            answer, ok = op.answer(op.call())
            if not ok:
                raise SystemExit(f"{workload}: {op.key} fails: {answer}")
            if answers.setdefault(op.key, answer) != answer:
                raise SystemExit(f"{workload}: {op.key} gives two answers")
            if op.distinct:
                by_group.setdefault(op.distinct, []).append(answer)
        for group, members in by_group.items():
            if any(a == b for i, a in enumerate(members) for b in members[i + 1 :]):
                raise SystemExit(f"{workload}: answers in {group} must differ")
        reference[workload] = answers
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
