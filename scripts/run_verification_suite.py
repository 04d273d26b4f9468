#!/usr/bin/env python3
"""Sweep every identity check over the built-in catalog and print a table.

Usage:
    python scripts/run_verification_suite.py [--field Q|F2]

Exits nonzero if any check fails.
"""

import argparse
import sys
import time

from polydouble.catalog import built_in_catalog
from polydouble.moment_angle import FIELDS, RATIONALS
from polydouble.verify import run_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", choices=FIELDS, default=RATIONALS)
    args = parser.parse_args()

    failures = 0
    grand_total = 0
    start = time.monotonic()
    for entry in built_in_catalog():
        t0 = time.monotonic()
        results = run_all(entry, args.field)
        elapsed = time.monotonic() - t0
        bad = [r for r in results if not r.passed]
        failures += len(bad)
        grand_total += len(results)
        status = "ok" if not bad else f"{len(bad)} FAILED"
        print(f"{entry.name:32s} {len(results):3d} checks  {elapsed:6.2f}s  {status}")
        for r in bad:
            print(f"    FAIL {r.check} {r.input}: lhs={r.lhs} rhs={r.rhs}")
    print(f"\n{grand_total} checks, {failures} failures, "
          f"{time.monotonic() - start:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
