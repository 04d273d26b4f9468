#!/usr/bin/env python3
"""Tabulate total cohomology ranks against the 2^(m-n) lower bound.

Surveys simplices, cubes, and polygons: simplices and cubes attain the
bound exactly, polygons with five or more sides exceed it, and the
margin grows quickly with the facet count.

Usage:
    python scripts/hrk_survey.py [--max-m 9] [--field Q|F2]

--max-m above the Hochster vertex budget (20) is refused before any work.
"""

import argparse
import sys

from polydouble.catalog import cube_entry, polygon_entry, simplex_entry
from polydouble.moment_angle import (
    FIELDS, HOCHSTER_VERTEX_BUDGET, RATIONALS, SPACE_Z, hochster_betti, hrk,
)


def survey(entry, field):
    P = entry.require_dual()
    bound = 1 << (P.m - P.dim)
    total = hrk(hochster_betti(P.complex, SPACE_Z, field))
    tag = "equality" if total == bound else f"margin {total - bound}"
    print(f"{entry.name:12s} m={P.m:2d} n={P.dim}  hrk(Z)={total:5d}  "
          f"2^(m-n)={bound:4d}  {tag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=9)
    parser.add_argument("--field", choices=FIELDS, default=RATIONALS)
    args = parser.parse_args()
    if args.max_m > HOCHSTER_VERTEX_BUDGET:
        parser.error(f"--max-m {args.max_m} exceeds the Hochster budget of "
                     f"{HOCHSTER_VERTEX_BUDGET} vertices")

    for n in range(1, min(args.max_m, 7)):
        survey(simplex_entry(n), args.field)
    for n in range(1, args.max_m // 2 + 1):
        survey(cube_entry(n), args.field)
    for m in range(4, args.max_m + 1):
        survey(polygon_entry(m), args.field)
    return 0


if __name__ == "__main__":
    sys.exit(main())
