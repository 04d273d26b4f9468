"""Command line driver.

    poly describe <spec>
    poly verify <which> [<spec>] [--field Q|F2] [--format text|jsonl]
    poly betti <spec> --space Z|R [--field Q|F2] [--format text|jsonl]
    poly vertices hrep:PATH

Exit codes: 0 all requested checks passed, 1 a check failed, 2 invalid
input (parse error, validation error, budget, or a check that has
nothing to test on its input).  `verify all` without
a spec sweeps the built-in catalog.  Output is deterministic for fixed
inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bipoly import f_polynomial
from .catalog import built_in_catalog, parse_spec
from .complexes import minimal_non_faces
from .errors import PolytopeError
from .fileio import render_rational
from .geometry import enumerate_vertices
from .moment_angle import FIELDS, RATIONALS, SPACE_KINDS, hochster_betti
from .verify import CHECK_NAMES, CheckResult, run_check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poly",
        description="Exact doubling, h-polynomial identities, and cohomology ranks "
        "for simple polytopes and simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="facet counts and polynomials of a spec")
    describe.add_argument("spec")

    verify = sub.add_parser("verify", help="run a named identity check")
    verify.add_argument("which", choices=CHECK_NAMES)
    verify.add_argument("spec", nargs="?", default=None)
    verify.add_argument("--field", choices=FIELDS, default=RATIONALS)
    verify.add_argument("--format", choices=("text", "jsonl"), default="text")

    betti = sub.add_parser("betti", help="Betti table of a moment-angle complex")
    betti.add_argument("spec")
    betti.add_argument("--space", choices=SPACE_KINDS, required=True)
    betti.add_argument("--field", choices=FIELDS, default=RATIONALS)
    betti.add_argument("--format", choices=("text", "jsonl"), default="text")

    vertices = sub.add_parser("vertices", help="enumerate vertices of an hrep: spec")
    vertices.add_argument("spec")

    return parser


def _cmd_describe(args) -> int:
    entry = parse_spec(args.spec)
    P = entry.require_dual()
    # One face enumeration for f, f_polynomial and h_polynomial.
    f = f_polynomial(P)
    lines = [
        f"spec: {entry.name}",
        f"m: {P.m}",
        f"n: {P.dim}",
        f"f: {[f.coefficient(P.dim - i, i) for i in range(1, P.dim + 1)]}",
        f"f_polynomial: {f.to_text()}",
        f"h_polynomial: {f.sub_alpha_minus_t().to_text()}",
        f"minimal_non_faces: {len(minimal_non_faces(P.complex))}",
    ]
    print("\n".join(lines))
    return 0


def _emit_results(results: list[CheckResult], fmt: str) -> int:
    for result in results:
        if fmt == "jsonl":
            print(json.dumps(result.to_jsonable()))
        else:
            verdict = "PASS" if result.passed else "FAIL"
            print(f"{result.check} {result.input}: {verdict}")
            print(f"  lhs: {result.lhs}")
            print(f"  rhs: {result.rhs}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_verify(args) -> int:
    results: list[CheckResult] = []
    if args.spec is None:
        if args.which != "all":
            raise PolytopeError(f"verify {args.which} needs a spec argument")
        for entry in built_in_catalog():
            results.extend(run_check("all", entry, args.field))
    else:
        entry = parse_spec(args.spec)
        results.extend(run_check(args.which, entry, args.field))
    if not results:
        raise PolytopeError(f"verify {args.which} {args.spec} produced no results to check")
    return _emit_results(results, args.format)


def _cmd_betti(args) -> int:
    entry = parse_spec(args.spec)
    table = hochster_betti(entry.complex, args.space, args.field)
    if args.format == "jsonl":
        print(json.dumps(table.to_jsonable()))
    else:
        print(table.render())
    return 0


def _cmd_vertices(args) -> int:
    entry = parse_spec(args.spec)
    system = entry.require_system()
    for vertex in enumerate_vertices(system).vertices:
        print(" ".join(render_rational(c) for c in vertex))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "describe": _cmd_describe,
        "verify": _cmd_verify,
        "betti": _cmd_betti,
        "vertices": _cmd_vertices,
    }
    try:
        return handlers[args.command](args)
    except PolytopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
