"""Inputs, operations and reference answers of the benchmark workloads.

Each workload turns a seed into a list of operations.  An operation is
one call into a public entry point of polydouble: `cli.main` for the
`poly` subcommands, `moment_angle.hochster_betti` for Betti tables.
Every answer is reduced to a seed-invariant form (labels, file names and
the order of inputs depend on the seed; verdicts, polynomials, Betti
tables and vertex counts do not), so one stored reference serves every
seed.  A seed of None builds the unrelabeled inputs the reference was
computed from.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from polydouble import catalog, cli, moment_angle
from polydouble.complexes import SimplicialComplex

@dataclass(frozen=True)
class Op:
    """One timed call and the reduction of its output to an answer.

    `answer` returns (seed-invariant answer, verdict_ok).  Ops sharing a
    nonempty `distinct` tag must give pairwise different answers.
    """

    key: str
    call: Callable[[], Any]
    answer: Callable[[Any], tuple[Any, bool]]
    distinct: str = ""


def build(workload: str, seed: int | None, work_dir: Path) -> list[Op]:
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    if workload == "verify_catalog":
        return verify_catalog(rng)
    if workload == "betti_sweep":
        return betti_sweep(rng)
    if workload == "identities":
        return identities(rng, work_dir, "ref" if seed is None else str(seed))
    raise ValueError(f"unknown workload {workload!r}")


# -- answers -----------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


_FACET_LIST = re.compile(r"facets=\[([^\]]*)\]")


def _facet_counts(render: str) -> str:
    """Replace each rendered facet list by its length; labels depend on the seed."""
    return _FACET_LIST.sub(
        lambda match: f"facets={len(match.group(1).split(';')) if match.group(1) else 0}",
        render,
    )


def verify_answer(output: tuple[int, str]) -> tuple[Any, bool]:
    """Verdicts and both sides of every result of a `poly verify --format jsonl`."""
    code, text = output
    records = [json.loads(line) for line in text.splitlines()]
    rows = []
    for record in records:
        name = record["input"]
        tag = name[name.rindex(" [") + 2 : -1] if name.endswith("]") else ""
        rows.append([tag, record["pass"], _facet_counts(record["lhs"]), _facet_counts(record["rhs"])])
    ok = code == 0 and bool(records) and all(record["pass"] for record in records)
    return {"exit": code, "results": rows}, ok


def describe_answer(output: tuple[int, str]) -> tuple[Any, bool]:
    """`poly describe` output without its first line, which names the spec."""
    code, text = output
    return {"exit": code, "lines": text.splitlines()[1:]}, code == 0


def vertices_answer(output: tuple[int, str]) -> tuple[Any, bool]:
    """How many vertices `poly vertices` lists; their coordinates depend on the seed."""
    code, text = output
    return {"exit": code, "vertices": len(text.splitlines())}, code == 0


def betti_answer(table) -> tuple[Any, bool]:
    return table.to_jsonable(), True


def _verify_op(key: str, argv: list[str]) -> Op:
    return Op(key, lambda: _run_cli(argv), verify_answer)


# -- verify_catalog ----------------------------------------------------------------

# built_in_catalog() at the commit that defined this benchmark, with facet counts.
CATALOG = (
    ("simplex:1", 2),
    ("simplex:2", 3),
    ("simplex:3", 4),
    ("simplex:4", 5),
    ("simplex:5", 6),
    ("polygon:4", 4),
    ("polygon:5", 5),
    ("polygon:6", 6),
    ("polygon:7", 7),
    ("polygon:8", 8),
    ("cube:1", 2),
    ("cube:2", 4),
    ("cube:3", 6),
    ("cube:4", 8),
    ("product(polygon:5,simplex:1)", 7),
    ("product(simplex:2,simplex:1)", 5),
)
# run_all's gate on lemma6/trc at that commit (ALL_MODE_HOCHSTER_LIMIT).  It
# is pinned here so that raising the program's limit cannot add work.
HOCHSTER_M_LIMIT = 6


def catalog_checks(spec: str, m: int, field: str) -> list[str]:
    """The checks run_all makes on one entry; over F2 only the field-dependent ones."""
    checks = []
    if field == moment_angle.RATIONALS:
        checks += ["theorem3", "lemma2", "operator", "dring"]
        if spec.startswith("product("):
            checks.append("productdouble")
        checks.append("geomdouble")
    checks.append("facetsplit")
    if m <= HOCHSTER_M_LIMIT:
        checks += ["lemma6", "trc"]
    return checks


def verify_catalog(rng: random.Random | None) -> list[Op]:
    """The catalog sweep over Q, then its field-dependent part over F2.

    The seed shuffles the order of the entries within each part; the
    checks of one entry keep run_all's order, so caches behave as in
    `poly verify all`.
    """
    ops = []
    for field in (moment_angle.RATIONALS, moment_angle.GF2):
        entries = list(CATALOG)
        if rng is not None:
            rng.shuffle(entries)
        for spec, m in entries:
            for check in catalog_checks(spec, m, field):
                argv = ["verify", check, spec, "--field", field, "--format", "jsonl"]
                ops.append(_verify_op(f"{check} {spec} {field}", argv))
    return ops


# -- betti_sweep -------------------------------------------------------------------

# The 6-vertex real projective plane: torsion in H_1 makes its Q and F2
# tables differ, so a field mixup cannot pass.
RP2_FACETS = (
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
)


def _cycle(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i % m + 1) for i in range(1, m + 1))


# (name, vertex count, facets, relabelings per pass).  polygon:14 takes the
# prebuilt face-list branch of the Hochster sweep, polygon:17 the per-subset
# filter branch.
BETTI_INPUTS = (
    ("polygon:14", 14, _cycle(14), 4),
    ("polygon:17", 17, _cycle(17), 1),
    ("rp2", 6, RP2_FACETS, 2),
)


def relabel(m: int, facets, rng: random.Random | None) -> SimplicialComplex:
    perm = list(range(1, m + 1))
    if rng is not None:
        rng.shuffle(perm)
    return SimplicialComplex.from_facets(m, [[perm[v - 1] for v in facet] for facet in facets])


def betti_sweep(rng: random.Random | None) -> list[Op]:
    """Z-space Betti tables over Q and F2 of seeded vertex relabelings.

    Relabelings within a pass are pairwise distinct, so the cache on
    hochster_betti never serves one from another.
    """
    ops = []
    seen: set[SimplicialComplex] = set()
    for name, m, facets, copies in BETTI_INPUTS:
        for copy in range(copies):
            K = relabel(m, facets, rng)
            while rng is not None and K in seen:
                K = relabel(m, facets, rng)
            seen.add(K)
            for field in moment_angle.FIELDS:
                ops.append(
                    Op(
                        f"{name} {field}",
                        lambda K=K, field=field: moment_angle.hochster_betti(
                            K, moment_angle.SPACE_Z, field
                        ),
                        betti_answer,
                        distinct=f"{name}#{copy}" if name == "rp2" else "",
                    )
                )
    if rng is not None:
        rng.shuffle(ops)
    return ops


# -- identities --------------------------------------------------------------------

# (name, H-representation from the catalog's public builders).
HREP_INPUTS = (
    ("polygon:8", lambda: catalog.polygon_hrep(8)),
    ("cube:4", lambda: catalog.cube_hrep(4)),
    (
        "product(simplex:2,polygon:6)",
        lambda: catalog.block_diagonal(catalog.simplex_hrep(2), catalog.polygon_hrep(6)),
    ),
)
IDENTITY_CHECKS = ("theorem3", "lemma2", "operator", "dring", "geomdouble")


def transform_hrep(A, b, rng: random.Random | None):
    """Substitute x = Ux' + t and permute the rows.

    U adds +-1 times column 1 of A to column 2 (a unimodular shear) and
    t is an integer translation, so {x : Ax + b >= 0} becomes the
    same polytope in new coordinates: A' = AU, b' = b + At, rows permuted
    alike.  The shear's position is fixed because the fill-in it causes
    sets the cost of exact elimination; the seed picks its sign, t and
    the row order.
    """
    A = [list(row) for row in A]
    b = list(b)
    if rng is None:
        return A, b
    n = len(A[0])
    t = [rng.randint(-2, 2) for _ in range(n)]
    b = [b[i] + sum(A[i][j] * t[j] for j in range(n)) for i in range(len(A))]
    c = rng.choice((-1, 1))
    for row in A:
        row[1] += c * row[0]
    order = list(range(len(A)))
    rng.shuffle(order)
    return [A[i] for i in order], [b[i] for i in order]


def _json_rational(value: Fraction):
    return value.numerator if value.denominator == 1 else str(value)


def identities(rng: random.Random | None, work_dir: Path, tag: str) -> list[Op]:
    """Load (describe and vertices), theorem3, lemma2, operator, dring and
    geomdouble per seeded hrep file, plus productdouble on the spec
    product(simplex:2,polygon:6).

    Loading is two operations, so that more than half of the operations
    are the short ones: the median then falls among several operations of
    similar length instead of on the gap between short and long ones.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, (name, hrep) in enumerate(HREP_INPUTS):
        A, b = transform_hrep(*hrep(), rng)
        path = work_dir / f"identities-{tag}-{index}.json"
        data = {
            "A": [[_json_rational(v) for v in row] for row in A],
            "b": [_json_rational(v) for v in b],
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        spec = f"hrep:{path.as_posix()}"
        ops.append(Op(f"describe {name}", lambda spec=spec: _run_cli(["describe", spec]), describe_answer))
        ops.append(Op(f"vertices {name}", lambda spec=spec: _run_cli(["vertices", spec]), vertices_answer))
        for check in IDENTITY_CHECKS:
            ops.append(_verify_op(f"{check} {name}", ["verify", check, spec, "--format", "jsonl"]))
    spec = "product(simplex:2,polygon:6)"
    ops.append(_verify_op(f"productdouble {spec}", ["verify", "productdouble", spec, "--format", "jsonl"]))
    return ops
