"""Command line interface.

Subcommands cover cage generation, validation, node listing, theorem
verification, Hilbert function tables, tangent-prescribed inscription and
propagation, the node-count counterexample, demos, and CSV sampling of an
inscribed variety on a rational grid.  All JSON going in or out uses the
cagekit/1 schema; reports carry a wall-clock field unless --no-timestamp is
given, which keeps byte-identical reruns possible.

Exit status: 0 when every requested check passes, 1 when some check fails,
2 for usage, schema, or input errors, 3 when an internal self-check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from fractions import Fraction

from . import demos as demos_mod
from . import serialize as ser
from .cage import (Cage, all_indices, axis_cage, random_cage,
                   simplicial_indices, supra_simplicial_indices)
from .errors import CageKitError, SchemaError
from .field import FieldDescriptor
from .inscribe import inscribe_with_tangent, make_tangent, propagate_tangents
from .verify import (DEFAULT_SUITE, SUITE_CHECKS, _lemma_counts,
                     independence_counterexample, run_suite)
from .viete import coefficient_cage


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}",
                          f"malformed JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(path, "JSON nested too deeply") from exc


def _output(args):
    """The -o file opened for writing, or stdout, which stays open."""
    if getattr(args, "output", None):
        return open(args.output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit_json(args, obj) -> None:
    with _output(args) as out:
        out.write(json.dumps(obj, indent=2) + "\n")


def _load_cage(path: str) -> Cage:
    return ser.cage_from_json(_load_json(path))


def _validated_cage(path: str) -> Cage:
    cage = _load_cage(path)
    report = cage.validate()
    if not report.valid:
        raise SchemaError(path, "cage fails validation; run the validate "
                          "subcommand for the failure list")
    return cage


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise SchemaError("--node", f"bad index {text!r}; "
                          "expected comma-separated integers") from None


def _parse_tangent_vectors(text: str):
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vectors.append([ser.parse_rational(p, "--tangent")
                        for p in chunk.split(",")])
    return vectors


def _node_and_tangent(args):
    """The validated --cage, its --node and the --tangent given there."""
    cage = _validated_cage(args.cage)
    node = cage.node(_parse_index(args.node))
    return cage, node, make_tangent(node, _parse_tangent_vectors(args.tangent))


def _emit_report(report, args, started: float) -> int:
    """Write a verification report; the exit status is its verdict."""
    elapsed = None if args.no_timestamp else time.monotonic() - started
    _emit_json(args, ser.report_to_json(report, elapsed))
    return 0 if report.passed else 1


# -- subcommand handlers -------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.kind == "random":
        if args.d is None or args.n is None or args.seed is None:
            raise SchemaError("gen", "random generation needs --seed, --d, --n")
        field = (ser.field_from_json(_load_json(args.field))
                 if args.field else FieldDescriptor.rationals())
        cage = random_cage(args.seed, args.d, args.n, field)
    else:
        if not args.points:
            raise SchemaError("gen", f"{args.kind} generation needs --points")
        config = ser.configuration_from_json(_load_json(args.points))
        cage = (axis_cage(config.field, config.points) if args.kind == "axis"
                else coefficient_cage(config))
    _emit_json(args, ser.cage_to_json(cage))
    return 0


def _cmd_validate(args) -> int:
    cage = _load_cage(args.cage)
    report = cage.validate()
    payload = {
        "schema": ser.SCHEMA,
        "kind": "validation",
        "subject": cage.summary(),
        "valid": report.valid,
        "node_count": report.node_count,
        "failures": [{"kind": f.kind, "index": list(f.index),
                      "detail": f.detail} for f in report.failures],
    }
    _emit_json(args, payload)
    return 0 if report.valid else 1


def _cmd_nodes(args) -> int:
    cage = _validated_cage(args.cage)
    _emit_json(args, ser.nodes_to_json(cage))
    return 0


def _cmd_verify(args) -> int:
    started = time.monotonic()
    cage = _load_cage(args.cage)
    names = (SUITE_CHECKS if args.checks == "all"
             else tuple(c.strip() for c in args.checks.split(",") if c.strip()))
    return _emit_report(run_suite(cage, names), args, started)


# a table entry is a count proved from validation and costs no rank; only
# this bounds the table
MAX_HILBERT_DEGREE = 1024


def _cmd_hilbert(args) -> int:
    if not 0 <= args.max_k <= MAX_HILBERT_DEGREE:
        raise SchemaError("--max-k", f"degree {args.max_k} outside "
                          f"[0, {MAX_HILBERT_DEGREE}]")
    cage = _validated_cage(args.cage)
    if args.selection == "all":
        indices = all_indices(cage.d, cage.n)
    elif args.selection == "simplicial":
        indices = simplicial_indices(cage.d, cage.n).indices
    else:
        indices = supra_simplicial_indices(cage.d, cage.n).indices
    table = _lemma_counts(indices, cage.n, args.max_k)
    payload = {
        "schema": ser.SCHEMA,
        "kind": "hilbert",
        "subject": cage.summary(),
        "selection": args.selection,
        "points": len(indices),
        "k": list(range(args.max_k + 1)),
        "h": list(table),
    }
    _emit_json(args, payload)
    return 0


def _cmd_inscribe(args) -> int:
    cage, node, tangent = _node_and_tangent(args)
    if args.s is not None and args.s != cage.n - tangent.dim:
        raise SchemaError("--s", f"tangent dimension {tangent.dim} gives "
                          f"codimension {cage.n - tangent.dim}, not {args.s}")
    variety = inscribe_with_tangent(cage, node, tangent)
    _emit_json(args, ser.variety_to_json(variety))
    return 0


def _cmd_propagate(args) -> int:
    cage, node, tangent = _node_and_tangent(args)
    forced = propagate_tangents(cage, node, tangent)
    payload = {
        "schema": ser.SCHEMA,
        "kind": "tangent-field",
        "subject": cage.summary(),
        "start": list(node.index),
        "tangents": [ser.tangent_to_json(forced[idx])
                     for idx in sorted(forced)],
    }
    _emit_json(args, payload)
    return 0


def _cmd_counterexample(args) -> int:
    started = time.monotonic()
    return _emit_report(independence_counterexample(), args, started)


def _cmd_demo(args) -> int:
    if args.list:
        _emit_json(args, {"schema": ser.SCHEMA, "kind": "demo-list",
                          "demos": list(demos_mod.DEMO_NAMES)})
        return 0
    if not args.name:
        raise SchemaError("demo", "give a demo name or --list")
    started = time.monotonic()
    try:
        report = demos_mod.run_demo(args.name)
    except KeyError as exc:
        raise SchemaError("demo", str(exc)) from exc
    return _emit_report(report, args, started)


# sample-grid streams its rows; this bounds its run time, not its memory
MAX_GRID_POINTS = 64 ** 3


def _cmd_sample_grid(args) -> int:
    variety = ser.variety_from_json(_load_json(args.variety))
    cage = variety.cage
    if cage.n != 3:
        raise SchemaError(args.variety,
                          "grid sampling is for surfaces/curves in 3-space")
    if cage.field.kind != "rationals":
        raise SchemaError(args.variety,
                          "grid sampling needs rational coefficients")
    bounds = [ser.parse_rational(b, "--box") for b in args.box]
    if args.resolution < 2:
        raise SchemaError("--resolution", "need at least two samples per axis")
    if args.resolution ** 3 > MAX_GRID_POINTS:
        raise SchemaError("--resolution", f"{args.resolution}^3 points exceed "
                          f"the limit of {MAX_GRID_POINTS}")
    polys = variety.polynomials()
    field = cage.field
    axes = []
    for a in range(3):
        lo, hi = bounds[2 * a], bounds[2 * a + 1]
        step = (hi - lo) / (args.resolution - 1)
        axes.append([lo + step * i for i in range(args.resolution)])
    one = field.one()
    with _output(args) as out:
        out.write("x,y,z,value\n")
        for x, y, z in itertools.product(*axes):
            point = [field.from_rational(x), field.from_rational(y),
                     field.from_rational(z), one]
            if len(polys) == 1:
                value = polys[0].evaluate(point).as_fraction()
            else:
                acc = Fraction(0)
                for p in polys:
                    v = p.evaluate(point).as_fraction()
                    acc += v * v
                value = acc
            # decimal rendering below is the only non-exact step
            out.write(f"{float(x)!r},{float(y)!r},{float(z)!r},"
                      f"{float(value)!r}\n")
    return 0


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cagekit",
        description="Exact verification and construction tools for "
                    "hyperplane cages.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.add_argument("-o", "--output", help="write to a file instead of stdout")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit wall-clock fields for reproducible output")
        p.set_defaults(handler=handler)

    p = sub.add_parser("gen", help="generate a cage as JSON")
    p.add_argument("--kind", choices=("random", "axis", "viete"),
                   required=True)
    p.add_argument("--seed", type=int, help="seed for --kind random")
    p.add_argument("--d", type=int, help="hyperplanes per color")
    p.add_argument("--n", type=int, help="number of colors")
    p.add_argument("--field", help="field descriptor JSON for --kind random")
    p.add_argument("--points", help="configuration JSON for axis/viete")
    add_common(p, _cmd_gen)

    p = sub.add_parser("validate", help="run cage validation")
    p.add_argument("--cage", required=True)
    add_common(p, _cmd_validate)

    p = sub.add_parser("nodes", help="list all nodes of a valid cage")
    p.add_argument("--cage", required=True)
    add_common(p, _cmd_nodes)

    p = sub.add_parser("verify", help="run verification checks on a cage")
    p.add_argument("--cage", required=True)
    p.add_argument("--checks", default=",".join(DEFAULT_SUITE),
                   help=f"comma list from: {', '.join(SUITE_CHECKS)}; "
                        "or 'all'")
    add_common(p, _cmd_verify)

    p = sub.add_parser("hilbert", help="Hilbert function table of node sets")
    p.add_argument("--cage", required=True)
    p.add_argument("--max-k", type=int, required=True,
                   help="largest degree of the table, from 0 to "
                        f"{MAX_HILBERT_DEGREE}")
    p.add_argument("--selection", choices=("all", "simplicial", "supra"),
                   default="all")
    add_common(p, _cmd_hilbert)

    p = sub.add_parser("inscribe",
                       help="inscribe a variety with a prescribed tangent")
    p.add_argument("--cage", required=True)
    p.add_argument("--node", required=True,
                   help="multi-index, e.g. 1,2 (entries start at 1)")
    p.add_argument("--tangent", required=True,
                   help="chart-local vectors, e.g. '1,2' or '1,0,0;0,1,0'")
    p.add_argument("--s", type=int,
                   help="expected codimension; checked against the tangent")
    add_common(p, _cmd_inscribe)

    p = sub.add_parser("propagate",
                       help="forced tangents at every node of the cage")
    p.add_argument("--cage", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--tangent", required=True)
    add_common(p, _cmd_propagate)

    p = sub.add_parser("counterexample",
                       help="node count alone does not control interpolation")
    add_common(p, _cmd_counterexample)

    p = sub.add_parser("demo", help="run a named demo end to end")
    p.add_argument("name", nargs="?", help="demo name")
    p.add_argument("--list", action="store_true", help="list demo names")
    add_common(p, _cmd_demo)

    p = sub.add_parser("sample-grid",
                       help="sample an inscribed variety on a grid as CSV "
                            "(decimal output, the one non-exact command)")
    p.add_argument("--variety", required=True)
    p.add_argument("--box", required=True, nargs=6,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX", "ZMIN", "ZMAX"),
                   help="axis-aligned sampling box, six numbers")
    p.add_argument("--resolution", type=int, required=True,
                   help="samples per axis; the cube of it may not "
                        f"exceed {MAX_GRID_POINTS} points")
    add_common(p, _cmd_sample_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (CageKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a self-check of the program failed, not its input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
