"""Command-line interface.

Subcommands: estimate (approximate log Z with an additive guarantee),
exact (brute-force log Z), verify (property-check suites), decay (measure
boundary influence at a radius), gen (write a generated instance file),
check (applicability diagnostics), sawtree (debug dump of a walk tree).

Reports are JSON on stdout with every float at 17 significant digits;
diagnostics go to stderr.  Exit codes: 0 success, 1 input error or failed
verification, 2 estimate refused because the decay condition fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import DecayConditionError, Spin, decay_function, system_scalars
from .generate import GenSpec, GraphFileError, generate, load_system, save_system
from .oracle import (
    check_contraction,
    check_decay_geometric,
    check_edge_factor_lipschitz,
    check_saw_identity_exhaustive,
    check_saw_identity_random,
    check_telescoping,
    exact_log_partition,
    max_boundary_gap,
)
from .partition import MarginalUnderflowError, fptas_log_partition
from .sawtree import Condition, build_saw_tree, format_saw_tree

__all__ = ["main", "build_parser", "render_json"]

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INAPPLICABLE = 2

VERIFY_SUITES = (
    "contraction",
    "lipschitz",
    "saw-exhaustive",
    "saw-random",
    "decay",
    "telescoping",
)


def _format_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _emit(value, level: int) -> str:
    pad = "  " * level
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return json.dumps(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_emit(item, level + 1)}"
            for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(f"{pad}  {_emit(item, level + 1)}" for item in value)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(payload: dict) -> str:
    """JSON text with floats at 17 significant digits and non-finite floats
    rendered as the strings "inf", "-inf", "nan" (plain JSON has no other
    spelling for them)."""
    return _emit(payload, 0) + "\n"


def _print_report(payload: dict) -> None:
    sys.stdout.write(render_json(payload))


def _parse_condition(text: str | None) -> Condition:
    """Parse "1=+,5=-" into a Condition; empty or None means unconditioned."""
    assignment: dict[int, Spin] = {}
    if text:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            vertex_text, sep, spin_text = part.partition("=")
            spin_text = spin_text.strip()
            if not sep or spin_text not in {"+", "-"}:
                raise ValueError(
                    f"bad condition term {part!r}; expected 'vertex=+' or 'vertex=-'"
                )
            try:
                vertex = int(vertex_text.strip())
            except ValueError:
                raise ValueError(f"bad vertex label in condition term {part!r}") from None
            if vertex in assignment:
                raise ValueError(f"vertex {vertex} conditioned twice")
            assignment[vertex] = Spin.PLUS if spin_text == "+" else Spin.MINUS
    return Condition(assignment)


def _condition_payload(cond: Condition) -> dict:
    return {str(v): str(cond[v]) for v in sorted(cond)}


def cmd_estimate(args) -> int:
    system = load_system(args.graph)
    try:
        report = fptas_log_partition(
            system,
            args.eps,
            degree_bound=args.degree_bound,
            frontier=args.frontier,
            workers=args.threads,
        )
    except DecayConditionError as err:
        _print_report(
            {
                "schema_version": REPORT_SCHEMA_VERSION,
                "command": "estimate",
                "applicable": False,
                "reason": str(err),
                "contraction": err.contraction,
                "max_coupling": err.max_coupling,
                "critical_coupling": err.critical_coupling,
                "degree_bound": err.degree_bound,
            }
        )
        return EXIT_INAPPLICABLE
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "estimate",
        "applicable": True,
    }
    payload.update(report.to_dict())
    _print_report(payload)
    print(f"wall_time_s={report.wall_time_s:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_exact(args) -> int:
    system = load_system(args.graph)
    cond = _parse_condition(args.cond)
    log_z = exact_log_partition(system, cond)
    _print_report(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "exact",
            "n": system.n,
            "free_vertices": system.n - len(cond),
            "condition": _condition_payload(cond),
            "log_z": log_z,
        }
    )
    return EXIT_OK


def _run_suite(suite: str, trials: int | None, seed: int, tolerance: float | None) -> list:
    tight = 1e-12 if tolerance is None else tolerance
    loose = 1e-9 if tolerance is None else tolerance
    if suite == "contraction":
        return [check_contraction(trials=trials or 100_000, seed=seed, tolerance=tight)]
    if suite == "lipschitz":
        return [check_edge_factor_lipschitz(trials=trials or 10_000, seed=seed, tolerance=tight)]
    if suite == "saw-exhaustive":
        return [check_saw_identity_exhaustive(draws=trials or 20, seed=seed, tolerance=loose)]
    if suite == "saw-random":
        return [check_saw_identity_random(instances=trials or 50, seed=seed, tolerance=loose)]
    if suite == "decay":
        return check_decay_geometric(seed=seed, pairs_per_radius=trials or 100, tolerance=loose)
    if suite == "telescoping":
        return [check_telescoping(instances=trials or 50, seed=seed, tolerance=loose)]
    raise ValueError(f"unknown suite {suite!r}")


def cmd_verify(args) -> int:
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for suite in suites:
        checks.extend(_run_suite(suite, args.trials, args.seed, args.tolerance))
    all_passed = all(check.passed for check in checks)
    _print_report(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "verify",
            "suites": suites,
            "all_passed": all_passed,
            "checks": [check.to_dict() for check in checks],
        }
    )
    return EXIT_OK if all_passed else EXIT_INPUT


def cmd_decay(args) -> int:
    system = load_system(args.graph)
    scalars = system_scalars(system)
    sphere = system.graph.vertices_at_distance(args.root, args.radius)
    if not sphere:
        raise ValueError(f"no vertices at distance {args.radius} from vertex {args.root}")
    envelope = decay_function(args.radius, scalars.max_coupling, scalars.degree_bound)
    rng = np.random.default_rng(args.seed)
    measured, _ = max_boundary_gap(system, args.root, sphere, args.trials, rng)
    _print_report(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "decay",
            "root": args.root,
            "radius": args.radius,
            "trials": args.trials,
            "seed": args.seed,
            "sphere_size": len(sphere),
            "measured_max": measured,
            "envelope": envelope,
            "within_envelope": measured <= envelope * (1.0 + 1e-9),
            "max_coupling": scalars.max_coupling,
            "degree_bound": scalars.degree_bound,
            "contraction": scalars.contraction,
        }
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        rows=args.rows,
        cols=args.cols,
        degree=args.degree,
        model=args.model,
        coupling=args.coupling,
        field_strength=args.field,
        seed=args.seed,
    )
    system = generate(spec)
    save_system(system, args.out)
    graph = system.graph
    _print_report(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "gen",
            "path": args.out,
            "family": args.family,
            "model": args.model,
            "seed": args.seed,
            "n": graph.n,
            "edge_count": len(graph.edges),
            "max_degree": graph.max_degree(),
            "connected": graph.is_connected(),
        }
    )
    return EXIT_OK


def cmd_check(args) -> int:
    system = load_system(args.graph)
    scalars = system_scalars(system, args.degree_bound)
    graph = system.graph
    applicable = scalars.contraction < 1.0
    _print_report(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "check",
            "n": graph.n,
            "edge_count": len(graph.edges),
            "max_degree": graph.max_degree(),
            "connected": graph.is_connected(),
            "degree_bound": scalars.degree_bound,
            "max_coupling": scalars.max_coupling,
            "critical_coupling": scalars.critical_coupling,
            "contraction": scalars.contraction,
            "applicable": applicable,
        }
    )
    return EXIT_OK if applicable else EXIT_INAPPLICABLE


def cmd_sawtree(args) -> int:
    system = load_system(args.graph)
    cond = _parse_condition(args.cond)
    depth = args.depth if args.depth is not None else system.n
    tree = build_saw_tree(system, args.root, depth, cond)
    sys.stdout.write(format_saw_tree(tree) + "\n")
    print(f"nodes={tree.node_count}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinz",
        description=(
            "Deterministic partition-function approximation for two-state "
            "spin systems, with exact brute-force references and property checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="approximate log Z to additive accuracy eps")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--eps", type=float, required=True, help="additive accuracy in log Z (> 0)")
    p.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        help="degree bound used by the guarantee (default: the graph's max degree)",
    )
    p.add_argument(
        "--frontier",
        type=float,
        default=-math.inf,
        help="log ratio assigned to truncated leaves (default: -inf)",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help=(
            "worker threads (default: 1; the sweep is pure Python, so more threads "
            "are not faster; the result is identical)"
        ),
    )
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("exact", help="brute-force log Z (small instances only)")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--cond", default=None, help="pinned spins, e.g. '1=+,5=-'")
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("verify", help="run property-check suites against the oracle")
    p.add_argument(
        "--suite",
        default="all",
        choices=VERIFY_SUITES + ("all",),
        help="which suite to run (default: all)",
    )
    p.add_argument("--trials", type=int, default=None, help="override the suite's trial count")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default: 0)")
    p.add_argument("--tolerance", type=float, default=None, help="override the pass tolerance")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("decay", help="measure boundary influence at a graph distance")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--root", type=int, required=True, help="vertex whose marginal is probed")
    p.add_argument(
        "--radius",
        "--t",
        dest="radius",
        type=int,
        required=True,
        help="graph distance t of the conditioned sphere",
    )
    p.add_argument("--trials", type=int, default=100, help="boundary pairs to draw (default: 100)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.set_defaults(handler=cmd_decay)

    p = sub.add_parser("gen", help="generate an instance file from a named family")
    p.add_argument("--family", required=True, help="path, cycle, grid, complete, random_regular, erdos_renyi")
    p.add_argument("--n", type=int, default=None, help="vertex count (families other than grid)")
    p.add_argument("--rows", type=int, default=None, help="grid rows")
    p.add_argument("--cols", type=int, default=None, help="grid cols")
    p.add_argument("--degree", type=float, default=None, help="regular degree or expected degree")
    p.add_argument("--model", default="ising", help="ising or random (default: ising)")
    p.add_argument("--coupling", type=float, default=0.0, help="interaction strength / bound (default: 0)")
    p.add_argument("--field", type=float, default=0.0, help="field strength / bound (default: 0)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--out", required=True, help="output path for the instance file")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("check", help="report the decay condition for an instance")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        help="degree bound used by the guarantee (default: the graph's max degree)",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("sawtree", help="print a walk tree as indented text (debug)")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--root", type=int, required=True, help="root vertex")
    p.add_argument("--depth", type=int, default=None, help="depth limit (default: n, the complete tree)")
    p.add_argument("--cond", default=None, help="pinned spins, e.g. '1=+,5=-'")
    p.set_defaults(handler=cmd_sawtree)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except DecayConditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except MarginalUnderflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphFileError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
