"""The subcommands of ``spinz`` and their argument parser.

``cli.main`` imports this module when it runs, so a caller of
``cli.render_json`` compiles none of it.  Each command in turn imports what
only it needs: exact, verify and decay the oracle and numpy, gen the
generators and numpy, sawtree the walk-tree builder.  Estimate and check
use the standard library alone.
"""

from __future__ import annotations

import argparse
import math
import sys

from .cli import EXIT_INAPPLICABLE, EXIT_INPUT, EXIT_OK, _print_report
from .core import Condition, DecayConditionError, Spin, decay_condition_holds, system_scalars
from .graphfile import load_system
from .partition import fptas_log_partition

__all__ = ["build_parser"]

# Each verify suite: its oracle check and the keyword of its count.  The
# checks' own defaults give the count and tolerance that are not overridden;
# the decay check returns a list of reports.
VERIFY_SUITES = {
    "contraction": ("check_contraction", "trials"),
    "lipschitz": ("check_edge_factor_lipschitz", "trials"),
    "saw-exhaustive": ("check_saw_identity_exhaustive", "draws"),
    "saw-random": ("check_saw_identity_random", "instances"),
    "decay": ("check_decay_geometric", "pairs_per_radius"),
    "telescoping": ("check_telescoping", "instances"),
}


def _parse_condition(text: str | None) -> Condition:
    """Parse "1=+,5=-" into a condition; empty or None means unconditioned.
    Labels are checked against the graph where the condition is used."""
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
    return assignment


def _condition_payload(cond: Condition) -> dict:
    return {str(v): str(cond[v]) for v in sorted(cond)}


def cmd_estimate(args) -> int:
    system = load_system(args.graph)
    try:
        report = fptas_log_partition(system, args.eps)
    except DecayConditionError as err:
        _print_report(
            "estimate",
            {
                "applicable": False,
                "reason": str(err),
                "contraction": err.contraction,
                "max_coupling": err.max_coupling,
                "critical_coupling": err.critical_coupling,
                "degree_bound": err.degree_bound,
            },
        )
        return EXIT_INAPPLICABLE
    _print_report("estimate", {"applicable": True, **report.to_dict()})
    print(
        f"wall_time_s={report.wall_time_s:.6f} sweeps={report.sweeps} "
        f"walked_nodes={report.walked_nodes}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_exact(args) -> int:
    from .oracle import exact_log_partition

    system = load_system(args.graph)
    cond = _parse_condition(args.cond)
    log_z = exact_log_partition(system, cond)
    _print_report(
        "exact",
        {
            "n": system.n,
            "free_vertices": system.n - len(cond),
            "condition": _condition_payload(cond),
            "log_z": log_z,
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle

    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for suite in suites:
        check, count_keyword = VERIFY_SUITES[suite]
        overrides = {}
        if args.trials is not None:
            overrides[count_keyword] = args.trials
        if args.tolerance is not None:
            overrides["tolerance"] = args.tolerance
        result = getattr(oracle, check)(seed=args.seed, **overrides)
        checks.extend(result if isinstance(result, list) else [result])
    all_passed = all(check.passed for check in checks)
    _print_report(
        "verify",
        {
            "suites": suites,
            "all_passed": all_passed,
            "checks": [check.to_dict() for check in checks],
        },
    )
    return EXIT_OK if all_passed else EXIT_INPUT


def cmd_decay(args) -> int:
    from .oracle import measure_decay

    system = load_system(args.graph)
    scalars = system_scalars(system)
    sphere_size, envelope, measured, check = measure_decay(
        system, args.root, args.radius, args.trials, args.seed
    )
    _print_report(
        "decay",
        {
            "root": args.root,
            "radius": args.radius,
            "trials": args.trials,
            "seed": args.seed,
            "sphere_size": sphere_size,
            "measured_max": measured,
            "envelope": envelope,
            "within_envelope": check.passed,
            "max_coupling": scalars.max_coupling,
            "degree_bound": scalars.degree_bound,
            "contraction": scalars.contraction,
        },
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    from .families import GenSpec, generate, save_system

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
        "gen",
        {
            "path": args.out,
            "family": args.family,
            "model": args.model,
            "seed": args.seed,
            "n": graph.n,
            "edge_count": len(graph.edges),
            "max_degree": graph.max_degree(),
            "connected": graph.is_connected(),
        },
    )
    return EXIT_OK


def cmd_check(args) -> int:
    system = load_system(args.graph)
    scalars = system_scalars(system)
    graph = system.graph
    applicable = decay_condition_holds(scalars)
    _print_report(
        "check",
        {
            "n": graph.n,
            "edge_count": len(graph.edges),
            "max_degree": graph.max_degree(),
            "connected": graph.is_connected(),
            "degree_bound": scalars.degree_bound,
            "max_coupling": scalars.max_coupling,
            "critical_coupling": scalars.critical_coupling,
            "contraction": scalars.contraction,
            "applicable": applicable,
        },
    )
    return EXIT_OK if applicable else EXIT_INAPPLICABLE


def cmd_sawtree(args) -> int:
    from .sawtree import build_saw_tree, format_saw_tree

    system = load_system(args.graph)
    cond = _parse_condition(args.cond)
    if args.depth is None:
        tree = build_saw_tree(system, args.root, system.n, cond, uniform=True)
    else:
        tree = build_saw_tree(system, args.root, args.depth, cond)
    sys.stdout.write(format_saw_tree(tree) + "\n")
    print(f"nodes={tree.node_count}", file=sys.stderr)
    return EXIT_OK


def _checked(convert, rule: str, holds):
    """An argparse type: ``convert`` the text, and refuse it, naming ``rule``,
    when that fails or the value does not satisfy ``holds``.  argparse then
    names the option in its error line."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, "a positive integer", lambda value: value >= 1)
# numpy's SeedSequence refuses a negative seed without naming the option
_seed = _checked(int, "a nonnegative integer", lambda value: value >= 0)
# gen's tables refuse a non-finite entry, which names no option
_finite = _checked(float, "a finite number", math.isfinite)
_tolerance = _checked(float, "a finite number >= 0", lambda value: math.isfinite(value) and value >= 0.0)


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with one ``error:`` line, as every other
    refusal of the CLI starts, then the usage.  Options are taken only by
    their full names, in the subcommands' parsers too (argparse builds
    those from this class): a prefix such as ``--t`` is refused rather than
    read as whichever option it abbreviates."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("exact", help="brute-force log Z (small instances only)")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--cond", default=None, help="pinned spins, e.g. '1=+,5=-'")
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("verify", help="run property-check suites against the oracle")
    p.add_argument(
        "--suite",
        default="all",
        choices=[*VERIFY_SUITES, "all"],
        help="which suite to run (default: all)",
    )
    p.add_argument(
        "--trials", type=_positive_int, default=None, help="override the suite's trial count"
    )
    p.add_argument("--seed", type=_seed, default=0, help="base RNG seed (default: 0)")
    p.add_argument(
        "--tolerance", type=_tolerance, default=None, help="override the pass tolerance (>= 0)"
    )
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("decay", help="measure boundary influence at a graph distance")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--root", type=int, required=True, help="vertex whose marginal is probed")
    p.add_argument(
        "--radius", type=_positive_int, required=True, help="graph distance t of the conditioned sphere"
    )
    p.add_argument(
        "--trials", type=_positive_int, default=100, help="boundary pairs to draw (default: 100)"
    )
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default: 0)")
    p.set_defaults(handler=cmd_decay)

    p = sub.add_parser("gen", help="generate an instance file from a named family")
    p.add_argument("--family", required=True, help="path, cycle, grid, complete, random_regular, erdos_renyi")
    p.add_argument("--n", type=int, default=None, help="vertex count (families other than grid)")
    p.add_argument("--rows", type=int, default=None, help="grid rows")
    p.add_argument("--cols", type=int, default=None, help="grid cols")
    p.add_argument("--degree", type=float, default=None, help="regular degree or expected degree")
    p.add_argument("--model", default="ising", help="ising or random (default: ising)")
    p.add_argument("--coupling", type=_finite, default=0.0, help="interaction strength / bound (default: 0)")
    p.add_argument("--field", type=_finite, default=0.0, help="field strength / bound (default: 0)")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default: 0)")
    p.add_argument("--out", required=True, help="output path for the instance file")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("check", help="report the decay condition for an instance")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("sawtree", help="print a walk tree as indented text (debug)")
    p.add_argument("--graph", required=True, help="instance file (JSON)")
    p.add_argument("--root", type=int, required=True, help="root vertex")
    p.add_argument("--depth", type=int, default=None, help="depth limit (default: n, the complete tree)")
    p.add_argument("--cond", default=None, help="pinned spins, e.g. '1=+,5=-'")
    p.set_defaults(handler=cmd_sawtree)

    return parser
