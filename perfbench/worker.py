"""One estimate in a fresh interpreter; a child process of ``run.py``.

    python3 worker.py solve ROOT INSTANCE EPS
    python3 worker.py trace ROOT INSTANCE EPS SPANS_OUT

``solve`` takes the steps of ``spinz estimate`` with one worker and nothing
else, so its peak resident set is that of a user's run: import the package,
``load_system``, ``fptas_log_partition(workers=1)``, ``render_json``.
Before the import, between ``load_system`` and the sweep, and after the
render it times a fixed pure-Python task that uses no spinz code
(``calibration_s``), so that ``run.py`` can tell how fast the host ran
while each step ran.

``trace`` repeats the same sweep split into calls to ``Condition``,
``build_saw_tree``, ``tree_log_ratio`` and ``marginal_plus`` with a span
around each, reassembles log Z from the per-vertex marginals and checks it
bit-for-bit against ``fptas_log_partition``.  It then times the thread pool
the CLI would use.  Spans go to SPANS_OUT as JSON lines when the run ends.

Both print one JSON object on stdout.  The package is imported from
``ROOT/src`` only.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import uuid
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """Peak resident set of this process image in MiB.

    ``ru_maxrss`` keeps the high-water mark of the parent process image that
    forked this one, so the kernel's per-image ``VmHWM`` is read instead
    where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_s(iterations: int = 500_000) -> float:
    """Time of a fixed pure-Python task that uses no spinz code: a loop of
    integer multiply-adds, about 0.04 s on an idle core of a 2-core Xeon
    virtual machine.  It allocates nothing the cyclic collector tracks, so
    what a solve leaves alive does not change it.  Of the tasks tried (this
    loop, folding a tree of tuples, building dicts, a small walk-tree
    build, copying 32 MB), none followed the sweeps much more closely over
    a few hundred solves, and this one is the simplest.  When the host is
    busy the cycle sweep slows down more than this loop: over 115 cycle
    solves, the half with the slower calibrations had scaled sweeps 10-15%
    longer than the other half."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - started


def estimate_payload(cli, report) -> dict:
    """The report ``spinz estimate`` prints for an applicable instance."""
    payload = {
        "schema_version": cli.REPORT_SCHEMA_VERSION,
        "command": "estimate",
        "applicable": True,
    }
    payload.update(report.to_dict())
    return payload


def solve(root: str, instance: str, eps: float) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    calibration = [calibration_s()]
    t0 = time.perf_counter()
    import spinz
    from spinz import cli

    system = spinz.load_system(instance)
    t1 = time.perf_counter()
    calibration.append(calibration_s())
    t2 = time.perf_counter()
    report = spinz.fptas_log_partition(system, eps, workers=1)
    t3 = time.perf_counter()
    text = cli.render_json(estimate_payload(cli, report))
    t4 = time.perf_counter()
    calibration.append(calibration_s())
    return {
        "setup_s": t1 - t0,
        "fptas_s": t3 - t2,
        "render_s": t4 - t3,
        "calibration_s": calibration,
        "n": system.graph.n,
        "log_z_hat": report.log_z_hat,
        "rendered_log_z_hat": json.loads(text)["log_z_hat"],
        "peak_rss_mb": peak_rss_mb(),
    }


class Tracer:
    """Spans kept in memory: name, start, end, parent, optional counts."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def leaf_mix(tree, pinned_before: int) -> tuple[int, int, int]:
    """Counts of (cycle-pinned, condition-pinned, frontier) leaves.

    The sweep pins exactly the vertices labelled below the root, and the
    walk tree pins a copy of a conditioned vertex before it tests for a
    cycle, so a pinned leaf is condition-pinned iff its label is below
    ``pinned_before``.
    """
    cycle = cond = frontier = 0
    limit = tree.depth_limit
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.spin is not None:
            if node.origin < pinned_before:
                cond += 1
            else:
                cycle += 1
        elif node.children:
            stack.extend(node.children)
        elif node.depth == limit:
            frontier += 1
    return cycle, cond, frontier


def tail_value(values: list[float]) -> float:
    """The highest order statistic with at least ten samples beyond it
    (the largest sample when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def affinity_cpus() -> int:
    """Threads the CLI default may use here: ``os.cpu_count()`` capped at
    the CPUs this process may run on."""
    return max(1, min(os.cpu_count() or 1, len(os.sched_getaffinity(0))))


def trace(root: str, instance: str, eps: float, spans_out: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = Tracer()
    span = tracer.span
    with span("estimate"):
        with span("spinz.import"):
            import spinz
            from spinz import cli
        with span("generate.load"):
            system = spinz.load_system(instance)
        n = system.graph.n
        with span("core.scalars"):
            scalars = spinz.system_scalars(system)
            depth = spinz.truncation_depth(n, scalars.max_coupling, scalars.degree_bound, eps)
        estimates = []
        nodes = max_nodes = cycle_pinned = cond_pinned = frontier = 0
        with span("partition.sweep"):
            for vertex in range(1, n + 1):
                with span("partition.vertex"):
                    with span("sawtree.condition"):
                        cond = spinz.Condition({i: spinz.Spin.PLUS for i in range(1, vertex)})
                    with span("sawtree.build") as build:
                        tree = spinz.build_saw_tree(system, vertex, depth, cond)
                    with span("marginal.eval"):
                        p_hat = spinz.marginal_plus(spinz.tree_log_ratio(system, tree))
                estimates.append(spinz.VertexEstimate(vertex, depth, tree.node_count, p_hat))
                counts = leaf_mix(tree, vertex)
                build["nodes"] = tree.node_count
                build["leaves"] = counts
                nodes += tree.node_count
                max_nodes = max(max_nodes, tree.node_count)
                cycle_pinned += counts[0]
                cond_pinned += counts[1]
                frontier += counts[2]
                # Free this tree now: alive, it would be freed inside the next
                # build span and make the collector scan it there.
                del tree
        with span("partition.reduce"):
            log_p_total = 0.0
            for est in estimates:  # ascending vertex order, as fptas_log_partition sums
                log_p_total += math.log(est.p_hat)
            log_all_plus = spinz.all_plus_log_weight(system)
            traced = spinz.EstimateReport(
                log_z_hat=log_all_plus - log_p_total,
                eps=eps,
                log_weight_all_plus=log_all_plus,
                degree_bound=scalars.degree_bound,
                max_coupling=scalars.max_coupling,
                critical_coupling=scalars.critical_coupling,
                contraction=scalars.contraction,
                truncation_depth=depth,
                vertices=tuple(estimates),
                wall_time_s=0.0,
            )
        with span("cli.render"):
            traced_text = cli.render_json(estimate_payload(cli, traced))

    with span("partition.fptas_serial"):
        serial = spinz.fptas_log_partition(system, eps, workers=1)
    threads = affinity_cpus()
    with span("partition.fptas_pool") as pool_span:
        pooled = spinz.fptas_log_partition(system, eps, workers=threads)
        pool_span["workers"] = threads
    tracer.write(spans_out)

    condition_s = tracer.total("sawtree.condition")
    build_s = tracer.total("sawtree.build")
    eval_s = tracer.total("marginal.eval")
    vertex_ms = [1e3 * d for d in tracer.durations("partition.vertex")]
    metrics = {
        "spinz.import_s": (tracer.total("spinz.import"), "s"),
        "generate.load_s": (tracer.total("generate.load"), "s"),
        "core.scalars_s": (tracer.total("core.scalars"), "s"),
        "partition.depth": (depth, "count"),
        "partition.vertices": (n, "count"),
        "partition.vertex_ms_p50": (statistics.median(vertex_ms), "ms"),
        "partition.vertex_ms_tail": (tail_value(vertex_ms), "ms"),
        "partition.other_s": (
            tracer.total("partition.fptas_serial") - condition_s - build_s - eval_s,
            "s",
        ),
        "partition.pool_overhead_s": (
            tracer.total("partition.fptas_pool") - tracer.total("partition.fptas_serial"),
            "s",
        ),
        "sawtree.condition_s": (condition_s, "s"),
        "sawtree.build_s": (build_s, "s"),
        "sawtree.nodes": (nodes, "count"),
        "sawtree.ns_per_node": (1e9 * build_s / nodes, "ns"),
        "sawtree.max_tree_nodes": (max_nodes, "count"),
        "sawtree.cycle_pinned_frac": (cycle_pinned / nodes, "fraction"),
        "sawtree.cond_pinned_frac": (cond_pinned / nodes, "fraction"),
        "sawtree.frontier_frac": (frontier / nodes, "fraction"),
        "marginal.eval_s": (eval_s, "s"),
        "marginal.ns_per_node": (1e9 * eval_s / nodes, "ns"),
        "cli.render_s": (tracer.total("cli.render"), "s"),
    }
    return {
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "traced_total_s": tracer.total("estimate"),
        "log_z_hat": traced.log_z_hat,
        "serial_log_z_hat": serial.log_z_hat,
        "pool_log_z_hat": pooled.log_z_hat,
        "pool_workers": threads,
        "render_matches": traced_text == cli.render_json(estimate_payload(cli, serial)),
        "spans": len(tracer.spans),
        "run_id": tracer.run_id,
    }


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "solve":
        result = solve(argv[1], argv[2], float(argv[3]))
    elif len(argv) == 5 and argv[0] == "trace":
        result = trace(argv[1], argv[2], float(argv[3]), argv[4])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
