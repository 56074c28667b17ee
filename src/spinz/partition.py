"""Deterministic partition-function estimation with an accuracy guarantee,
and the truncation policy that every walk follows.

The log partition function is assembled from the all-plus configuration
weight and a telescoping product of conditional marginals: vertex j is
estimated with vertices 1..j-1 pinned to +.  Each marginal comes from a
walk (see ``marginal``) that splits its root's log-ratio error allowance
over the free branches, with one depth as a hard cap, and whose stopped
free leaves add the lookahead frontier.  This module sets both.

Every frontier error e_vw is at most 2a (``_half_range``) and each edge
shrinks an error by tanh|J_vw| <= tanh(J), so a root allowance of
2a * rate**(t - 1) per free child (``root_share``) leaves every share at
depth k at least 2a * rate**(t - k).  That covers the cap's forced stops:
a node at depth t - 1, summed in place, is charged at most tanh(J) times
d - 1 errors, 2a * rate.  So the walk prunes the tree that the worst-case
scales give, which on a full (degree - 1)-ary tree is the uniform tree.
At maximum degree 2 or less ``root_share`` is 0.0 and the walks keep the
uniform tree; on a chain whose edges share one Ising table the split
gives that very tree.  The a-priori sweep gives each root this equal
share per free child, and its allowances alone fit eps.  The sweeps below
it (``root_allowance``) scale the share by the labels still free when the
root is walked (``label_share``), so early walks, whose trees are large,
stop sooner and late ones, nearly exact, take less; and by the root's
certificate weight kappa = min(4, sigma(0) / sigma(-x)), x the log
ratio of its depth-1 walk capped at 3 (``_allowance``), since its certificate
term c * sigma(c - x_hat) is about c * sigma(-x), not the c / 2 that the
equal split budgets.  Every charge still bounds its branch's error, so
such a sweep certifies eps from what its walks were charged.  When it
cannot, the estimate sweeps again as many levels deeper as the rate
needs, up to the a-priori depth (see ``truncation_depth``).  That gives
|log(estimate) - log(exact)| <= eps whenever the contraction condition
(d - 1) * tanh(max_coupling) < 1 holds at d, the graph's maximum degree,
and ``_depths`` refuses where it fails.  Each factor enters the sum as a
log, taken from the walk's log ratio where the marginal itself is too
small for a normal float; an estimate that overflows is refused.

The estimate is one serial sweep per depth over the tables of one
``compile_system``.  Pinning is by rank: one per-label stop array (see
``walk_log_ratio``) serves the whole sweep, and vertex j pins itself to +
when its walk is done.  The report records each pin, and
``EstimateReport.pinned_before`` gives each walk's condition from them
alone.  Each walk evaluates its tree while walking it and builds no
``SawTree``; below the a-priori depth it is the walk that
``build_saw_tree`` records to assemble its default tree, whose
``sawtree.tree_log_ratio`` equals the walk's log ratio bit for bit.  The
log factors are summed in ascending vertex order.
"""

from __future__ import annotations

import math
import sys
import time
from collections import namedtuple
from collections.abc import Mapping

from .core import (
    DecayConditionError, Graph, Record, Spin, SpinSystem, SystemScalars, _count, _finite, _real,
    decay_condition_holds, system_scalars,
)
from .marginal import PINNED_PLUS, CompiledSystem, compile_system, marginal_plus, walk_log_ratio

__all__ = [
    "VertexEstimate",
    "EstimateReport",
    "root_share",
    "label_share",
    "root_allowance",
    "all_plus_log_weight",
    "truncation_depth",
    "fptas_log_partition",
]


class VertexEstimate(
    Record,
    namedtuple(
        "VertexEstimate", "vertex depth node_count p_hat allowance charge pinned", defaults=(None, None, None)
    ),
):
    """One telescoping factor: vertex, depth, nodes, marginal, the walk's
    allowance and charge, and the spin the sweep pinned the vertex to after
    its walk."""

    __slots__ = ()


class EstimateReport(
    Record,
    namedtuple(
        "EstimateReport",
        "log_z_hat eps log_weight_all_plus degree_bound max_coupling critical_coupling "
        "contraction truncation_depth vertices wall_time_s sweeps walked_nodes",
        defaults=(None, None),
    ),
):
    """Result of a partition-function estimate plus its work bookkeeping:
    ``vertices`` holds one ``VertexEstimate`` per vertex in ascending order,
    the reported sweep's; ``sweeps`` counts the sweeps the estimate ran and
    ``walked_nodes`` the nodes that all of them walked."""

    __slots__ = ()

    @property
    def total_nodes(self) -> int:
        return sum(v.node_count for v in self.vertices)

    def pinned_before(self, vertex: int) -> dict[int, Spin]:
        """The condition under which ``vertex`` was walked: the spins that
        the sweep pinned the vertices walked before it to.  ValueError for a
        vertex the report lacks, and for a report whose vertices carry no
        pins, such as one built from their four serialized fields."""
        if any(entry.pinned is None for entry in self.vertices):
            raise ValueError("the report's vertices carry no pins; it was not built by fptas_log_partition")
        pinned = {}
        for entry in self.vertices:
            if entry.vertex == vertex:
                return pinned
            pinned[entry.vertex] = entry.pinned
        raise ValueError(f"vertex {vertex!r} is not in the report")

    def to_dict(self) -> dict:
        # wall_time_s stays out, so that reruns serialize identically, and so
        # does the work bookkeeping: sweeps, walked_nodes, and each vertex's
        # allowance, charge and pinned spin.
        return {
            "log_z_hat": self.log_z_hat,
            "eps": self.eps,
            "log_weight_all_plus": self.log_weight_all_plus,
            "degree_bound": self.degree_bound,
            "max_coupling": self.max_coupling,
            "critical_coupling": self.critical_coupling,
            "contraction": self.contraction,
            "truncation_depth": self.truncation_depth,
            "total_nodes": self.total_nodes,
            "vertices": [
                {
                    "vertex": e.vertex,
                    "depth": e.depth,
                    "node_count": e.node_count,
                    "p_hat": e.p_hat,
                }
                for e in self.vertices
            ],
        }


def _half_range(coupling: float, degree: int) -> float:
    """a = atanh(tanh(J) * tanh((degree - 1) * J)) for the largest coupling
    J and the degree bound: every frontier error e_vw is at most 2a."""
    return math.atanh(math.tanh(coupling) * math.tanh((degree - 1) * coupling))


def root_share(scalars: SystemScalars, depth_limit: int) -> float:
    """The allowance ``walk_log_ratio`` takes per free root child at
    ``depth_limit`` in the equal split: 2 * a * rate**(depth_limit - 1),
    with rate the contraction, so a root with k free children is off by at
    most delta_v = 2 * a * k * rate**(depth_limit - 1), as the a-priori
    depth of ``truncation_depth`` assumes; ``label_share`` redistributes it
    over the sweep.  0.0, the uniform tree, at maximum degree 2 or less (see
    the module docstring) and when the rate is not in (0, 1)."""
    rate = scalars.contraction
    if scalars.degree_bound <= 2 or not 0.0 < rate < 1.0:
        return 0.0
    # An exponent beyond the float range underflows the share to 0.0, as
    # the largest float exponent does, instead of raising OverflowError.
    exponent = min(depth_limit - 1, sys.float_info.max)
    return 2.0 * _half_range(scalars.max_coupling, scalars.degree_bound) * rate**exponent


def label_share(graph: Graph, share: float) -> float:
    """The allowance per free root child and free label that the sweeps
    below the a-priori depth give, for ``share`` per free root child: v's
    root, walked with m_v = n - v + 1 labels still free and k_v free
    children (its neighbours with a larger label), takes
    ``label_share * (k_v * m_v)``, that is share * k_v * m_v / m, with m
    the mean of m_u over the edges.  Those sum to share * |E|, but early
    walks, whose trees are large, get up to about twice the equal split,
    and late ones, nearly exact, less.  0.0 without edges."""
    weight = sum(graph.n + 1 - u for u, _ in graph.edges)
    return share * len(graph.edges) / weight if weight else 0.0


def _allowance(compiled: CompiledSystem, stops: list, root: int, share: float, labels: int) -> float:
    """The allowance of the free ``root``'s walk under ``stops`` below the
    a-priori depth: ``share`` per free child and free label, times its k
    free children (from ``stops``) and the ``labels`` still free, times
    kappa = min(4, sigma(0) / sigma(-min(x, 3))), x the log ratio of the
    root's depth-1 walk."""
    free = sum(stops[w] is None for w, _, _ in compiled.rows[root])
    x = walk_log_ratio(compiled, stops, root, 1)[0]
    return share * (free * labels) * min(4.0, 0.5 + 0.5 * math.exp(min(x, 3.0)))


def root_allowance(
    system: SpinSystem, root: int, depth_limit: int, pinned: Mapping[int, Spin], compiled: CompiledSystem
) -> float:
    """The allowance of ``root``'s walk at ``depth_limit`` under the
    condition ``pinned``: ``label_share`` of ``root_share`` at the system's
    scalars, times the root's unconditioned neighbours and labels and its
    kappa (``_allowance``) over ``compiled``, the system's tables.
    Under its report's ``pinned_before(root)``, that is the allowance of
    ``fptas_log_partition``'s sweeps below the a-priori depth, and of
    ``sawtree.build_saw_tree``'s default tree."""
    graph = system.graph
    share = label_share(graph, root_share(system_scalars(system), depth_limit))
    return _allowance(compiled, compiled.stops(pinned), root, share, graph.n - len(pinned))


def all_plus_log_weight(system: SpinSystem) -> float:
    """Log-weight of the configuration with every spin +: sum of pp entries
    plus sum of h_plus entries, each in label order, the order
    ``SpinSystem`` stores them in.  Zero for the empty graph.

    Plain left-to-right float additions, not builtin ``sum``, which
    compensates on Python 3.12 and later: the weight, and with it
    ``log_z_hat``, is then the same on every Python version."""
    edges = 0.0
    for p in system.potentials.values():
        edges += p.pp
    fields = 0.0
    for f in system.fields.values():
        fields += f.h_plus
    return edges + fields


def _depths(n: int, scalars: SystemScalars, eps: float) -> tuple[int, int]:
    """The start depth of ``truncation_depth`` and the a-priori depth (the
    smallest t with n * degree * a * rate**(t - 1) <= eps) at ``scalars``,
    or DecayConditionError, raised here only.  Inputs are checked by callers."""
    if not decay_condition_holds(scalars):
        raise DecayConditionError(scalars)
    rate = scalars.contraction
    if rate <= 0.0:
        return 1, 1
    half_range = _half_range(scalars.max_coupling, scalars.degree_bound)
    levels = []
    # D = 4 * eps / (1 + sqrt(1 + 4 * eps)) in a form that cannot overflow
    for budget in (eps / (0.25 + 0.5 * math.sqrt(0.25 + eps)), eps):
        scale = _finite(n * scalars.degree_bound, "n * degree") * half_range / budget
        raw = 0.0 if scale <= 1.0 else math.log(scale) / math.log(1.0 / rate)
        if not math.isfinite(raw):  # n * degree * a / budget overflowed
            raise ValueError(f"eps={eps!r} is too small: the walk-tree depth it needs is not finite")
        levels.append(math.ceil(raw))
    return max(1, levels[0]), 1 + levels[1]


def truncation_depth(n: int, coupling: float, degree: int, eps: float) -> int:
    """Walk-tree depth at which the sweep starts: the smallest t >= 1 with
    n * degree * a * rate**t <= D, where D = 4 * eps / (1 + sqrt(1 +
    4 * eps)) solves D * (1/2 + D/4) = eps.

    Here rate = (degree - 1) * tanh(coupling) and
    a = atanh(tanh(coupling) * tanh((degree - 1) * coupling)).  Every edge
    factor is a shifted Ising factor of the child's log ratio: over an
    interval of width W its range is at most
    4 * atanh(tanh(J) * tanh(W / 4)) <= tanh(J) * W.  A lookahead frontier
    leaf's interval has width at most 4 * J * (degree - 1), so the middle
    of its factor is off by at most 2 * a, and each level up multiplies the
    error by at most rate.  In the sweep, the root of vertex v has only k_v
    free children, its neighbours with a larger label; pinned children add
    exact factors.  So v's log ratio x_v is off by at most
    delta_v = 2 * a * k_v * rate**(t - 1), and the walk that splits delta_v
    over its free branches (see ``marginal``) keeps that bound, as do the
    uniform walks at maximum degree 2 or less.  And
    sum k_v = |E| <= n * degree / 2 makes the deltas sum to at most
    n * degree * a * rate**(t - 1), for any degree >= the maximum degree.
    The slope of log sigma is sigma(-x), so v's log marginal is off by at
    most c * sigma(c - x_hat_v) for any c >= |x_hat_v - x_v|, x_hat_v the
    estimated log ratio.  With c = delta_v and every x_hat_v >= 0 these
    sum to at most D * sigma(D) <= D * (1/2 + D/4) = eps one level deeper.
    ``fptas_log_partition`` sums them with c = c_v, the walk's charge,
    which bounds |x_hat_v - x_v| whatever the root's allowance, so below
    the a-priori depth it hands the same total out by the labels left and
    scales each root's share by its certificate weight kappa
    (``root_allowance``), trading x_hat_v >= 0 for the terms it sums.
    When the sum exceeds eps it sweeps deeper, by
    max(1, ceil(log(sum / eps) / log(1 / rate))) levels, since each level
    scales every allowance, and roughly every charge, by the rate; at
    most to the a-priori depth, the smallest t with
    n * degree * a * rate**(t - 1) <= eps, where each root takes delta_v
    and the sweep is certified a priori (log sigma is 1-Lipschitz).

    Computed as max(1, ceil(log(n * degree * a / D) / log(1 / rate))),
    natural logs.  Raises DecayConditionError when rate >= 1, before a is
    computed, so atanh never sees 1, and ValueError when eps is so small, or
    n * degree so large, that the depth overflows.  The answer is 1 when the
    rate is 0 or less (zero coupling makes every edge factor constant; at
    degree 1 the depth-1 frontier leaf has no children), and when
    n * degree * a * rate is at most D, underflow to 0 included.
    """
    _count(n, "n", 1)
    _real(coupling, "coupling")
    _count(degree, "degree")
    _real(eps, "eps", positive=True)
    return _depths(n, SystemScalars.at(coupling, degree), eps)[0]


_MIN_NORMAL = sys.float_info.min
"""Below this a p_hat has lost digits or is 0, so its log comes from the
walk's log ratio instead of ``math.log(p_hat)``."""


def fptas_log_partition(
    system: SpinSystem,
    eps: float,
    workers: int = 1,
) -> EstimateReport:
    """Estimate log Z with |log_z_hat - log Z| <= eps, deterministically.

    Args:
        system: the spin system.
        eps: target accuracy in log; must be positive and finite.
        workers: ignored; the sweep is serial.  Accepted so that callers
            that still pass it keep working.

    Walks vertices 1..n in ascending order; each walk sees every lower label
    pinned to +, then pins its own vertex.  The first sweep runs at
    ``truncation_depth``, a hard cap, d the graph's maximum degree, and
    each root takes ``root_allowance``: its share by the labels left,
    times its certificate weight kappa.  When the summed
    c_v * sigma(c_v - x_hat_v), c_v the walk's charge, exceeds eps, it
    sweeps again as many levels deeper as the rate needs, up to the
    a-priori depth, whose sweep gives each root ``root_share`` * k_v and
    ends the search.  The report is the first swept depth that certifies,
    with each walk's allowance and charge and the spin its vertex was then
    pinned to (``EstimateReport.pinned_before``), and the count of sweeps
    run and nodes walked.  Reruns agree bit for bit, and a marginal too
    small for a normal float takes its log from the walk's log ratio.

    Raises DecayConditionError when the contraction condition fails, and
    ValueError when log_z_hat is not finite (no estimate is produced).
    """
    started = time.perf_counter()
    _real(eps, "eps", positive=True)
    scalars = system_scalars(system)
    n = system.graph.n
    start, a_priori = _depths(n, scalars, eps) if n else (0, 0)
    # k_v, the neighbours of v with a larger label: free at v's root
    larger = [0] * (n + 1)
    for u, _ in system.graph.edges:
        larger[u] += 1

    compiled = compile_system(system)
    depth, sweeps, walked = start, 0, 0
    while True:
        sweeps += 1
        share = root_share(scalars, depth)
        split = share and depth < a_priori  # a share of 0.0 splits nothing
        if split:
            share = label_share(system.graph, share)
        stops = compiled.stops()
        estimates = []
        log_p_total = certificate = 0.0
        # Each walked vertex is then pinned to +: the record's pinned, the
        # PINNED_PLUS stop, the + marginal as its factor and the all-plus
        # base weight all encode that pin, and change together.
        for vertex in range(1, n + 1):
            if split:  # n - vertex + 1 labels are still free at this walk
                allowance = _allowance(compiled, stops, vertex, share, n + 1 - vertex)
            else:
                allowance = share * larger[vertex]
            log_ratio, count, charge = walk_log_ratio(compiled, stops, vertex, depth, allowance)
            p_hat = marginal_plus(log_ratio)
            if p_hat >= _MIN_NORMAL:
                log_p_total += math.log(p_hat)
            else:  # log(R / (1 + R)); here log_ratio < -708, so exp cannot overflow
                log_p_total += log_ratio - math.log1p(math.exp(log_ratio))
            estimates.append(VertexEstimate(vertex, depth, count, p_hat, allowance, charge, Spin.PLUS))
            walked += count
            certificate += charge * marginal_plus(charge - log_ratio)
            stops[vertex] = PINNED_PLUS
        if depth == a_priori or certificate <= eps:
            break  # certified a priori, or by the walks' charges
        # Each level scales every allowance, and roughly every charge, by
        # the rate; a ratio that overflows goes straight to the a-priori depth.
        levels = math.log(certificate / eps) / -math.log(scalars.contraction)
        depth = min(a_priori, depth + max(1, math.ceil(levels))) if levels < math.inf else a_priori

    log_all_plus = all_plus_log_weight(system)
    log_z_hat = log_all_plus - log_p_total
    if not math.isfinite(log_z_hat):
        raise ValueError(
            f"log Z leaves the float range: the all-plus log weight {log_all_plus!r} "
            f"less the summed log factors {log_p_total!r}"
        )
    return EstimateReport(
        log_z_hat=log_z_hat,
        eps=eps,
        log_weight_all_plus=log_all_plus,
        **scalars._asdict(),
        truncation_depth=depth,
        vertices=tuple(estimates),
        wall_time_s=time.perf_counter() - started,
        sweeps=sweeps,
        walked_nodes=walked,
    )
