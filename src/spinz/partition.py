"""Deterministic partition-function estimation with an accuracy guarantee.

The log partition function is assembled from the all-plus configuration
weight and a telescoping product of conditional marginals: vertex j is
estimated with vertices 1..j-1 pinned to +.  Each marginal comes from a
walk tree whose stopped free leaves add the lookahead frontier (see
``marginal``).  One depth caps every walk, and above it each walk splits
its root's log-ratio error allowance over the free branches, stopping
each branch once its share covers that edge's frontier error, and
charging each branch only the error it leaves, so that later branches
split what earlier ones did not spend.  Below the a-priori depth a
root's allowance grows with the labels still free when it is walked
(``label_share``), so early walks, whose trees are large, stop sooner
and late ones, nearly exact, take less; the sweep certifies eps from
what its walks were charged, and when it cannot, it sweeps again one
level deeper, up to the a-priori depth, where each root takes its equal
share and the allowances alone fit eps (see ``truncation_depth``).
That gives |log(estimate) - log(exact)| <= eps whenever the contraction
condition (degree_bound - 1) * tanh(max_coupling) < 1 holds.  Each factor
enters the sum as a log, taken from the walk's log ratio where the
marginal itself is too small for a normal float, so no estimate leaves
the log domain.

The estimate is one serial sweep per depth, from the start depth to the
first that certifies, over the tables of one ``compile_system``; it counts
each vertex's neighbours with a larger label once, for the root
allowances.  Pinning is by rank: one per-label stop array (see
``walk_log_ratio``) serves the whole sweep, and vertex j pins itself to +
when its walk is done, so every later walk sees 1..j pinned.  Each walk
evaluates its tree while walking it and builds no ``SawTree``; below the
a-priori depth it is the walk that ``build_saw_tree`` records to assemble
its default tree, whose ``sawtree.tree_log_ratio`` equals the walk's log
ratio bit for bit.  The log factors are summed in ascending vertex order.
"""

from __future__ import annotations

import math
import sys
import time
from collections import namedtuple

from .core import (
    DecayConditionError,
    Record,
    SpinSystem,
    decay_condition_holds,
    system_scalars,
)
from .marginal import (
    PINNED_PLUS,
    _half_range,
    compile_system,
    label_share,
    marginal_plus,
    root_share,
    walk_log_ratio,
)

__all__ = [
    "VertexEstimate",
    "EstimateReport",
    "all_plus_log_weight",
    "truncation_depth",
    "fptas_log_partition",
]


class VertexEstimate(Record, namedtuple("VertexEstimate", "vertex depth node_count p_hat")):
    """One telescoping factor: vertex, tree depth, nodes built, estimated marginal."""

    __slots__ = ()


class EstimateReport(
    Record,
    namedtuple(
        "EstimateReport",
        "log_z_hat eps log_weight_all_plus degree_bound max_coupling critical_coupling "
        "contraction truncation_depth vertices wall_time_s",
    ),
):
    """Result of a partition-function estimate plus its work bookkeeping:
    ``vertices`` holds one ``VertexEstimate`` per vertex in ascending order."""

    __slots__ = ()

    @property
    def total_nodes(self) -> int:
        return sum(v.node_count for v in self.vertices)

    def to_dict(self) -> dict:
        # wall_time_s stays out: the serialized report must be identical
        # across reruns with the same inputs.
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


def all_plus_log_weight(system: SpinSystem) -> float:
    """Log-weight of the configuration with every spin +: sum of pp entries
    plus sum of h_plus entries.  Zero for the empty graph.

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


def _check_eps(eps: float) -> None:
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")


def _depths(n: int, coupling: float, degree: int, eps: float) -> tuple[int, int]:
    """The start depth of ``truncation_depth`` and the a-priori depth (the
    smallest t with n * degree * a * rate**(t - 1) <= eps).  Inputs are
    checked by the callers."""
    rate = (degree - 1) * math.tanh(coupling)
    if rate >= 1.0:
        raise DecayConditionError(rate, max_coupling=coupling, degree_bound=degree)
    if rate <= 0.0:
        return 1, 1
    half_range = _half_range(coupling, degree)
    levels = []
    # D = 4 * eps / (1 + sqrt(1 + 4 * eps)) in a form that cannot overflow
    for budget in (eps / (0.25 + 0.5 * math.sqrt(0.25 + eps)), eps):
        scale = n * degree * half_range / budget
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
    delta_v = 2 * a * k_v * rate**(t - 1); the walk that splits delta_v
    over its free branches, edge by edge (see ``marginal``), with t as the
    cap, keeps that bound: each branch is off by at most what it is
    charged, and a node's charges never exceed its allowance.  The
    uniform walks run at degree bound 2 or less are charged by the same
    rules, at most delta_v each.  And
    sum k_v = |E| <= n * degree / 2 makes the deltas sum to at most
    n * degree * a * rate**(t - 1), for any degree >= the maximum degree.
    The slope of log sigma is sigma(-x), so v's log marginal is off by at
    most c * sigma(c - x_hat_v) for any c >= |x_hat_v - x_v|, x_hat_v the
    estimated log ratio.  With c = delta_v and every x_hat_v >= 0 these
    sum to at most D * sigma(D) <= D * (1/2 + D/4) = eps one level deeper.
    ``fptas_log_partition`` sums them with c = c_v, the walk's charge,
    which bounds |x_hat_v - x_v| whatever the root's allowance.  So below
    the a-priori depth it hands the same total out by the labels left:
    v's root takes delta_v * m_v / m, with m_v = n - v + 1 and m the mean
    of m_u over the edges (``marginal.label_share``).  When the sum exceeds
    eps it sweeps one level deeper, up to the a-priori depth, the smallest
    t with n * degree * a * rate**(t - 1) <= eps, where each root takes
    delta_v and the sweep is certified a priori (log sigma is
    1-Lipschitz).

    Computed as max(1, ceil(log(n * degree * a / D) / log(1 / rate))).
    Natural logs throughout.  Raises DecayConditionError when rate >= 1,
    before a is computed, so atanh never sees 1, and ValueError when eps is
    so small that the depth overflows.

    The answer is 1 when the rate is 0 or less: zero coupling makes every
    edge factor constant, and on a graph of degree bound 1 the depth-1
    frontier leaf has no children, so its interval is a point.  It is also
    1 when n * degree * a * rate is at most D, underflow to 0 included.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if coupling < 0:
        raise ValueError("coupling must be nonnegative")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    _check_eps(eps)
    return _depths(n, coupling, degree, eps)[0]


_MIN_NORMAL = sys.float_info.min
"""Below this a p_hat has lost digits or is 0, so its log comes from the
walk's log ratio instead of ``math.log(p_hat)``."""


def fptas_log_partition(
    system: SpinSystem,
    eps: float,
    degree_bound: int | None = None,
    workers: int = 1,
) -> EstimateReport:
    """Estimate log Z with |log_z_hat - log Z| <= eps, deterministically.

    Args:
        system: the spin system.
        eps: target accuracy in log; must be positive and finite.
        degree_bound: degree parameter for the depth formula; defaults to
            the maximum degree.
        workers: ignored; the sweep is serial.  Accepted so that callers
            that still pass it keep working.

    Walks vertices 1..n in ascending order; each walk sees every lower label
    pinned to +, then pins its own vertex.  The sweep runs at
    ``truncation_depth``, a hard cap: each walk splits its root's allowance
    over its free branches, and the free leaves it stops take the
    lookahead frontier (at degree bound 2 or less the walks keep the
    uniform tree; see ``marginal``).  Vertex v's root, with k_v free
    children and m_v = n - v + 1 labels still free, takes
    ``label_share`` of the ``root_share`` times k_v * m_v, which sums to
    ``root_share`` * |E| over the sweep.  It sums
    c_v * sigma(c_v - x_hat_v) as described there, c_v the walk's charge,
    and when that exceeds eps it sweeps again one level deeper, up to the
    a-priori depth, whose sweep gives each root ``root_share`` * k_v and
    ends the search; the report is the last sweep's.  The log factors are
    summed in the same ascending order, so reruns agree bit for bit.  A
    marginal too small for a normal float takes its log from the walk's
    log ratio, so no finite input raises for underflow.

    Raises DecayConditionError when the contraction condition fails (no
    estimate is produced).
    """
    started = time.perf_counter()
    _check_eps(eps)
    scalars = system_scalars(system, degree_bound)
    if not decay_condition_holds(scalars):
        raise DecayConditionError(
            scalars.contraction,
            max_coupling=scalars.max_coupling,
            critical_coupling=scalars.critical_coupling,
            degree_bound=scalars.degree_bound,
        )
    n = system.graph.n
    start, a_priori = _depths(n, scalars.max_coupling, scalars.degree_bound, eps) if n else (0, 0)
    # k_v, the neighbours of v with a larger label: free at v's root
    larger = [0] * (n + 1)
    for u, _ in system.graph.edges:
        larger[u] += 1

    compiled = compile_system(system)
    for depth in range(start, a_priori + 1):
        share = root_share(scalars, depth)
        free = larger
        if share and depth < a_priori:  # a share of 0.0 splits nothing
            share = label_share(system.graph, share)
            # k_v * m_v, with m_v = n - v + 1 labels still free at v's walk
            free = [k * (n + 1 - v) for v, k in enumerate(larger)]
        stops = compiled.stops()
        estimates = []
        log_p_total = certificate = 0.0
        for vertex in range(1, n + 1):
            log_ratio, count, charge = walk_log_ratio(compiled, stops, vertex, depth, share * free[vertex])
            p_hat = marginal_plus(log_ratio)
            if p_hat >= _MIN_NORMAL:
                log_p_total += math.log(p_hat)
            else:  # log(R / (1 + R)); here log_ratio < -708, so exp cannot overflow
                log_p_total += log_ratio - math.log1p(math.exp(log_ratio))
            estimates.append(VertexEstimate(vertex, depth, count, p_hat))
            certificate += charge * marginal_plus(charge - log_ratio)
            stops[vertex] = PINNED_PLUS
        if depth == a_priori or certificate <= eps:
            break  # certified a priori, or by the walks' charges

    log_all_plus = all_plus_log_weight(system)
    return EstimateReport(
        log_z_hat=log_all_plus - log_p_total,
        eps=eps,
        log_weight_all_plus=log_all_plus,
        degree_bound=scalars.degree_bound,
        max_coupling=scalars.max_coupling,
        critical_coupling=scalars.critical_coupling,
        contraction=scalars.contraction,
        truncation_depth=depth,
        vertices=tuple(estimates),
        wall_time_s=time.perf_counter() - started,
    )
