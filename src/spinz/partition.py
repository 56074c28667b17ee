"""Deterministic partition-function estimation with an accuracy guarantee.

The log partition function is assembled from the all-plus configuration
weight and a telescoping product of conditional marginals: vertex j is
estimated with vertices 1..j-1 pinned to +.  Each marginal comes from a
depth-truncated walk tree whose depth is chosen so every factor is within
eps/n in log, giving |log(estimate) - log(exact)| <= eps overall whenever
the contraction condition (degree_bound - 1) * tanh(max_coupling) < 1 holds.

The sweep compiles the system once (``compile_system``): twice the field of
every vertex and, per vertex, its edge tables oriented outward in ascending
neighbour order, with the factors of pinned and frontier children
precomputed.  Pinning is by rank: one per-label stop array (see
``walk_log_ratio``) is shared by the whole sweep, and vertex j pins itself to
+ when its walk is done, so every later walk sees 1..j pinned.  Each walk
evaluates its tree while walking it, keeping one frame per level, so the
estimate path holds O(depth) state per vertex and builds no ``SawTree``
and no ``Condition``.  Its output equals that of ``tree_log_ratio`` over
``build_saw_tree`` bit for bit.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .core import (
    DecayConditionError,
    SpinSystem,
    decay_condition_holds,
    system_scalars,
)
from .marginal import PINNED_PLUS, CompiledSystem, compile_system, marginal_plus, walk_log_ratio
from .sawtree import checked_condition

__all__ = [
    "VertexEstimate",
    "EstimateReport",
    "MarginalUnderflowError",
    "all_plus_log_weight",
    "truncation_depth",
    "conditional_marginal_estimate",
    "fptas_log_partition",
]


class MarginalUnderflowError(RuntimeError):
    """A conditional marginal underflowed to exactly 0, so its log is unusable."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(
            f"estimated conditional marginal at vertex {vertex} underflowed to 0; "
            "the telescoping product cannot be formed"
        )


@dataclass(frozen=True)
class VertexEstimate:
    """One telescoping factor: vertex, tree depth, nodes built, estimated marginal."""

    vertex: int
    depth: int
    node_count: int
    p_hat: float


@dataclass(frozen=True)
class EstimateReport:
    """Result of a partition-function estimate plus its work bookkeeping."""

    log_z_hat: float
    eps: float
    log_weight_all_plus: float
    degree_bound: int
    max_coupling: float
    critical_coupling: float
    contraction: float
    truncation_depth: int
    vertices: tuple[VertexEstimate, ...]
    wall_time_s: float

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
    plus sum of h_plus entries.  Zero for the empty graph."""
    return sum(p.pp for p in system.potentials.values()) + sum(
        f.h_plus for f in system.fields.values()
    )


def _check_eps(eps: float) -> None:
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")


def truncation_depth(n: int, coupling: float, degree: int, eps: float) -> int:
    """Walk-tree depth making every telescoping factor accurate to eps/n in log.

    Computed as ceil(log(4 * n * coupling * degree / eps) / log(1 / rate) + 1)
    with rate = (degree - 1) * tanh(coupling), floored at 1.  Natural logs
    throughout.  Raises DecayConditionError when rate >= 1.

    Zero coupling needs no depth at all (every edge factor is constant), so
    the answer is 1.  A degree bound of 1 contracts in a single step but the
    envelope at depth 1 is not small, so the answer is 2, which is exact on
    such graphs.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if coupling < 0:
        raise ValueError("coupling must be nonnegative")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    _check_eps(eps)
    rate = (degree - 1) * math.tanh(coupling)
    if rate >= 1.0:
        raise DecayConditionError(rate, max_coupling=coupling, degree_bound=degree)
    if coupling == 0:
        return 1
    if rate <= 0.0:
        return 2
    raw = math.log(4.0 * n * coupling * degree / eps) / math.log(1.0 / rate) + 1.0
    return max(1, math.ceil(raw))


def conditional_marginal_estimate(
    system: SpinSystem,
    vertex: int,
    condition=None,
    depth: int = 1,
    frontier: float = -math.inf,
) -> float:
    """Estimated probability that ``vertex`` is + under ``condition``.

    Evaluates the walk tree truncated at ``depth`` (at least 1), without
    building it, with the given frontier value (default: unexplored region
    pinned to minus).  The result is exact whenever the tree has no frontier.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if condition is not None and vertex in condition:
        raise ValueError(f"vertex {vertex} is conditioned; its marginal is pinned")
    cond = checked_condition(system.graph.n, vertex, condition)
    compiled = compile_system(system, frontier)
    log_ratio, _ = walk_log_ratio(compiled, compiled.stops(cond), vertex, depth)
    return marginal_plus(log_ratio)


def _sweep(compiled: CompiledSystem, depth: int, first: int, last: int) -> list[VertexEstimate]:
    """Estimate vertices first..last in ascending order, each with every
    lower label pinned to +."""
    stops = compiled.stops()
    stops[1:first] = [PINNED_PLUS] * (first - 1)
    estimates = []
    for vertex in range(first, last + 1):
        log_ratio, count = walk_log_ratio(compiled, stops, vertex, depth)
        estimates.append(VertexEstimate(vertex, depth, count, marginal_plus(log_ratio)))
        stops[vertex] = PINNED_PLUS
    return estimates


def fptas_log_partition(
    system: SpinSystem,
    eps: float,
    degree_bound: int | None = None,
    frontier: float = -math.inf,
    workers: int = 1,
) -> EstimateReport:
    """Estimate log Z with |log_z_hat - log Z| <= eps, deterministically.

    Args:
        system: the spin system.
        eps: target accuracy in log; must be positive and finite.
        degree_bound: degree parameter for the depth formula; defaults to
            the maximum degree.
        frontier: log ratio for unexplored walk-tree leaves.
        workers: threads, each sweeping one block of consecutive vertices;
            the reduction always sums in ascending vertex order, so results
            are identical for any count.  The sweep is pure Python and holds
            the interpreter lock, so more than one is not faster.

    Raises DecayConditionError when the contraction condition fails (no
    estimate is produced) and MarginalUnderflowError if a factor collapses
    to exactly 0.
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
    log_all_plus = all_plus_log_weight(system)
    if n == 0:
        return EstimateReport(
            log_z_hat=log_all_plus,
            eps=eps,
            log_weight_all_plus=log_all_plus,
            degree_bound=scalars.degree_bound,
            max_coupling=scalars.max_coupling,
            critical_coupling=scalars.critical_coupling,
            contraction=scalars.contraction,
            truncation_depth=0,
            vertices=(),
            wall_time_s=time.perf_counter() - started,
        )
    depth = truncation_depth(n, scalars.max_coupling, scalars.degree_bound, eps)

    compiled = compile_system(system, frontier)
    if workers > 1:
        # One block of consecutive vertices per thread; each block has its
        # own stop array.
        size = -(-n // workers)
        blocks = [(first, min(n, first + size - 1)) for first in range(1, n + 1, size)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(lambda block: _sweep(compiled, depth, *block), blocks)
            estimates = [est for part in parts for est in part]
    else:
        estimates = _sweep(compiled, depth, 1, n)

    log_p_total = 0.0
    for est in estimates:  # ascending vertex order: deterministic reduction
        if est.p_hat <= 0.0:
            raise MarginalUnderflowError(est.vertex)
        log_p_total += math.log(est.p_hat)

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
