"""Exact brute-force references and property checkers.

``exact_log_partition`` enumerates configurations (vectorized in chunks,
capped at 2**24 free vertices) and is the ground truth every approximation
in this package is judged against.  The ``check_*`` functions exercise the
quantitative guarantees at desk scale: the root-marginal identity of the
walk tree, the per-edge contraction inequality, the boundary-decay envelope
(``decay_function``), and the telescoping product.  Each returns a CheckReport that fails exactly
when its worst violation exceeds its tolerance.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple

import numpy as np

from . import _LAZY_ALL
from .core import (
    Condition, Graph, Record, Spin, SpinSystem, SystemScalars, _count, _real, checked_condition,
    interaction_strength, system_scalars,
)
from .families import attach_spin_model, build_family_graph, ising_system
from .marginal import compile_system, marginal_plus, walk_log_ratio
from .partition import all_plus_log_weight
from .sawtree import edge_factor_log

# The package lists these names so it can export them without importing
# this module, which loads numpy.
__all__ = list(_LAZY_ALL["oracle"])

MAX_FREE_VERTICES = 24
_CHUNK = 1 << 18


class CheckReport(
    Record,
    namedtuple("CheckReport", "name trials max_violation tolerance passed worst_case"),
):
    """Outcome of one property check; fails exactly when
    max_violation > tolerance.  worst_case fingerprints the offender."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def _report(name: str, trials: int, max_violation, tolerance: float, worst_case: str) -> CheckReport:
    max_violation = float(max_violation)
    return CheckReport(
        name=name,
        trials=trials,
        max_violation=max_violation,
        tolerance=tolerance,
        passed=max_violation <= tolerance,
        worst_case=worst_case,
    )


def _logsumexp(weights: np.ndarray) -> float:
    """log(sum(exp(weights))) of a nonempty array of finite weights.

    The largest entries are factored out and the rest summed through
    log1p, in the order scipy.special.logsumexp uses (SciPy 1.15 and
    later), so the two agree bit for bit.
    """
    peak = weights.max()
    top = weights == peak
    count = top.sum(dtype=weights.dtype)
    rest = np.where(top, 0.0, np.exp(weights - peak)).sum() / count
    return float(np.log1p(rest) + np.log(count) + peak)


def exact_log_partition(system: SpinSystem, condition=None) -> float:
    """Exact log of the sum of configuration weights consistent with the
    condition, via chunked enumeration and a running log-sum-exp.

    Refuses more than 2**24 free vertices; this is a reference
    implementation, not an algorithm.
    """
    graph = system.graph
    cond = checked_condition(graph.n, None, condition)
    free = [v for v in graph.vertices() if v not in cond]
    k = len(free)
    if k > MAX_FREE_VERTICES:
        raise ValueError(
            f"brute force refuses {k} free vertices (cap {MAX_FREE_VERTICES})"
        )
    position = {v: i for i, v in enumerate(free)}

    base = 0.0
    free_h = np.empty((k, 2))
    for v in graph.vertices():
        f = system.fields[v]
        i = position.get(v)
        if i is None:
            base += f.value(cond[v])
        else:
            free_h[i, 0] = f.h_minus
            free_h[i, 1] = f.h_plus

    both_free: list[tuple[int, int, np.ndarray]] = []
    half_free: list[tuple[int, np.ndarray]] = []
    for (u, v), pot in system.potentials.items():
        iu = position.get(u)
        iv = position.get(v)
        if iu is not None and iv is not None:
            table = np.array([[pot.mm, pot.mp], [pot.pm, pot.pp]])
            both_free.append((iu, iv, table))
        elif iu is None and iv is None:
            base += pot.value(cond[u], cond[v])
        elif iv is None:
            pinned = cond[v]
            table = np.array([pot.value(Spin.MINUS, pinned), pot.value(Spin.PLUS, pinned)])
            half_free.append((iu, table))
        else:
            pinned = cond[u]
            table = np.array([pot.value(pinned, Spin.MINUS), pot.value(pinned, Spin.PLUS)])
            half_free.append((iv, table))

    total = None
    count = 1 << k
    shifts = np.arange(k, dtype=np.uint64)
    columns = np.arange(k)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        index = np.arange(start, stop, dtype=np.uint64)
        bits = ((index[:, None] >> shifts) & 1).astype(np.intp)
        weights = np.full(stop - start, base)
        if k:
            weights += free_h[columns, bits].sum(axis=1)
        for iu, iv, table in both_free:
            weights += table[bits[:, iu], bits[:, iv]]
        for iv, table in half_free:
            weights += table[bits[:, iv]]
        piece = _logsumexp(weights)
        total = piece if total is None else float(np.logaddexp(total, piece))
    return float(total)


def exact_conditional_marginal(system: SpinSystem, vertex: int, spin: Spin, condition=None) -> float:
    """Exact probability that ``vertex`` takes ``spin`` given the condition,
    as a ratio of two partition sums."""
    cond = checked_condition(system.graph.n, vertex, condition)
    numerator = exact_log_partition(system, {**cond, vertex: Spin(spin)})
    denominator = exact_log_partition(system, cond)
    return math.exp(numerator - denominator)


def _identity_gaps(system: SpinSystem, cond: Condition, roots=None):
    """(root, gap) at each of ``roots`` (default: every vertex free under
    ``cond``): the gap between the exact marginal of + and the root marginal
    of the complete walk tree, which ``walk_log_ratio`` walks without an
    allowance to the vertex count, over the system compiled once."""
    graph = system.graph
    if roots is None:
        roots = [v for v in graph.vertices() if v not in cond]
    denominator = exact_log_partition(system, cond)
    compiled = compile_system(system)
    stops = compiled.stops(cond)
    for root in roots:
        numerator = exact_log_partition(system, {**cond, root: Spin.PLUS})
        exact = math.exp(numerator - denominator)
        log_ratio, _, _ = walk_log_ratio(compiled, stops, root, graph.n)
        yield root, abs(exact - marginal_plus(log_ratio))


def check_saw_identity(system: SpinSystem, vertex: int, condition=None) -> CheckReport:
    """Root marginal of the complete walk tree vs the exact marginal, at
    tolerance 1e-9."""
    cond = checked_condition(system.graph.n, vertex, condition)
    ((_, gap),) = _identity_gaps(system, cond, [vertex])
    worst = f"vertex={vertex} n={system.graph.n} condition={cond!r}"
    return _report("saw-marginal-identity", 1, gap, 1e-9, worst)


def check_contraction(trials: int = 100_000, seed: int = 0, tolerance: float = 1e-12) -> CheckReport:
    """The per-edge contraction inequality on random positive tables.

    For g(x) = (a x + b) / (c x + d) with entries log-uniform in
    [e**-5, e**5], checks
        |log g(x) - log g(y)| <= s * |log x - log y|
    with s = |sqrt(ad) - sqrt(bc)| / (sqrt(ad) + sqrt(bc)), measuring the
    violation relative to max(1, right-hand side).
    """
    rng = np.random.default_rng(seed)
    logs = rng.uniform(-5.0, 5.0, size=(trials, 6))
    a, b, c, d, x, y = np.exp(logs.T)
    gx = (a * x + b) / (c * x + d)
    gy = (a * y + b) / (c * y + d)
    lhs = np.abs(np.log(gx) - np.log(gy))
    root_ad = np.sqrt(a * d)
    root_bc = np.sqrt(b * c)
    slope = np.abs(root_ad - root_bc) / (root_ad + root_bc)
    rhs = slope * np.abs(np.log(x) - np.log(y))
    violation = (lhs - rhs) / np.maximum(1.0, rhs)
    worst_index = int(np.argmax(violation))
    worst = (
        f"seed={seed} trial={worst_index} "
        f"log_entries={np.array2string(logs[worst_index], precision=6)}"
    )
    return _report("contraction-inequality", trials, violation[worst_index], tolerance, worst)


def check_edge_factor_lipschitz(trials: int = 10_000, seed: int = 0, tolerance: float = 1e-12) -> CheckReport:
    """edge_factor_log moves at most 4 * atanh(tanh|J| * tanh(|delta| / 4))
    when the child log ratio moves by delta, J = interaction_strength,
    measured over random tables and ratio pairs.

    Every edge factor is a shifted Ising factor of the child's log ratio,
    so this is its exact range over an interval of width |delta| centred on
    its steepest point, and at most tanh|J| * |delta|: the report checks the
    Lipschitz bound and the frontier half-range that ``truncation_depth``
    rests on."""
    from .core import EdgePotential

    rng = np.random.default_rng(seed)
    entries = rng.uniform(-2.0, 2.0, size=(trials, 4))
    ratios = rng.uniform(-25.0, 25.0, size=(trials, 2))
    max_violation = -math.inf
    worst = ""
    for i in range(trials):
        potential = EdgePotential(*entries[i])
        slope = math.tanh(abs(interaction_strength(potential)))
        first, second = ratios[i]
        lhs = abs(edge_factor_log(potential, first) - edge_factor_log(potential, second))
        rhs = 4.0 * math.atanh(slope * math.tanh(abs(first - second) / 4.0))
        violation = (lhs - rhs) / max(1.0, rhs)
        if violation > max_violation:
            max_violation = violation
            worst = f"seed={seed} trial={i} entries={np.array2string(entries[i], precision=6)}"
    return _report("edge-factor-lipschitz", trials, max_violation, tolerance, worst)


def decay_function(distance: int, coupling: float, degree: int) -> float:
    """Envelope on how far the root log-marginal can move when spins at a
    given distance change:

        4 * coupling * degree * ((degree - 1) * tanh(coupling)) ** (distance - 1)

    It bounds any change of the boundary at that distance, from all minus
    to all plus included.  The estimator truncates its walk trees at depth
    t and lets each frontier leaf look one level further, at its children's
    pinned factors.  It charges such a leaf the exact half-range
    a = atanh(tanh(coupling) * tanh((degree - 1) * coupling)) of its edge
    factor, not the linearised coupling * (degree - 1) * tanh(coupling),
    so a root with k of its ``degree`` children free is within
    2 * a * k * rate**(t - 1), at most k / degree of half the envelope at
    distance t + 1, in its log ratio.  Its log marginal is within that
    times sigma(2 * a * k * rate**(t - 1) - x_hat), about 1/2 when the
    estimated log ratio x_hat is nonnegative.  The sweep's start depth
    counts on that halving and on the walks' charges falling short of
    those bounds, and certifies itself from the charges (see
    ``truncation_depth``).
    """
    _count(distance, "distance", 1)
    _real(coupling, "coupling")
    _count(degree, "degree", 1)
    rate = SystemScalars.at(coupling, degree).contraction
    try:  # an exponent beyond the float range is the largest float, as in root_share
        return 4.0 * coupling * degree * rate ** min(distance - 1, sys.float_info.max)
    except OverflowError:  # a rate above 1 raised that high leaves the float range
        return math.inf


def max_boundary_gap(system: SpinSystem, vertex: int, sphere, trials: int, rng) -> tuple[float, str]:
    """Largest |log p - log p'| at ``vertex`` over random spin-pair draws on
    the sphere, computed from exact partition sums."""
    worst = ""
    largest = 0.0
    sphere = list(sphere)
    if vertex in sphere:
        raise ValueError(f"vertex {vertex} is already conditioned")
    for trial in range(trials):
        first = rng.integers(0, 2, len(sphere))
        second = rng.integers(0, 2, len(sphere))
        if np.array_equal(first, second):
            second = second.copy()
            second[0] ^= 1
        log_p = []
        for draw in (first, second):
            cond = {v: (Spin.PLUS if bit else Spin.MINUS) for v, bit in zip(sphere, draw)}
            log_p.append(
                exact_log_partition(system, {**cond, vertex: Spin.PLUS})
                - exact_log_partition(system, cond)
            )
        gap = abs(log_p[0] - log_p[1])
        if gap > largest:
            largest = gap
            worst = f"trial={trial}"
    return largest, worst


def _decay_bound_report(
    system: SpinSystem, vertex: int, radius: int, trials: int, rng,
    scalars: SystemScalars, tolerance: float, worst_case: str,
) -> tuple[int, float, float, CheckReport]:
    """The sphere's size, the decay envelope and the largest boundary gap at
    ``radius`` from ``vertex``, and their boundary-decay-bound report,
    measured / envelope - 1 (at an envelope of 0, 0 when measured is within
    rounding of 0); refuses an empty sphere.  ``worst_case`` is a format
    string over ``measured``, ``envelope`` and ``trial`` (the worst draw)."""
    sphere = system.graph.vertices_at_distance(vertex, radius)
    if not sphere:
        raise ValueError(f"no vertices at distance {radius} from vertex {vertex}")
    envelope = decay_function(radius, scalars.max_coupling, scalars.degree_bound)
    measured, trial = max_boundary_gap(system, vertex, sphere, trials, rng)
    if envelope > 0.0:
        violation = measured / envelope - 1.0
    else:
        violation = 0.0 if measured <= 1e-12 else math.inf
    worst = worst_case.format(measured=measured, envelope=envelope, trial=trial)
    report = _report("boundary-decay-bound", trials, violation, tolerance, worst)
    return len(sphere), envelope, measured, report


def measure_decay(
    system: SpinSystem, vertex: int, radius: int, trials: int = 100, seed: int = 0
) -> tuple[int, float, float, CheckReport]:
    """The sphere's size, the decay envelope for the graph's maximum degree
    and the largest boundary gap at ``radius`` from ``vertex``, with the
    report of ``check_decay_bound`` that judges them."""
    rng = np.random.default_rng(seed)
    scalars = system_scalars(system)
    worst_case = (
        f"vertex={vertex} radius={radius} measured={{measured:.6e}} "
        f"envelope={{envelope:.6e}} seed={seed} {{trial}}"
    )
    return _decay_bound_report(system, vertex, radius, trials, rng, scalars, 1e-9, worst_case)


def check_decay_bound(
    system: SpinSystem, vertex: int, radius: int, trials: int = 100, seed: int = 0
) -> CheckReport:
    """Conditioning the sphere at ``radius`` moves the root log-marginal by
    at most the decay envelope for the graph's maximum degree; reports
    measured / envelope - 1 at tolerance 1e-9."""
    return measure_decay(system, vertex, radius, trials, seed)[3]


def check_decay_geometric(
    seed: int = 0, pairs_per_radius: int = 100, graph_count: int = 3, tolerance: float = 1e-9
) -> list[CheckReport]:
    """Decay-envelope suite on 3-regular graphs with n=10 and Ising J=0.4:
    an envelope report at each radius 1, 2 and 3, plus one geometric-decay
    report per graph (each measured maximum is at most the previous one
    times the contraction factor plus 0.1; a previous maximum of at most
    ``tolerance`` is skipped)."""
    reports: list[CheckReport] = []
    found = 0
    attempt = 0
    while found < graph_count:
        attempt += 1
        if attempt > 200:
            raise RuntimeError("could not find enough graphs with the required eccentricity")
        graph_seed = seed * 1000 + attempt
        graph = build_family_graph("random_regular", n=10, degree=3, seed=graph_seed)
        root = None
        for v in graph.vertices():
            distances = graph.distances_from(v)
            if len(distances) == 10 and max(distances.values()) >= 3:
                root = v
                break
        if root is None:
            continue
        system = ising_system(graph, 0.4)
        scalars = system_scalars(system)
        rng = np.random.default_rng(graph_seed)
        measured = []
        for radius in (1, 2, 3):
            worst_case = (
                f"graph_seed={graph_seed} root={root} radius={radius} "
                "measured={measured:.6e} envelope={envelope:.6e}"
            )
            _, _, gap, report = _decay_bound_report(
                system, root, radius, pairs_per_radius, rng, scalars, tolerance, worst_case
            )
            measured.append(gap)
            reports.append(report)
        threshold = scalars.contraction + 0.1
        # A maximum within tolerance of 0 (few trials, or none that moved
        # the root beyond rounding) bounds no ratio, so the ratio after it
        # is skipped.
        worst_ratio = max(
            (
                later / earlier
                for earlier, later in zip(measured, measured[1:])
                if earlier > tolerance
            ),
            default=0.0,
        )
        reports.append(
            _report(
                "boundary-decay-geometric",
                2,
                worst_ratio - threshold,
                0.0,
                f"graph_seed={graph_seed} root={root} worst_ratio={worst_ratio:.6f} "
                f"threshold={threshold:.6f}",
            )
        )
        found += 1
    return reports


def connected_graphs(n: int):
    """All labeled connected graphs on vertices 1..n, in edge-mask order."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        graph = Graph.from_edges(n, edges)
        if graph.is_connected():
            yield graph


def _random_condition(rng, graph: Graph) -> Condition:
    assignment: Condition = {}
    for v in graph.vertices():
        roll = rng.random()
        if roll < 0.15:
            assignment[v] = Spin.PLUS
        elif roll < 0.30:
            assignment[v] = Spin.MINUS
    if len(assignment) == graph.n and assignment:
        del assignment[next(iter(assignment))]
    return assignment


def check_saw_identity_exhaustive(
    max_n: int = 5, draws: int = 20, seed: int = 0, tolerance: float = 1e-9
) -> CheckReport:
    """Walk-tree marginal identity over every connected graph up to max_n
    vertices, with random tables (entries and fields bounded by 1.0) and
    random conditions, checked at every free root."""
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    worst = ""
    checked = 0
    for n in range(1, max_n + 1):
        for graph_index, graph in enumerate(connected_graphs(n)):
            for draw in range(draws):
                system = attach_spin_model(
                    graph, "random", 1.0, 1.0, seed=int(rng.integers(2**32))
                )
                cond = _random_condition(rng, graph)
                for root, gap in _identity_gaps(system, cond):
                    checked += 1
                    if gap > max_gap:
                        max_gap = gap
                        worst = f"n={n} graph={graph_index} draw={draw} root={root} seed={seed}"
    return _report("saw-marginal-identity-exhaustive", checked, max_gap, tolerance, worst)


def check_saw_identity_random(
    instances: int = 50,
    max_n: int = 10,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Walk-tree marginal identity on random sparse instances, every free root."""
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    worst = ""
    checked = 0
    for instance in range(instances):
        system = _random_instance(rng, max_n=max_n, min_n=6)
        graph = system.graph
        cond = _random_condition(rng, graph)
        for root, gap in _identity_gaps(system, cond):
            checked += 1
            if gap > max_gap:
                max_gap = gap
                worst = f"instance={instance} root={root} n={graph.n} seed={seed}"
    return _report("saw-marginal-identity-random", checked, max_gap, tolerance, worst)


def check_telescoping(
    instances: int = 50,
    max_n: int = 12,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> CheckReport:
    """The all-plus weight divided by the exact sweep marginals reconstructs
    the exact partition sum."""
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    worst = ""
    for instance in range(instances):
        system = _random_instance(rng, max_n=max_n)
        n = system.graph.n
        exact = exact_log_partition(system)
        log_factors = 0.0
        for vertex in range(1, n + 1):
            pinned_before = {i: Spin.PLUS for i in range(1, vertex)}
            log_factors += exact_log_partition(
                system, {**pinned_before, vertex: Spin.PLUS}
            ) - exact_log_partition(system, pinned_before)
        reconstructed = all_plus_log_weight(system) - log_factors
        gap = abs(reconstructed - exact)
        if gap > max_gap:
            max_gap = gap
            worst = f"instance={instance} n={n} seed={seed}"
    return _report("telescoping-product", instances, max_gap, tolerance, worst)


def _random_instance(rng, max_n: int = 12, min_n: int = 4) -> SpinSystem:
    n = int(rng.integers(min_n, max_n + 1))
    expected_degree = float(rng.uniform(1.0, 3.5))
    graph = build_family_graph(
        "erdos_renyi", n=n, degree=expected_degree, seed=int(rng.integers(2**32))
    )
    if rng.random() < 0.5:
        return attach_spin_model(
            graph, "random", float(rng.uniform(0.2, 1.2)), 1.0, seed=int(rng.integers(2**32))
        )
    return ising_system(graph, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
