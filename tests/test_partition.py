from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import sys

import numpy as np
import pytest

from spinz import (
    Condition,
    DecayConditionError,
    EdgePotential,
    GenSpec,
    Graph,
    Spin,
    SpinSystem,
    VertexEstimate,
    VertexField,
    all_plus_log_weight,
    build_family_graph,
    build_saw_tree,
    compile_system,
    conditional_marginal_estimate,
    critical_inverse_temperature,
    exact_conditional_marginal,
    exact_log_partition,
    fptas_log_partition,
    generate,
    format_saw_tree,
    frontier_count,
    ising_potential,
    ising_system,
    load_system,
    marginal_plus,
    parse_system,
    root_allowance,
    root_share,
    system_scalars,
    tree_log_ratio,
    truncation_depth,
    walk_log_ratio,
)
import spinz.partition
from spinz.marginal import PINNED_PLUS

from .helpers import (
    acceptance_instance,
    again_instance,
    benchmark_spec,
    equal_split_depths,
    identity_document,
    ising_strip_log_z,
    random_system,
    run,
    strip_log_z,
)


def test_all_plus_log_weight_examples():
    single = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(0.7, -0.1)})
    assert all_plus_log_weight(single) == pytest.approx(0.7, abs=1e-15)
    empty = SpinSystem(Graph.from_edges(0, []), {}, {})
    assert all_plus_log_weight(empty) == 0.0
    triangle = ising_system(build_family_graph("cycle", n=3), 0.2, 0.1)
    assert all_plus_log_weight(triangle) == pytest.approx(0.9, abs=1e-15)


def test_all_plus_log_weight_sums_left_to_right():
    # Builtin sum() compensates on Python 3.12+ and gives ...cc6p+1 here;
    # plain additions give these bits on every version.
    graph = build_family_graph("cycle", n=10)
    rng = random.Random(1)
    potentials = {e: EdgePotential(*(rng.uniform(-3, 3) for _ in range(4))) for e in graph.edges}
    fields = {v: VertexField(rng.uniform(-3, 3), rng.uniform(-3, 3)) for v in graph.vertices()}
    weight = all_plus_log_weight(SpinSystem(graph, potentials, fields))
    assert weight.hex() == "-0x1.460e35d425cc8p+1"


def _start_budget(eps: float) -> float:
    """The D that solves D * (1/2 + D/4) = eps, so that D * sigma(D) <= eps."""
    return 4 * eps / (1 + math.sqrt(1 + 4 * eps))


def _rate_and_half_range(coupling: float, degree: int) -> tuple[float, float]:
    rate = (degree - 1) * math.tanh(coupling)
    return rate, math.atanh(math.tanh(coupling) * math.tanh((degree - 1) * coupling))


def test_truncation_depth_reference_value():
    # the smallest t with n*d*a*rate^t <= D; the a-priori rule, the
    # smallest t with n*d*a*rate^(t-1) <= eps, needs two levels more here
    assert truncation_depth(10, 0.3, 3, 0.1) == 7
    rate, half_range = _rate_and_half_range(0.3, 3)
    budget = _start_budget(0.1)
    assert 30 * half_range * rate ** 7 <= budget < 30 * half_range * rate ** 6
    assert 30 * half_range * rate ** 8 <= 0.1 < 30 * half_range * rate ** 7


def test_truncation_depth_zero_coupling():
    assert truncation_depth(10, 0.0, 3, 0.1) == 1
    assert truncation_depth(1, 0.0, 50, 1e-6) == 1
    # the frontier's half-range a underflows to 0 here, and with it
    # n * degree * a / eps; any depth certifies such an eps
    assert 3 * 1e-300 * 2 / 1e300 == 0.0
    assert math.atanh(math.tanh(1e-300) * math.tanh(1e-300)) == 0.0
    assert truncation_depth(3, 1e-300, 2, 1e300) == 1


def test_truncation_depth_degenerate_degrees():
    # d <= 1 kills the contraction rate: a depth-1 frontier leaf then has
    # no children, so its interval is a point and depth 1 is exact
    assert truncation_depth(5, 0.4, 1, 0.1) == 1
    assert truncation_depth(5, 0.4, 0, 0.1) == 1
    assert truncation_depth(10**6, 50.0, 1, 1e-12) == 1
    with pytest.raises(ValueError, match="^degree must be an integer >= 0, got -1$"):
        truncation_depth(5, 0.4, -1, 0.1)


def test_truncation_depth_at_the_edge_of_contraction():
    # At d = 2 the rate is tanh(J) itself.  Just below 1 the depth is huge
    # but finite, and a = atanh(tanh(J)^2) is finite too; once tanh(J)
    # rounds to 1 the rate is 1 and the refusal comes before atanh(1).
    assert math.tanh(18.0) < 1.0
    depth = truncation_depth(5, 18.0, 2, 0.1)
    assert 1e15 < depth < math.inf
    assert math.tanh(20.0) == 1.0
    with pytest.raises(DecayConditionError):
        truncation_depth(5, 20.0, 2, 0.1)


def test_truncation_depth_never_above_the_linearised_rule():
    # The linearised frontier bound tanh(J) * 2J(d-1) is at least the
    # exact half-range 2a, so the depth is at most the smallest t with
    # J*n*d*rate^t <= eps, and one level less somewhere on this grid.
    fewer = 0
    for n in (1, 10, 24, 400, 10**5):
        for degree in (2, 3, 4, 6):
            for coupling in (1e-3, 0.05, 0.2, 0.3, 0.5, 1.0, 2.0):
                rate = (degree - 1) * math.tanh(coupling)
                if rate >= 1.0:
                    continue
                for eps in (1.0, 0.1, 1e-3, 1e-8):
                    depth = truncation_depth(n, coupling, degree, eps)
                    scale = n * coupling * degree / eps
                    linear = 1 if scale <= 1.0 else max(
                        1, math.ceil(math.log(scale) / math.log(1.0 / rate))
                    )
                    assert 1 <= depth <= linear, (n, degree, coupling, eps)
                    fewer += depth < linear
    assert fewer > 0


def test_truncation_depth_eps_growth_bounded():
    rate = 2 * math.tanh(0.3)
    step = math.ceil(math.log(2) / math.log(1 / rate)) + 1
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05):
        a = truncation_depth(10, 0.3, 3, eps)
        b = truncation_depth(10, 0.3, 3, eps / 2)
        assert a <= b <= a + step


def test_truncation_depth_n_growth_bounded():
    rate = 2 * math.tanh(0.3)
    step = math.ceil(math.log(2) / math.log(1 / rate)) + 1
    for n in (5, 10, 20, 40):
        a = truncation_depth(n, 0.3, 3, 0.1)
        b = truncation_depth(2 * n, 0.3, 3, 0.1)
        assert a <= b <= a + step


def test_truncation_depth_rejects_bad_inputs():
    with pytest.raises(ValueError):
        truncation_depth(0, 0.3, 3, 0.1)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            truncation_depth(10, 0.3, 3, eps)
    # n * degree * a / eps overflows to inf here.
    with pytest.raises(ValueError, match="eps=1e-320 is too small"):
        truncation_depth(10, 0.3, 3, 1e-320)
    with pytest.raises(ValueError):
        truncation_depth(10, -0.1, 3, 0.1)
    with pytest.raises(DecayConditionError):
        truncation_depth(10, 0.6, 3, 0.1)


def test_conditional_marginal_isolated_vertex():
    system = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(0.4, 0.4)})
    assert conditional_marginal_estimate(system, 1) == pytest.approx(0.5, abs=1e-15)


def test_conditional_marginal_symmetric_system():
    system = ising_system(build_family_graph("cycle", n=4), 0.3)
    for v in system.graph.vertices():
        assert conditional_marginal_estimate(system, v, depth=4) == pytest.approx(
            0.5, abs=1e-12
        )


def test_conditional_marginal_conditioned_path():
    system = ising_system(build_family_graph("path", n=2), 0.3)
    got = conditional_marginal_estimate(system, 2, Condition({1: Spin.PLUS}), depth=1)
    assert got == pytest.approx(0.6456563062257954, abs=1e-12)
    assert got == pytest.approx(
        exact_conditional_marginal(system, 2, Spin.PLUS, {1: Spin.PLUS}), abs=1e-12
    )


def test_conditional_marginal_rejects_conditioned_vertex():
    system = ising_system(build_family_graph("path", n=2), 0.3)
    with pytest.raises(ValueError):
        conditional_marginal_estimate(system, 1, Condition({1: Spin.PLUS}), depth=1)
    with pytest.raises(ValueError):
        conditional_marginal_estimate(system, 1, depth=0)


def test_fptas_single_vertex_log2():
    system = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(0.0, 0.0)})
    report = fptas_log_partition(system, 0.5)
    assert report.log_z_hat == pytest.approx(math.log(2), abs=1e-15)
    assert report.vertices[0].p_hat == pytest.approx(0.5, abs=1e-15)


def test_fptas_two_vertex_ising_reference():
    system = ising_system(build_family_graph("path", n=2), 0.3)
    report = fptas_log_partition(system, 0.01)
    reference = 1.430635131045831
    assert math.log(4 * math.cosh(0.3)) == pytest.approx(reference, abs=1e-15)
    assert abs(report.log_z_hat - reference) <= 0.01


def test_fptas_four_cycle_within_eps():
    system = ising_system(build_family_graph("cycle", n=4), 0.25, 0.1)
    report = fptas_log_partition(system, 0.05)
    exact = exact_log_partition(system)
    assert abs(report.log_z_hat - exact) <= 0.05


def test_fptas_empty_graph():
    system = SpinSystem(Graph.from_edges(0, []), {}, {})
    report = fptas_log_partition(system, 0.1)
    assert report.log_z_hat == 0.0
    assert report.vertices == ()


def test_fptas_degenerate_instances_end_in_a_finite_estimate():
    # The counts of larger-labelled neighbours feed the root allowances and
    # the certificate.  Neither may divide by zero or make a nan on the
    # empty graph, at depth 1, at zero coupling (where 1 / tanh(J) is
    # infinite) or at degree 1, nor on a degree-3 grid whose sweeps split a
    # nonzero share.  Negative fields make the estimated log ratios
    # negative, so the certificate is summed too.  All but the grid at
    # J = 0.3 estimate at depth 1.
    split = ising_system(build_family_graph("grid", rows=2, cols=3), 0.3, -0.3)
    cases = [
        SpinSystem(Graph.from_edges(0, []), {}, {}),
        SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(-0.3, 0.3)}),
        ising_system(build_family_graph("grid", rows=2, cols=3), 0.0, -0.2),
        ising_system(build_family_graph("path", n=2), 0.4, -0.3),
        split,
        ising_system(build_family_graph("random_regular", n=8, degree=3, seed=1), 1e-9, -0.2),
    ]
    for system in cases:
        exact = exact_log_partition(system)
        for eps in (0.1, 1e-6):
            report = fptas_log_partition(system, eps)
            assert math.isfinite(report.log_z_hat), (system.n, eps)
            assert abs(report.log_z_hat - exact) <= eps, (system.n, eps)
            if system is split:
                assert root_share(system_scalars(system), report.truncation_depth) > 0.0
            elif system.n:
                assert report.truncation_depth == 1
    # Depths the sweep never picks at zero coupling: root_share is 0.0
    # there, since the rate is 0, so the walks keep the uniform tree and
    # never stretch a share by an edge's infinite 1 / tanh(0), and every
    # factor is exact anyway.
    system = cases[2]
    for depth in (1, 2, 5):
        for v in system.graph.vertices():
            estimate = conditional_marginal_estimate(system, v, depth=depth)
            assert estimate == pytest.approx(exact_conditional_marginal(system, v, Spin.PLUS))


def test_fptas_report_internal_consistency():
    rng = np.random.default_rng(31)
    system = random_system(rng, 7, edge_prob=0.35, coupling=0.25)
    report = fptas_log_partition(system, 0.1)
    log_sum = sum(math.log(v.p_hat) for v in report.vertices)
    assert report.log_z_hat == pytest.approx(
        report.log_weight_all_plus - log_sum, abs=1e-12
    )
    assert all(0.0 < v.p_hat <= 1.0 for v in report.vertices)
    assert all(v.depth == report.truncation_depth for v in report.vertices)
    assert report.total_nodes == sum(v.node_count for v in report.vertices)
    assert report.wall_time_s >= 0.0
    assert [v.vertex for v in report.vertices] == list(system.graph.vertices())


def test_fptas_rejects_bad_eps_and_hot_instances():
    system = ising_system(build_family_graph("path", n=2), 0.3)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            fptas_log_partition(system, eps)
    hot = ising_system(build_family_graph("random_regular", n=8, degree=3, seed=2), 0.6)
    with pytest.raises(DecayConditionError) as info:
        fptas_log_partition(hot, 0.1)
    assert info.value.contraction == pytest.approx(1.0740991339960706, abs=1e-12)
    assert info.value.degree_bound == 3


def test_truncation_depth_refusal_names_the_critical_coupling():
    with pytest.raises(DecayConditionError) as info:
        truncation_depth(10, 0.6, 3, 0.1)
    err = info.value
    assert (err.max_coupling, err.degree_bound) == (0.6, 3)
    assert err.critical_coupling == critical_inverse_temperature(3)
    assert err.contraction == 2 * math.tanh(0.6)


def test_huge_decoupled_edge_certifies():
    # Edge (1, 2) adds 1e308 to every configuration and couples nothing, so
    # the estimate runs on edge (2, 3) alone and log Z is 1e308.
    graph = Graph.from_edges(3, [(1, 2), (2, 3)])
    system = SpinSystem(
        graph,
        {(1, 2): EdgePotential(1e308, 1e308, 1e308, 1e308), (2, 3): ising_potential(0.1)},
        {v: VertexField(0.0, 0.0) for v in graph.vertices()},
    )
    report = fptas_log_partition(system, 0.1)
    assert (report.max_coupling, report.contraction) == (0.1, math.tanh(0.1))
    with np.errstate(over="ignore"):
        assert report.log_z_hat == 1e308 == exact_log_partition(system)


def test_estimate_leaving_the_float_range_is_refused():
    # log Z is finite, but the log probability of the all-plus configuration
    # (one vertex) or its log weight (two vertices, fields summing to
    # -2e308) is not, so no finite estimate comes out.
    one = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(-1e308, 1e308)})
    two = SpinSystem(
        Graph.from_edges(2, [(1, 2)]),
        {(1, 2): ising_potential(0.1)},
        {1: VertexField(-1e308, 0.0), 2: VertexField(-1e308, 0.0)},
    )
    for system, log_z in ((one, 1e308), (two, 0.1)):
        with np.errstate(over="ignore"):
            assert exact_log_partition(system) == pytest.approx(log_z, rel=1e-12)
        with pytest.raises(ValueError, match=r"^log Z leaves the float range: the all-plus log weight "):
            fptas_log_partition(system, 0.1)


def _sweep_walk(report, system, compiled, vertex, depth):
    """walk_log_ratio of ``vertex`` under the report's pins, with the root
    allowance of the sweep at ``depth``: the report's own at its depth, and
    build_saw_tree's default at the shallower depths swept before it, all
    below the a-priori depth."""
    pinned = report.pinned_before(vertex)
    if depth == report.truncation_depth:
        allowance = report.vertices[vertex - 1].allowance
    else:
        allowance = root_allowance(system, vertex, depth, pinned, compiled)
    return walk_log_ratio(compiled, compiled.stops(pinned), vertex, depth, allowance)


def test_fptas_per_vertex_errors_within_their_certificate_terms():
    # The contract of the certificate: each vertex's log-marginal error is
    # at most c_v * sigma(c_v - x_hat_v), with x_hat_v the estimated log
    # ratio and c_v the charge of its walk, re-walked here from the report
    # (its depth, the vertex's allowance and pins), and these terms sum to
    # at most eps.  The allowances favour early vertices and roots leaning
    # to +, whose log marginals move by only sigma(-x_v) times their
    # log-ratio error.
    eps = 0.1
    worst = 0.0
    for seed in range(6):
        system = acceptance_instance("er", "random", 400 + seed)
        n = system.n
        report = fptas_log_partition(system, eps)
        depth = report.truncation_depth
        compiled = compile_system(system)
        certificate = 0.0
        for entry in report.vertices:
            v = entry.vertex
            cond = report.pinned_before(v)
            log_ratio, count, charge = walk_log_ratio(
                compiled, compiled.stops(cond), v, depth, entry.allowance
            )
            assert (marginal_plus(log_ratio), count) == (entry.p_hat, entry.node_count)
            assert charge.hex() == entry.charge.hex()
            term = charge * marginal_plus(charge - log_ratio)
            exact_p = exact_conditional_marginal(system, v, Spin.PLUS, cond)
            error = abs(math.log(entry.p_hat) - math.log(exact_p))
            assert error <= term + 1e-12, (seed, v)
            if log_ratio > 0.0:
                exact_ratio = math.log(exact_p) - math.log1p(-exact_p)
                worst = max(worst, abs(log_ratio - exact_ratio) / (eps / n))
            certificate += term
        assert certificate <= eps, seed
    # Some root leaning to + has a log ratio off by more than eps / n (2.68
    # times it, on seed 400's vertex 3), and its log marginal within its
    # term: the contract, not a per-vertex margin, is what holds.  Under
    # the equal certificate weight none of them was off by more than 0.37.
    assert worst > 1.0, worst


BUDGET_SPECS = [
    GenSpec("cycle", n=7),
    GenSpec("grid", rows=3, cols=3),
    GenSpec("random_regular", n=8, degree=3),
    GenSpec("random_regular", n=8, degree=4),
    GenSpec("complete", n=5),
    GenSpec("path", n=6),
    GenSpec("erdos_renyi", n=9, degree=2.5),
]


def _log_sigmoid(lam: float) -> float:
    return -math.log1p(math.exp(-lam)) if lam >= 0 else lam - math.log1p(math.exp(lam))


def _decoupled(system: SpinSystem) -> SpinSystem:
    """``system`` with every third edge given a table whose interaction
    strength is 0: alternately one with pp = mp and pm = mm, whose factor
    is 0.0 at every child ratio, and one whose factor is constant only up
    to rounding."""
    potentials = dict(system.potentials)
    for i, (edge, p) in enumerate(sorted(potentials.items())):
        if i % 3 == 0:
            potentials[edge] = EdgePotential(p.pp, p.pm, p.pp, p.pm)
        elif i % 3 == 1:
            potentials[edge] = EdgePotential(p.pp + p.pm, p.pp, p.pm, 0.0)
    return SpinSystem(system.graph, potentials, system.fields)


def test_sweep_errors_within_the_edge_budget():
    # The budget truncation_depth spends.  At depth t, with rate = (d-1) *
    # tanh(J) and a = atanh(tanh(J) * tanh((d-1)*J)), vertex v's log ratio
    # is within 2*a*k_v*rate^(t-1) of exact, where k_v counts its
    # neighbours with a larger label (free in the sweep), and the sweep's
    # log-marginal errors sum to at most n*d*a*rate^(t-1).  Checked at
    # every depth up to the complete tree, with tables strong enough that
    # the rate exceeds 1 as well as contracting ones.  The log-marginal
    # errors also sum to at most sum of delta_v * sigma(delta_v - x_hat_v),
    # with delta_v the per-vertex bound: the certificate of
    # fptas_log_partition with each walk's charge, at most delta_v, in its
    # place.  Random tables make some x_hat_v negative, where that sigma
    # exceeds 1/2.  The walks split each root's allowance, its bound, over
    # its free branches edge by edge, as the sweep does, at every degree
    # and rate.  In the decoupled systems every
    # third edge has interaction strength 0 (see _decoupled), so its
    # frontier error is 0.
    worst_vertex = worst_sum = 0.0
    negative = 0
    for scale, decoupled in ((6.0, False), (1.0, False), (0.3, False), (0.3, True)):
        for seed in range(5):
            for spec in BUDGET_SPECS:
                system = generate(dataclasses.replace(
                    spec, model="random", coupling=scale, field_strength=scale, seed=seed
                ))
                if decoupled:
                    system = _decoupled(system)
                n = system.n
                scalars = system_scalars(system)
                coupling, degree = scalars.max_coupling, scalars.degree_bound
                rate = (degree - 1) * math.tanh(coupling)
                half_range = math.atanh(math.tanh(coupling) * math.tanh((degree - 1) * coupling))
                free = {v: sum(w > v for w in system.graph.adjacency[v - 1]) for v in range(1, n + 1)}
                exact = {}
                for v in range(1, n + 1):
                    pinned = {i: Spin.PLUS for i in range(1, v)}
                    exact[v] = exact_log_partition(system, {**pinned, v: Spin.PLUS}) - (
                        exact_log_partition(system, {**pinned, v: Spin.MINUS})
                    )
                compiled = compile_system(system)
                for depth in range(1, n + 1):
                    stops = compiled.stops()
                    total = certificate = 0.0
                    for v in range(1, n + 1):
                        bound = 2 * half_range * free[v] * rate ** (depth - 1)
                        log_ratio, _, _ = walk_log_ratio(compiled, stops, v, depth, bound)
                        stops[v] = PINNED_PLUS
                        assert not math.isnan(log_ratio), (spec, scale, seed, depth, v)
                        error = abs(log_ratio - exact[v])
                        assert error <= bound + 1e-9, (spec, scale, seed, depth, v)
                        if bound > 1e-7:
                            worst_vertex = max(worst_vertex, error / bound)
                        total += abs(_log_sigmoid(log_ratio) - _log_sigmoid(exact[v]))
                        certificate += bound * marginal_plus(bound - log_ratio)
                        negative += log_ratio < 0
                    assert total <= certificate + 1e-9, (spec, scale, seed, depth)
                    bound = n * degree * half_range * rate ** (depth - 1)
                    assert total <= bound + 1e-9, (spec, scale, seed, depth)
                    if bound > 1e-7:
                        worst_sum = max(worst_sum, total / bound)
    # A budget twice too tight would fail above.
    assert worst_vertex > 0.5, (worst_vertex, worst_sum)
    assert negative > 0


def test_zero_coupling_edges_always_stop():
    # An edge of interaction strength 0 has frontier error 0, so the split
    # stops every free copy it reaches over such an edge, at any share, and
    # the walk it matches bit for bit stays finite.
    stopped = 0
    for spec in BUDGET_SPECS:
        system = _decoupled(generate(dataclasses.replace(
            spec, model="random", coupling=0.3, field_strength=0.3, seed=2
        )))
        if system.graph.max_degree() <= 2:
            continue
        zero = {e for e, p in system.potentials.items() if p.pp + p.mm == p.pm + p.mp}
        assert zero
        compiled = compile_system(system)
        for depth in range(1, system.n + 1):
            stops = compiled.stops()
            for v in system.graph.vertices():
                pinned_before = {i: Spin.PLUS for i in range(1, v)}
                tree = build_saw_tree(system, v, depth, pinned_before)
                stack = [tree.root]
                while stack:
                    node = stack.pop()
                    for child in node.children:
                        edge = (min(node.origin, child.origin), max(node.origin, child.origin))
                        if child.spin is None and edge in zero:
                            assert child.stopped, (spec, depth, v)
                            stopped += 1
                    stack.extend(node.children)
                log_ratio, count, charge = _split_walk(system, compiled, stops, v, depth, pinned_before)
                assert math.isfinite(log_ratio)
                assert log_ratio.hex() == tree_log_ratio(system, tree).hex()
                assert (count, charge.hex()) == (tree.node_count, tree.charge.hex())
                stops[v] = PINNED_PLUS
    assert stopped > 0


def _assert_prunes(split, uniform):
    """``split`` is ``uniform`` with some subtrees cut off: every split node
    matches its uniform node, and has all its children unless it stopped."""
    stack = [(split, uniform)]
    while stack:
        node, full = stack.pop()
        assert (node.origin, node.depth, node.spin) == (full.origin, full.depth, full.spin)
        if node.stopped:
            assert node.children == []
        else:
            assert not full.stopped and len(node.children) == len(full.children)
            stack.extend(zip(node.children, full.children))


def test_split_tree_prunes_the_uniform_tree():
    # The allowance split never goes deeper than the depth cap and never
    # keeps a node the uniform tree lacks, at every depth of every sweep
    # walk, and it cuts nodes where branches end early.
    fewer = 0
    for model in ("ising", "random"):
        for spec in BUDGET_SPECS:
            system = generate(dataclasses.replace(
                spec, model=model, coupling=0.3, field_strength=0.2, seed=3
            ))
            for depth in range(1, system.n + 1):
                for v in system.graph.vertices():
                    pinned_before = {i: Spin.PLUS for i in range(1, v)}
                    split = build_saw_tree(system, v, depth, pinned_before)
                    uniform = build_saw_tree(system, v, depth, pinned_before, uniform=True)
                    _assert_prunes(split.root, uniform.root)
                    assert split.node_count <= uniform.node_count
                    fewer += split.node_count < uniform.node_count
    assert fewer > 0


def test_spent_split_walks_no_more_nodes_than_the_equal_split():
    # A free branch is charged only what it leaves and hands the rest to
    # its later siblings, so every share is at least the equal split's
    # R / r, and no branch stops later: the frontier rule is the same, and
    # the sum of w's children's errors is at most their number times the
    # largest.  Every sweep walk of the edge-budget test's systems, at
    # every depth and rate, keeps at most the nodes of the equal split
    # (helpers.equal_split_depths), and some keep fewer.
    fewer = walks = 0
    for scale, decoupled in ((6.0, False), (1.0, False), (0.3, False), (0.3, True)):
        for seed in range(5):
            for spec in BUDGET_SPECS:
                system = generate(dataclasses.replace(
                    spec, model="random", coupling=scale, field_strength=scale, seed=seed
                ))
                if decoupled:
                    system = _decoupled(system)
                scalars = system_scalars(system)
                degree = scalars.degree_bound
                rate, half_range = _rate_and_half_range(scalars.max_coupling, degree)
                compiled = compile_system(system)
                for depth in range(1, system.n + 1):
                    stops = compiled.stops()
                    for v in system.graph.vertices():
                        free = sum(w > v for w in system.graph.adjacency[v - 1])
                        allowance = 2 * half_range * free * rate ** (depth - 1)
                        equal = len(equal_split_depths(compiled, stops, v, depth, allowance))
                        _, count, _ = walk_log_ratio(compiled, stops, v, depth, allowance)
                        assert count <= equal, (spec, scale, seed, depth, v)
                        fewer += count < equal
                        walks += 1
                        stops[v] = PINNED_PLUS
    assert fewer > 0, walks


def test_unused_share_reaches_the_later_sibling():
    # Root 1 has two free children: 2, which has no children and is folded
    # exactly at no charge, and 3, the root of a complete binary tree of
    # height 6.  The whole root allowance of build_saw_tree's default tree
    # reaches 3, twice its equal share, so its branch stops at depth 4,
    # where the equal split of that allowance reaches the cap.
    heap = 127
    edges = [(1, 2), (1, 3)]
    for i in range(heap):
        edges += [(i + 3, child + 3) for child in (2 * i + 1, 2 * i + 2) if child < heap]
    system = ising_system(Graph.from_edges(heap + 2, edges), 0.3, 0.1)
    depth = 6
    compiled = compile_system(system)
    allowance = root_allowance(system, 1, depth, {}, compiled)
    assert allowance > 0.0
    stops = compiled.stops()
    log_ratio, count, charge = walk_log_ratio(compiled, stops, 1, depth, allowance)
    tree = build_saw_tree(system, 1, depth)
    assert log_ratio.hex() == tree_log_ratio(system, tree).hex()
    assert (count, charge.hex()) == (tree.node_count, tree.charge.hex())
    leaf = tree.root.children[0]
    assert (leaf.origin, leaf.spin, leaf.stopped, leaf.children) == (2, None, False, [])
    assert frontier_count(tree, depth - 1) == 0 < frontier_count(tree, depth - 2)
    equal = equal_split_depths(compiled, stops, 1, depth, allowance)
    assert max(equal) == depth and count < len(equal)


def test_split_tree_is_the_uniform_tree_at_degree_two():
    # Every node but the root has at most one child, and on these Ising
    # chains every edge with a child beyond it has frontier error 2a (up to
    # rounding), more than the share it gets above the depth cap, so the
    # split spends each share on the one branch and stops it only at the
    # cap; a path's end, which has no child, is folded exactly in both.
    # Walks with the split allowance 2a * rate**(t - 1) per free root child
    # equal the uniform walks bit for bit, and the estimate, where
    # root_share is 0.0 at degree 2, reports them.
    for graph, coupling, eps in (
        (build_family_graph("cycle", n=400), 0.5, 0.1),
        (build_family_graph("cycle", n=9), 0.7, 0.01),
        (build_family_graph("path", n=12), 0.9, 0.1),
        (build_family_graph("path", n=3), 0.3, 0.001),
    ):
        system = ising_system(graph, coupling, 0.1)
        report = fptas_log_partition(system, eps)
        depth = report.truncation_depth
        assert root_share(system_scalars(system), depth) == 0.0
        rate, half_range = _rate_and_half_range(coupling, 2)
        share = 2 * half_range * rate ** (depth - 1)
        compiled = compile_system(system)
        split_stops, uniform_stops = compiled.stops(), compiled.stops()
        for entry in report.vertices:
            v = entry.vertex
            free = sum(w > v for w in graph.adjacency[v - 1])
            split = walk_log_ratio(compiled, split_stops, v, depth, free * share)
            uniform = walk_log_ratio(compiled, uniform_stops, v, depth)
            assert split[0].hex() == uniform[0].hex() and split[1] == uniform[1]
            assert (entry.p_hat, entry.node_count) == (marginal_plus(split[0]), split[1])
            split_stops[v] = uniform_stops[v] = PINNED_PLUS
            if graph.n < 20:
                pinned_before = {i: Spin.PLUS for i in range(1, v)}
                assert format_saw_tree(build_saw_tree(system, v, depth, pinned_before)) == (
                    format_saw_tree(build_saw_tree(system, v, depth, pinned_before, uniform=True))
                )


def test_fptas_relabeling_stays_within_two_eps():
    rng = np.random.default_rng(37)
    eps = 0.1
    for _ in range(5):
        system = acceptance_instance("rr3", "random", int(rng.integers(10**6)))
        n = system.n
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        relabel = dict(zip(range(1, n + 1), labels))
        graph = Graph.from_edges(
            n, [(relabel[u], relabel[v]) for u, v in system.graph.edges]
        )
        potentials = {}
        for (u, v), pot in system.potentials.items():
            a, b = relabel[u], relabel[v]
            potentials[(a, b) if a < b else (b, a)] = (
                pot if a < b else EdgePotential(pot.pp, pot.mp, pot.pm, pot.mm)
            )
        fields = {relabel[v]: f for v, f in system.fields.items()}
        shuffled = SpinSystem(graph, potentials, fields)
        first = fptas_log_partition(system, eps).log_z_hat
        second = fptas_log_partition(shuffled, eps).log_z_hat
        assert abs(first - second) <= 2 * eps


def test_fptas_tiny_marginal_stays_in_log_domain():
    # log Z = h + log1p(exp(-2h)) for one vertex with fields (-h, h).  At
    # h=400 the marginal underflows to 0; at h=360 it is subnormal, and its
    # math.log would be off by about 3e-12.
    for h, tolerance in ((400.0, 1e-9), (360.0, 1e-12)):
        system = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(-h, h)})
        report = fptas_log_partition(system, 0.1)
        assert abs(report.log_z_hat - h) <= tolerance
        assert report.vertices[0].p_hat < sys.float_info.min
    pair = SpinSystem(Graph.from_edges(2, []), {}, {v: VertexField(-400.0, 400.0) for v in (1, 2)})
    assert fptas_log_partition(pair, 0.1).log_z_hat == 800.0


def test_fptas_midpoint_frontier_stays_within_eps():
    system = acceptance_instance("cycle", "ising", 512)
    report = fptas_log_partition(system, 0.1)
    assert abs(report.log_z_hat - exact_log_partition(system)) <= 0.1


def test_ising_strip_log_z_matches_enumeration():
    # Both transfer matrices: ising_strip_log_z against brute force, and
    # strip_log_z, which reads the system's own tables, against it on Ising
    # inputs and against brute force on random tables.  (4, 3) reads the
    # 3x4 grid transposed, which only the Ising formula can.
    for rows, cols, periodic, graph in (
        (1, 5, True, build_family_graph("cycle", n=5)),
        (3, 4, False, build_family_graph("grid", rows=3, cols=4)),
        (4, 3, False, build_family_graph("grid", rows=3, cols=4)),
        (1, 6, False, build_family_graph("path", n=6)),
        (4, 6, False, build_family_graph("grid", rows=4, cols=6)),
    ):
        for coupling, field in ((0.3, 0.2), (-0.4, -0.1)):
            system = ising_system(graph, coupling, field)
            got = ising_strip_log_z(rows, cols, coupling, field, periodic)
            if graph.n <= 12:
                assert got == pytest.approx(exact_log_partition(system), abs=1e-12)
            if (rows, cols) != (4, 3):
                assert strip_log_z(system, rows, cols, periodic) == pytest.approx(got, abs=1e-12)
    for family, rows, cols, periodic in (("cycle", 1, 7, True), ("grid", 3, 4, False)):
        for seed in range(3):
            size = {"n": cols} if family == "cycle" else {"rows": rows, "cols": cols}
            system = generate(GenSpec(
                family, **size, model="random", coupling=0.8, field_strength=0.5, seed=seed
            ))
            want = exact_log_partition(system)
            assert strip_log_z(system, rows, cols, periodic) == pytest.approx(want, abs=1e-12)


def test_fptas_within_eps_at_benchmark_size(tmp_path, monkeypatch):
    # The guarantee at and beyond the sizes the benchmark solves, far past
    # the brute-force oracle's reach: on every instance each workload
    # solves at benchmark seed 1, written and checked against its exact
    # log Z by the benchmark's own prepare, on larger Ising strips (the 6x8
    # one is where the allowance split prunes the most nodes), on
    # random-table strips, where the edges' frontier errors differ, and on
    # the 5x6 random-table grid that CI estimates on every Python version.
    monkeypatch.setattr(run, "OUT", tmp_path)
    cases = [
        (load_system(inst["path"]), inst["exact_log_z"], (name, inst["spec"]["seed"]))
        for name, workload in run.WORKLOADS.items()
        for inst in run.prepare(workload, 1)
    ]
    for rows, cols in ((4, 12), (6, 8)):
        graph = build_family_graph("grid", rows=rows, cols=cols)
        exact = ising_strip_log_z(rows, cols, 0.2, 0.1)
        cases.append((ising_system(graph, 0.2, 0.1), exact, (rows, cols)))
        for seed in range(1, 4):
            system = generate(GenSpec(
                "grid", rows=rows, cols=cols, model="random", coupling=0.2,
                field_strength=0.3, seed=seed,
            ))
            cases.append((system, strip_log_z(system, rows, cols), (rows, cols, seed)))
    system = parse_system(identity_document())
    cases.append((system, strip_log_z(system, 5, 6), "identity"))
    for system, exact, name in cases:
        for eps in (0.1, 0.01):
            assert abs(fptas_log_partition(system, eps).log_z_hat - exact) <= eps, (name, eps)


def test_rr3_deep_and_cycle_sweep_reports_are_pinned():
    # The first rr3-deep and the cycle-sweep benchmark instances, bit for
    # bit.  Every edge of the 3-regular Ising graph has one frontier error,
    # close to the worst case 2a, so its walks stop where the spent split
    # leaves a branch's share over that error; label_share gives the early
    # roots the larger allowances, and kappa those whose lookahead log
    # ratio is positive.  At degree 2 the walks keep the uniform tree,
    # whichever way the allowance is split.
    for name, seed, log_z_hat, nodes in (
        ("rr3-deep", 16, "0x1.f07f9226ce5f8p+4", 2836),
        ("cycle-sweep", 1, "0x1.4aa9507e97654p+8", 4372),
    ):
        report = fptas_log_partition(generate(benchmark_spec(name, seed)), 0.1)
        assert (report.log_z_hat.hex(), report.total_nodes) == (log_z_hat, nodes)


def test_fptas_sweeps_again_as_many_levels_deeper_as_the_rate_needs():
    # Negative estimated log ratios make the certificate summed from the
    # walks' charges exceed eps at the start depth.  The estimate then
    # sweeps max(1, ceil(log(certificate / eps) / log(1 / rate))) levels
    # deeper, with the same split, and reports the first sweep that
    # certifies eps; here the certificate is within 1 / rate of eps, so
    # each step is one level.  The deepest is the a-priori depth, the
    # smallest t with n*d*a*rate^(t-1) <= eps, which is certified a priori
    # and gives each root the equal split root_share * k_v.  The first
    # instance walks 48 nodes at depth 2, then 70 at 3, 118 in all.
    eps = 0.1
    cases = ((11, 10, (2, 4), 3, 70, 118), (11, 8, (2, 3), 3, 56, 98))
    for seed, n, depths, reported, nodes, walked_nodes in cases:
        system = generate(GenSpec(
            "random_regular", n=n, degree=3, model="random", coupling=0.5, field_strength=1.0,
            seed=seed,
        ))
        scalars = system_scalars(system)
        degree = scalars.degree_bound
        rate, half_range = _rate_and_half_range(scalars.max_coupling, degree)
        start = truncation_depth(n, scalars.max_coupling, degree, eps)
        a_priori = next(t for t in range(1, 100) if n * degree * half_range * rate ** (t - 1) <= eps)
        assert (start, a_priori) == depths
        report = fptas_log_partition(system, eps)
        assert report.truncation_depth == reported
        assert all(v.depth == reported for v in report.vertices)
        assert report.total_nodes == nodes
        assert abs(report.log_z_hat - exact_log_partition(system)) <= eps
        compiled = compile_system(system)
        walked = 0
        for depth in range(start, reported + 1):
            walks = []
            certificate = 0.0
            for v in range(1, n + 1):
                log_ratio, count, charge = _sweep_walk(report, system, compiled, v, depth)
                walks.append((marginal_plus(log_ratio), count))
                walked += count
                certificate += charge * marginal_plus(charge - log_ratio)
            if depth < reported:
                assert eps < certificate <= eps / rate, (seed, depth)
        assert walks == [(v.p_hat, v.node_count) for v in report.vertices]
        assert (report.sweeps, report.walked_nodes) == (2, walked_nodes) and walked == walked_nodes
        if reported == a_priori:
            # The a-priori sweep gives each root the equal split, and walks
            # other trees than the label_share split would at that depth.
            split = []
            for vertex in report.vertices:
                pinned = report.pinned_before(vertex.vertex)
                free = sum(w not in pinned for w in system.graph.adjacency[vertex.vertex - 1])
                assert vertex.allowance == root_share(scalars, reported) * free
                allowance = root_allowance(system, vertex.vertex, reported, pinned, compiled)
                log_ratio, count, _ = walk_log_ratio(
                    compiled, compiled.stops(pinned), vertex.vertex, reported, allowance
                )
                split.append((marginal_plus(log_ratio), count))
            assert split != walks


@pytest.mark.parametrize("system, sweeps", [
    (again_instance(), 2),
    (generate(benchmark_spec("rr3-deep", 16)), 1),
], ids=["again", "rr3-deep"])
def test_report_allowances_and_charges_rebuild_every_tree(system, sweeps):
    # Each vertex of the report carries the root allowance, the charge and
    # the pin of its walk, kept out of to_dict, so the report alone rebuilds
    # every walk over one compile_system: under pinned_before, at the
    # reported depth, with the vertex's allowance, bit for bit.  Below the
    # a-priori depth that allowance is root_allowance, the policy pinned
    # here, and build_saw_tree's default tree under the same pins is the
    # walk, bit for bit, with as many stopped leaves as the walk's record.
    # "again" sweeps twice; rr3-deep is the first rr3-deep instance.
    # The paper's telescoping order, stated once: vertex v is walked with
    # every lower label pinned to +.  A VertexEstimate built from its four
    # serialized fields leaves the other three None, and a report of such
    # records refuses pinned_before, as it does a vertex the report lacks.
    report = fptas_log_partition(system, 0.1)
    depth = report.truncation_depth
    assert report.sweeps == sweeps
    compiled = compile_system(system)
    leaves = 0
    for vertex in report.vertices:
        v = vertex.vertex
        pinned = report.pinned_before(v)
        assert vertex.pinned is Spin.PLUS
        assert pinned == {i: Spin.PLUS for i in range(1, v)}
        record = []
        log_ratio, count, charge = walk_log_ratio(
            compiled, compiled.stops(pinned), v, depth, vertex.allowance, record
        )
        reported = (vertex.node_count, vertex.charge.hex(), vertex.p_hat.hex())
        assert (count, charge.hex(), marginal_plus(log_ratio).hex()) == reported
        assert root_allowance(system, v, depth, pinned, compiled).hex() == vertex.allowance.hex()
        tree = build_saw_tree(system, v, depth, pinned)
        p_hat = marginal_plus(tree_log_ratio(system, tree))
        assert (tree.node_count, tree.charge.hex(), p_hat.hex()) == reported
        stopped = 0
        stack = [tree.root]
        while stack:
            node = stack.pop()
            stopped += node.stopped
            stack.extend(node.children)
        assert sum(status == 0 for _, _, status in record) == stopped, v
        leaves += stopped
    assert leaves > 0
    with pytest.raises(ValueError, match="not in the report"):
        report.pinned_before(system.n + 1)
    assert list(report.to_dict()["vertices"][0]) == ["vertex", "depth", "node_count", "p_hat"]
    assert VertexEstimate(*report.vertices[0][:4])[4:] == (None, None, None)
    bare = report._replace(vertices=tuple(VertexEstimate(*vertex[:4]) for vertex in report.vertices))
    with pytest.raises(ValueError, match="carry no pins"):
        bare.pinned_before(1)


def test_fptas_near_critical_fallback_jumps_by_the_rate(monkeypatch):
    # Rate 0.9953: one level scales the allowances by so little that
    # stepping one level at a time would take a sweep per level.  The
    # instance certifies at its start depth, 901; with every charge of
    # that sweep inflated by half, its certificate exceeds eps, and the
    # excess sets the jump instead: one sweep at the start depth, then one
    # ceil(log(certificate / eps) / log(1 / rate)) levels deeper, which
    # certifies.
    system = generate(GenSpec(
        "random_regular", n=12, degree=4, model="random", coupling=0.6, field_strength=1.5, seed=34,
    ))
    eps = 0.1
    scalars = system_scalars(system)
    start = truncation_depth(12, scalars.max_coupling, scalars.degree_bound, eps)
    assert start == 901
    report = fptas_log_partition(system, eps)
    assert (report.truncation_depth, report.sweeps, report.walked_nodes) == (start, 1, 546)
    walk = spinz.partition.walk_log_ratio
    inflated = []

    def inflate(compiled, stops, root, depth, allowance=0.0):
        log_ratio, count, charge = walk(compiled, stops, root, depth, allowance)
        if depth == start:
            charge *= 1.5
            inflated.append(charge * marginal_plus(charge - log_ratio))
        return log_ratio, count, charge

    monkeypatch.setattr(spinz.partition, "walk_log_ratio", inflate)
    report = fptas_log_partition(system, eps)
    certificate = 0.0
    for term in inflated:
        certificate += term
    levels = math.ceil(math.log(certificate / eps) / math.log(1 / scalars.contraction))
    assert certificate > eps and levels > 1
    assert (report.truncation_depth, report.sweeps) == (start + levels, 2)
    assert abs(report.log_z_hat - exact_log_partition(system)) <= eps


def test_fptas_positive_field_ising_keeps_the_start_depth():
    # Ferromagnetic couplings and a positive field keep every estimated
    # log ratio of the +-pinned sweep nonnegative, and the certificate
    # summed from the walks' charges fits eps: no second sweep.
    system = ising_system(build_family_graph("random_regular", n=12, degree=3, seed=4), 0.3, 0.1)
    scalars = system_scalars(system)
    report = fptas_log_partition(system, 0.1)
    start = truncation_depth(system.n, scalars.max_coupling, scalars.degree_bound, 0.1)
    assert report.truncation_depth == start
    assert all(v.p_hat >= 0.5 for v in report.vertices)
    assert abs(report.log_z_hat - exact_log_partition(system)) <= 0.1


def test_degree_two_sweeps_certify_from_their_charges():
    # At degree bound 2 the walks keep the uniform tree, and each reports
    # the charge its frontier leaves and folds leave, as split walks do;
    # that charge, not the a-priori bound per free root child, enters the
    # certificate.  So the README triangle certifies at its start depth
    # for eps 0.05 and 0.01, and so does every random-table 16-cycle here.
    triangle = generate(GenSpec("cycle", n=3, coupling=0.3, field_strength=0.1))
    cases = [(triangle, 0.05, 2), (triangle, 0.01, 3)]
    for seed in range(1, 6):
        system = generate(GenSpec(
            "cycle", n=16, model="random", coupling=0.5, field_strength=0.3, seed=seed
        ))
        scalars = system_scalars(system)
        for eps in (0.1, 0.01):
            start = truncation_depth(system.n, scalars.max_coupling, scalars.degree_bound, eps)
            cases.append((system, eps, start))
    for system, eps, depth in cases:
        report = fptas_log_partition(system, eps)
        assert report.truncation_depth == depth, (system.n, eps)
        assert abs(report.log_z_hat - exact_log_partition(system)) <= eps, (system.n, eps)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_benchmark_families_certify_at_the_start_depth(name):
    # The benchmark's traced run rebuilds every tree at truncation_depth,
    # so each workload's instances must certify its eps in the first
    # sweep, and every vertex report that depth: seeds 0-4, and the first
    # instance at benchmark seed 1, whose seed is the workload's instance
    # count (16 on rr3-deep).
    workload = run.WORKLOADS[name]
    eps = workload["eps"]
    for seed in sorted({*range(5), workload["instances"]}):
        system = generate(benchmark_spec(name, seed))
        scalars = system_scalars(system)
        report = fptas_log_partition(system, eps)
        start = truncation_depth(system.n, scalars.max_coupling, scalars.degree_bound, eps)
        assert report.truncation_depth == start, seed
        assert all(v.depth == start for v in report.vertices), seed


def test_fptas_depth_one_at_zero_coupling():
    system = ising_system(build_family_graph("grid", rows=2, cols=3), 0.0, 0.2)
    report = fptas_log_partition(system, 0.05)
    assert report.truncation_depth == 1
    assert abs(report.log_z_hat - exact_log_partition(system)) <= 1e-9


WALK_SPECS = [
    GenSpec("path", n=7),  # degree-1 vertices: expanded nodes without children
    GenSpec("cycle", n=8),
    GenSpec("grid", rows=3, cols=4),
    GenSpec("complete", n=5),
    GenSpec("random_regular", n=10, degree=3),
    GenSpec("erdos_renyi", n=10, degree=2.5),
    GenSpec("path", n=1),
]


def _split_walk(system, compiled, stops, vertex, depth, pinned):
    """walk_log_ratio with the root allowance of build_saw_tree's default
    tree, root_allowance under ``pinned``."""
    allowance = root_allowance(system, vertex, depth, pinned, compiled)
    return walk_log_ratio(compiled, stops, vertex, depth, allowance)


@pytest.mark.parametrize("model,field", [("random", 0.5), ("ising", 0.5), ("ising", 0.0)])
@pytest.mark.parametrize("index", range(len(WALK_SPECS)), ids=lambda i: WALK_SPECS[i].family)
def test_walk_matches_saw_tree_bit_for_bit(index, model, field):
    # The fused walk must reproduce tree_log_ratio over the built tree, and
    # its node count, exactly: for the sweep's pin-by-rank conditions and for
    # conditions with minus pins, at every depth up to the complete tree,
    # both for the split tree and for the uniform one.  Zero-field Ising
    # gives many edges identical compiled factors.  The tree is assembled
    # from the walk's record, so tree_log_ratio, which evaluates it on its
    # own, checks the walk's arithmetic; the record only observes: a walk
    # that records returns the same bits and restores its stops.
    rng = np.random.default_rng(index)
    system = generate(dataclasses.replace(
        WALK_SPECS[index], model=model, coupling=0.4, field_strength=field, seed=3
    ))
    n = system.n
    compiled = compile_system(system)
    for depth in sorted({1, 2, 3, 5, n}):
        sweep = compiled.stops()
        for vertex in system.graph.vertices():
            pinned_before = Condition({i: Spin.PLUS for i in range(1, vertex)})
            tree = build_saw_tree(system, vertex, depth, pinned_before)
            log_ratio, count, charge = _split_walk(system, compiled, sweep, vertex, depth, pinned_before)
            assert log_ratio.hex() == tree_log_ratio(system, tree).hex()
            assert (count, charge.hex()) == (tree.node_count, tree.charge.hex())
            uniform = build_saw_tree(system, vertex, depth, pinned_before, uniform=True)
            log_ratio, count, charge = walk_log_ratio(compiled, sweep, vertex, depth)
            assert log_ratio.hex() == tree_log_ratio(system, uniform).hex()
            assert (count, charge.hex()) == (uniform.node_count, uniform.charge.hex())
            sweep[vertex] = PINNED_PLUS
        for _ in range(3):
            spins = rng.choice([0, 1, -1], size=n)
            cond = Condition({v: Spin(int(s)) for v, s in enumerate(spins, 1) if s})
            for vertex in (v for v in system.graph.vertices() if v not in cond):
                stops = compiled.stops(cond)
                tree = build_saw_tree(system, vertex, depth, cond)
                want = tree_log_ratio(system, tree)
                log_ratio, count, charge = _split_walk(system, compiled, stops, vertex, depth, cond)
                assert log_ratio.hex() == want.hex()
                assert (count, charge.hex()) == (tree.node_count, tree.charge.hex())
                assert stops == compiled.stops(cond)  # the walk restored its array
                for allowance in (root_allowance(system, vertex, depth, cond, compiled), 0.0):
                    plain = walk_log_ratio(compiled, stops, vertex, depth, allowance)
                    record = []
                    log_ratio, count, charge = walk_log_ratio(
                        compiled, stops, vertex, depth, allowance, record
                    )
                    assert (log_ratio.hex(), count, charge.hex()) == (
                        plain[0].hex(), plain[1], plain[2].hex()
                    )
                    assert count == len(record) + 1
                    assert stops == compiled.stops(cond)
                estimate = conditional_marginal_estimate(system, vertex, cond, depth)
                assert estimate.hex() == marginal_plus(want).hex()
                uniform = build_saw_tree(system, vertex, depth, cond, uniform=True)
                log_ratio, count, charge = walk_log_ratio(compiled, stops, vertex, depth)
                assert log_ratio.hex() == tree_log_ratio(system, uniform).hex()
                assert (count, charge.hex()) == (uniform.node_count, uniform.charge.hex())


def _assert_sweep_walks_match_trees(system, depth):
    """Each split walk of the sweep equals tree_log_ratio over its built
    tree, bit for bit, and has that tree's node count."""
    compiled = compile_system(system)
    stops = compiled.stops()
    for vertex in system.graph.vertices():
        pinned_before = Condition({i: Spin.PLUS for i in range(1, vertex)})
        tree = build_saw_tree(system, vertex, depth, pinned_before)
        log_ratio, count, charge = _split_walk(system, compiled, stops, vertex, depth, pinned_before)
        assert log_ratio.hex() == tree_log_ratio(system, tree).hex()
        assert (count, charge.hex()) == (tree.node_count, tree.charge.hex())
        stops[vertex] = PINNED_PLUS


BENCHMARK_SPECS = [benchmark_spec("rr3-deep", 16), benchmark_spec("grid-strip", 1)]


# The start sweep's trees, pin-by-rank, as format_saw_tree dumps them:
# their node count and the sha256 of the dumps, each followed by a newline.
# No second builder checks the split's decisions, so their bytes are pinned.
BENCHMARK_DUMPS = [
    (2836, "83eb9a5770ee97da7ca571c94fae08b37fe71be39587bf1f7c1b5186806bf6d9"),
    (1011, "70154421cfbc2708901b6025ff472093a0aa7082736a1db160ade789d376e5ba"),
]


@pytest.mark.parametrize(
    "spec, least_depth, dumps",
    zip(BENCHMARK_SPECS, (9, 8), BENCHMARK_DUMPS),
    ids=["rr3-40", "grid-4x6"],
)
def test_walk_matches_saw_tree_at_benchmark_size(spec, least_depth, dumps):
    # The sweep's walks at eps = 0.1, rebuilt from the report with each
    # vertex's pins and allowance: most free nodes sit on the level
    # evaluated in place and most of those take a settled pair.  And the
    # sweep's split walks at 10 to 13, the a-priori depths among them.  The
    # start depth is the smallest t with n*d*a*rate^t <= D, the budget D of
    # eps = 0.1, and the report's.
    system = generate(spec)
    scalars = system_scalars(system)
    degree = scalars.degree_bound
    depth = truncation_depth(system.n, scalars.max_coupling, degree, 0.1)
    assert depth == least_depth
    rate, half_range = _rate_and_half_range(scalars.max_coupling, degree)
    edge_sum = system.n * degree * half_range
    assert edge_sum * rate ** depth <= _start_budget(0.1) < edge_sum * rate ** (depth - 1)
    report = fptas_log_partition(system, 0.1)
    assert report.truncation_depth == depth
    compiled = compile_system(system)
    digest = hashlib.sha256()
    for vertex in report.vertices:
        pinned = report.pinned_before(vertex.vertex)
        tree = build_saw_tree(system, vertex.vertex, depth, pinned)
        digest.update(format_saw_tree(tree).encode() + b"\n")
        log_ratio, count, charge = walk_log_ratio(
            compiled, compiled.stops(pinned), vertex.vertex, depth, vertex.allowance
        )
        assert log_ratio.hex() == tree_log_ratio(system, tree).hex()
        assert (count, charge.hex()) == (tree.node_count, tree.charge.hex())
        assert (count, charge.hex()) == (vertex.node_count, vertex.charge.hex())
    assert (report.total_nodes, digest.hexdigest()) == dumps
    for walked in sorted({depth, 10, 11, 12, 13}):
        _assert_sweep_walks_match_trees(system, walked)


def test_walk_matches_saw_tree_when_fields_overflow():
    # (h_plus - h_minus) / 2 overflows to +-inf at these fields, so a node
    # evaluated in place can have an infinite log ratio; it then adds its
    # pinned factor, as the fold of tree_log_ratio does.
    rng = np.random.default_rng(11)
    graph = build_family_graph("random_regular", n=8, degree=3, seed=2)
    for _ in range(10):
        fields = {}
        for v in graph.vertices():
            draw = rng.random()
            if draw < 0.4:
                big = 1e308 if draw < 0.2 else -1e308
                fields[v] = VertexField(big, -big)
            else:
                fields[v] = VertexField(*rng.uniform(-1, 1, 2))
        potentials = {e: EdgePotential(*rng.uniform(-1, 1, 4)) for e in graph.edges}
        system = SpinSystem(graph, potentials, fields)
        for depth in (2, 3):
            _assert_sweep_walks_match_trees(system, depth)


def test_fptas_builds_no_tree_and_no_condition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the estimate path must not build trees or conditions")

    system = acceptance_instance("grid", "random", 7)
    expected = fptas_log_partition(system, 0.1)
    for module in (spinz.partition, spinz.sawtree, spinz.marginal):
        for name in ("Condition", "SawNode", "SawTree", "build_saw_tree", "tree_log_ratio"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(spinz.partition.EstimateReport, "pinned_before", refuse)
    report = fptas_log_partition(system, 0.1)
    assert report.log_z_hat.hex() == expected.log_z_hat.hex()
    assert report.vertices == expected.vertices
