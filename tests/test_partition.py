from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from spinz import (
    Condition,
    DecayConditionError,
    GenSpec,
    Graph,
    MarginalUnderflowError,
    Spin,
    SpinSystem,
    VertexField,
    all_plus_log_weight,
    build_family_graph,
    build_saw_tree,
    compile_system,
    conditional_marginal_estimate,
    exact_conditional_marginal,
    exact_log_partition,
    fptas_log_partition,
    generate,
    ising_field,
    ising_potential,
    ising_system,
    marginal_plus,
    tree_log_ratio,
    truncation_depth,
    walk_log_ratio,
)
import spinz.partition
from spinz.marginal import PINNED_PLUS

from .helpers import acceptance_instance, random_system


def test_all_plus_log_weight_examples():
    single = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(0.7, -0.1)})
    assert all_plus_log_weight(single) == pytest.approx(0.7, abs=1e-15)
    empty = SpinSystem(Graph.from_edges(0, []), {}, {})
    assert all_plus_log_weight(empty) == 0.0
    triangle = ising_system(build_family_graph("cycle", n=3), 0.2, 0.1)
    assert all_plus_log_weight(triangle) == pytest.approx(0.9, abs=1e-15)


def test_truncation_depth_reference_value():
    assert truncation_depth(10, 0.3, 3, 0.1) == 12


def test_truncation_depth_zero_coupling():
    assert truncation_depth(10, 0.0, 3, 0.1) == 1
    assert truncation_depth(1, 0.0, 50, 1e-6) == 1


def test_truncation_depth_degenerate_degrees():
    # d <= 1 kills the contraction rate but not the t=1 envelope, so depth 2
    # (exact on these graphs) is returned rather than the formula's 1
    assert truncation_depth(5, 0.4, 1, 0.1) == 2
    assert truncation_depth(5, 0.4, 0, 0.1) == 2


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


def test_fptas_degree_bound_override_still_accurate():
    system = ising_system(build_family_graph("cycle", n=6), 0.2, -0.3)
    exact = exact_log_partition(system)
    for bound in (2, 3, 5):
        report = fptas_log_partition(system, 0.05, degree_bound=bound)
        assert report.degree_bound == bound
        assert abs(report.log_z_hat - exact) <= 0.05


def test_fptas_per_vertex_error_budget():
    # each telescoping factor must be within eps/n of the exact conditional
    # marginal in log
    eps = 0.1
    for seed in range(6):
        system = acceptance_instance("er", "random", 400 + seed)
        n = system.n
        report = fptas_log_partition(system, eps)
        for entry in report.vertices:
            cond = Condition({i: Spin.PLUS for i in range(1, entry.vertex)})
            exact_p = exact_conditional_marginal(system, entry.vertex, Spin.PLUS, cond)
            assert abs(math.log(entry.p_hat) - math.log(exact_p)) <= eps / n + 1e-12


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
            potentials[(a, b) if a < b else (b, a)] = pot if a < b else pot.transposed()
        fields = {relabel[v]: f for v, f in system.fields.items()}
        shuffled = SpinSystem(graph, potentials, fields)
        first = fptas_log_partition(system, eps).log_z_hat
        second = fptas_log_partition(shuffled, eps).log_z_hat
        assert abs(first - second) <= 2 * eps


def test_fptas_threads_match_serial():
    system = acceptance_instance("grid", "random", 99)
    serial = fptas_log_partition(system, 0.05, workers=1)
    threaded = fptas_log_partition(system, 0.05, workers=4)
    assert threaded.log_z_hat == serial.log_z_hat
    assert [v.p_hat for v in threaded.vertices] == [v.p_hat for v in serial.vertices]


def test_fptas_underflow_is_loud():
    graph = Graph.from_edges(1, [])
    system = SpinSystem(graph, {}, {1: ising_field(-400.0)})
    with pytest.raises(MarginalUnderflowError) as info:
        fptas_log_partition(system, 0.1)
    assert info.value.vertex == 1


def test_fptas_frontier_choice_stays_within_eps():
    system = acceptance_instance("cycle", "ising", 512)
    exact = exact_log_partition(system)
    for frontier in (-math.inf, 0.0, math.inf):
        report = fptas_log_partition(system, 0.1, frontier=frontier)
        assert abs(report.log_z_hat - exact) <= 0.1


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


@pytest.mark.parametrize("model,field", [("random", 0.5), ("ising", 0.5), ("ising", 0.0)])
@pytest.mark.parametrize("index", range(len(WALK_SPECS)), ids=lambda i: WALK_SPECS[i].family)
def test_walk_matches_saw_tree_bit_for_bit(index, model, field):
    # The fused walk must reproduce tree_log_ratio over the built tree, and
    # its node count, exactly: for the sweep's pin-by-rank conditions and for
    # conditions with minus pins, at every depth up to the complete tree.
    # Zero-field Ising gives many edges identical compiled factors.
    rng = np.random.default_rng(index)
    system = generate(dataclasses.replace(
        WALK_SPECS[index], model=model, coupling=0.4, field_strength=field, seed=3
    ))
    n = system.n
    for frontier in (-math.inf, 0.0, 0.7, math.inf):
        compiled = compile_system(system, frontier)
        for depth in sorted({1, 2, 3, n}):
            sweep = compiled.stops()
            for vertex in system.graph.vertices():
                pinned_before = Condition({i: Spin.PLUS for i in range(1, vertex)})
                tree = build_saw_tree(system, vertex, depth, pinned_before)
                log_ratio, count = walk_log_ratio(compiled, sweep, vertex, depth)
                assert log_ratio.hex() == tree_log_ratio(system, tree, frontier).hex()
                assert count == tree.node_count
                sweep[vertex] = PINNED_PLUS
            for _ in range(3):
                spins = rng.choice([0, 1, -1], size=n)
                cond = Condition({v: Spin(int(s)) for v, s in enumerate(spins, 1) if s})
                for vertex in (v for v in system.graph.vertices() if v not in cond):
                    stops = compiled.stops(cond)
                    tree = build_saw_tree(system, vertex, depth, cond)
                    want = tree_log_ratio(system, tree, frontier)
                    log_ratio, count = walk_log_ratio(compiled, stops, vertex, depth)
                    assert log_ratio.hex() == want.hex()
                    assert count == tree.node_count
                    assert stops == compiled.stops(cond)  # the walk restored its array
                    estimate = conditional_marginal_estimate(system, vertex, cond, depth, frontier)
                    assert estimate.hex() == marginal_plus(want).hex()


def test_fptas_builds_no_tree_and_no_condition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the estimate path must not build trees or conditions")

    system = acceptance_instance("grid", "random", 7)
    expected = fptas_log_partition(system, 0.1)
    for module in (spinz.partition, spinz.sawtree, spinz.marginal):
        for name in ("Condition", "SawNode", "SawTree", "build_saw_tree", "tree_log_ratio"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for workers in (1, 3):
        report = fptas_log_partition(system, 0.1, workers=workers)
        assert report.log_z_hat.hex() == expected.log_z_hat.hex()
        assert report.vertices == expected.vertices
