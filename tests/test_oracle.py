from __future__ import annotations

import math

import numpy as np
import pytest

from spinz import (
    Condition,
    EdgePotential,
    Graph,
    Spin,
    SpinSystem,
    VertexField,
    all_plus_log_weight,
    build_family_graph,
    check_contraction,
    check_decay_bound,
    check_edge_factor_lipschitz,
    check_saw_identity,
    check_saw_identity_exhaustive,
    check_saw_identity_random,
    check_telescoping,
    connected_graphs,
    edge_factor_log,
    exact_conditional_marginal,
    exact_log_partition,
    interaction_strength,
    ising_system,
    max_boundary_gap,
)

from .helpers import random_system, reference_log_partition


def test_exact_single_vertex_log2():
    system = SpinSystem(Graph.from_edges(1, []), {}, {1: VertexField(0.0, 0.0)})
    assert exact_log_partition(system) == pytest.approx(math.log(2), abs=1e-15)


def test_exact_two_vertex_ising_reference():
    system = ising_system(build_family_graph("path", n=2), 0.3)
    assert exact_log_partition(system) == pytest.approx(1.430635131045831, abs=1e-12)


def test_exact_fully_conditioned_is_single_weight():
    system = ising_system(build_family_graph("cycle", n=3), 0.2, 0.1)
    cond = {1: Spin.PLUS, 2: Spin.PLUS, 3: Spin.PLUS}
    assert exact_log_partition(system, cond) == pytest.approx(
        all_plus_log_weight(system), abs=1e-12
    )
    mixed = {1: Spin.PLUS, 2: Spin.MINUS, 3: Spin.PLUS}
    # hand weight: edges (1,2): -0.2, (1,3): +0.2, (2,3): -0.2; fields +0.1 -0.1 +0.1
    assert exact_log_partition(system, mixed) == pytest.approx(-0.1, abs=1e-12)


def test_exact_empty_graph():
    system = SpinSystem(Graph.from_edges(0, []), {}, {})
    assert exact_log_partition(system) == pytest.approx(0.0, abs=1e-15)


def test_exact_matches_plain_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        system = random_system(rng, n, edge_prob=0.5)
        cond = {}
        for v in system.graph.vertices():
            if rng.random() < 0.25:
                cond[v] = Spin.PLUS if rng.random() < 0.5 else Spin.MINUS
        assert exact_log_partition(system, cond) == pytest.approx(
            reference_log_partition(system, cond), abs=1e-10
        )


def test_exact_crosses_chunk_boundary():
    # 20 free vertices forces several enumeration chunks through the
    # running logsumexp path
    system = ising_system(build_family_graph("cycle", n=20), 0.15, 0.05)
    got = exact_log_partition(system)
    # transfer-matrix reference: Z = tr(T^n), field split across the two
    # endpoints of each cycle edge
    j, b = 0.15, 0.05
    transfer = np.array([
        [math.exp(j + b), math.exp(-j)],
        [math.exp(-j), math.exp(j - b)],
    ])
    z = np.trace(np.linalg.matrix_power(transfer, 20))
    assert got == pytest.approx(math.log(z), rel=1e-10)


def test_logsumexp_matches_scipy_bit_for_bit():
    # scipy is not a dependency; where it is installed, the oracle's
    # log-sum-exp must agree with it exactly, ties at the maximum included
    pytest.importorskip("scipy", minversion="1.15")
    from scipy import special

    from spinz.oracle import _logsumexp

    rng = np.random.default_rng(3)
    for trial in range(300):
        size = int(rng.integers(1, 3000))
        weights = rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0, 100.0])), size)
        weights += rng.uniform(-50.0, 50.0)
        if trial % 3 == 0:
            weights[rng.integers(0, size, 3)] = weights.max()
        expected = float(special.logsumexp(weights))
        assert _logsumexp(weights).hex() == expected.hex(), trial


def test_exact_refuses_oversized_instances():
    system = ising_system(build_family_graph("cycle", n=26), 0.1)
    with pytest.raises(ValueError):
        exact_log_partition(system)
    # conditioning below the cap makes it legal again
    cond = {v: Spin.PLUS for v in range(1, 7)}
    assert math.isfinite(exact_log_partition(system, cond))


def test_exact_condition_self_consistency():
    rng = np.random.default_rng(43)
    system = random_system(rng, 6, edge_prob=0.5)
    total = exact_log_partition(system)
    for v in system.graph.vertices():
        plus = exact_log_partition(system, {v: Spin.PLUS})
        minus = exact_log_partition(system, {v: Spin.MINUS})
        assert np.logaddexp(plus, minus) == pytest.approx(total, abs=1e-12)


def test_exact_conditional_marginal_examples():
    symmetric = ising_system(build_family_graph("cycle", n=4), 0.3)
    assert exact_conditional_marginal(symmetric, 1, Spin.PLUS) == pytest.approx(0.5, abs=1e-12)
    path = ising_system(build_family_graph("path", n=2), 0.3)
    assert exact_conditional_marginal(path, 2, Spin.PLUS, {1: Spin.PLUS}) == pytest.approx(
        0.6456563062257954, abs=1e-12
    )


def test_exact_conditional_marginal_complement():
    rng = np.random.default_rng(47)
    for _ in range(10):
        system = random_system(rng, 5, edge_prob=0.6)
        v = int(rng.integers(1, 6))
        p_plus = exact_conditional_marginal(system, v, Spin.PLUS)
        p_minus = exact_conditional_marginal(system, v, Spin.MINUS)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_exact_conditional_marginal_rejects_pinned_vertex():
    system = ising_system(build_family_graph("path", n=2), 0.3)
    with pytest.raises(ValueError):
        exact_conditional_marginal(system, 1, Spin.PLUS, {1: Spin.PLUS})
    # the other checks that extend a condition by their root refuse it too
    with pytest.raises(ValueError, match="conditioned"):
        check_saw_identity(system, 1, {1: Spin.PLUS})
    with pytest.raises(ValueError, match="already conditioned"):
        max_boundary_gap(system, 1, [2, 1], 1, np.random.default_rng(0))


def test_check_saw_identity_tree_and_triangle():
    tree_sys = ising_system(build_family_graph("path", n=5), 0.4, 0.2)
    report = check_saw_identity(tree_sys, 3)
    assert report.passed and report.max_violation <= 1e-12

    triangle = ising_system(build_family_graph("cycle", n=3), 0.4, 0.2)
    for root in (1, 2, 3):
        report = check_saw_identity(triangle, root)
        assert report.passed and report.max_violation <= 1e-10


def test_connected_graphs_counts():
    # labeled connected graph counts: 1, 1, 4, 38, 728
    for n, expected in ((1, 1), (2, 1), (3, 4), (4, 38)):
        assert sum(1 for _ in connected_graphs(n)) == expected


def test_check_contraction_small_run():
    report = check_contraction(trials=20_000, seed=3)
    assert report.passed
    assert report.trials == 20_000
    assert report.max_violation <= 1e-12


def test_check_edge_factor_lipschitz_small_run():
    report = check_edge_factor_lipschitz(trials=2_000, seed=3)
    assert report.passed


def test_edge_factor_range_is_attained_at_its_steepest_point():
    # Over an interval of width W centred where the factor is steepest,
    # lambda = -(pp - pm + mp - mm) / 2, the factor's range equals the
    # lipschitz check's bound 4*atanh(tanh|J|*tanh(W/4)), which is below
    # the linear tanh|J|*W: the check cannot be loosened unnoticed.
    rng = np.random.default_rng(11)
    for entries in rng.uniform(-2.0, 2.0, size=(50, 4)):
        potential = EdgePotential(*entries)
        pp, pm, mp, mm = entries
        slope = math.tanh(abs(interaction_strength(potential)))
        centre = -(pp - pm + mp - mm) / 2
        for width in (0.1, 1.0, 5.0, 20.0):
            moved = abs(
                edge_factor_log(potential, centre + width / 2)
                - edge_factor_log(potential, centre - width / 2)
            )
            bound = 4 * math.atanh(slope * math.tanh(width / 4))
            assert moved == pytest.approx(bound, rel=1e-9, abs=1e-12)
            assert bound < slope * width


def test_check_decay_bound_smoke():
    system = ising_system(
        build_family_graph("random_regular", n=10, degree=3, seed=5), 0.4
    )
    report = check_decay_bound(system, 1, 2, trials=20, seed=1)
    assert report.passed
    assert "radius=2" in report.worst_case


def test_check_decay_bound_zero_coupling():
    system = ising_system(build_family_graph("cycle", n=6), 0.0, 0.3)
    report = check_decay_bound(system, 1, 2, trials=10, seed=1)
    assert report.passed and report.max_violation == 0.0


def test_check_decay_bound_needs_nonempty_sphere():
    system = ising_system(build_family_graph("path", n=3), 0.2)
    with pytest.raises(ValueError):
        check_decay_bound(system, 1, 7)


def test_check_saw_identity_exhaustive_reduced():
    report = check_saw_identity_exhaustive(max_n=4, draws=3, seed=5)
    assert report.passed
    assert report.trials > 100


def test_check_saw_identity_random_reduced():
    report = check_saw_identity_random(instances=8, max_n=8, seed=5)
    assert report.passed


def test_check_telescoping_reduced():
    report = check_telescoping(instances=10, max_n=9, seed=5)
    assert report.passed
    assert report.max_violation <= 1e-9


def test_check_report_shape():
    report = check_contraction(trials=100, seed=0)
    d = report.to_dict()
    assert set(d) == {"name", "trials", "max_violation", "tolerance", "passed", "worst_case"}
    assert d["passed"] == (d["max_violation"] <= d["tolerance"])
