from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from spinz import (
    CompiledSystem,
    Condition,
    EdgePotential,
    Graph,
    SawNode,
    SawTree,
    Spin,
    SpinSystem,
    VertexField,
    attach_spin_model,
    build_family_graph,
    build_saw_tree,
    compile_system,
    connected_graphs,
    critical_inverse_temperature,
    decay_function,
    edge_factor_log,
    exact_log_partition,
    external_field,
    interaction_strength,
    ising_field,
    ising_potential,
    ising_system,
    label_share,
    marginal_plus,
    root_share,
    system_scalars,
    tree_log_ratio,
    walk_log_ratio,
)
import spinz.partition
from spinz.marginal import PINNED_PLUS

from .helpers import (
    ACCEPTANCE_FAMILIES,
    acceptance_instance,
    oriented,
    petersen_graph,
    random_system,
)


def test_edge_factor_flat_potential_is_zero():
    flat = EdgePotential(0.7, 0.7, 0.7, 0.7)
    for lam in (-math.inf, -3.0, 0.0, 2.5, math.inf):
        assert edge_factor_log(flat, lam) == pytest.approx(0.0, abs=1e-15)


def test_edge_factor_pinned_limits():
    p = ising_potential(0.5)
    assert edge_factor_log(p, math.inf) == pytest.approx(1.0, abs=1e-15)
    assert edge_factor_log(p, -math.inf) == pytest.approx(-1.0, abs=1e-15)
    assert edge_factor_log(p, 0.0) == pytest.approx(0.0, abs=1e-15)
    asym = EdgePotential(1.0, -0.5, 0.25, 0.75)
    assert edge_factor_log(asym, math.inf) == pytest.approx(asym.pp - asym.mp, abs=1e-15)
    assert edge_factor_log(asym, -math.inf) == pytest.approx(asym.pm - asym.mm, abs=1e-15)


def test_edge_factor_matches_raw_formula():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = EdgePotential(*rng.uniform(-2, 2, 4))
        lam = float(rng.uniform(-8, 8))
        r = math.exp(lam)
        raw = math.log(
            (math.exp(p.pp) * r + math.exp(p.pm)) / (math.exp(p.mp) * r + math.exp(p.mm))
        )
        assert edge_factor_log(p, lam) == pytest.approx(raw, abs=1e-12)


def test_edge_factor_finite_for_large_entries():
    p = EdgePotential(50.0, -50.0, 48.0, -12.0)
    for lam in (-math.inf, -700.0, 0.0, 700.0, math.inf):
        assert math.isfinite(edge_factor_log(p, lam))


def test_edge_factor_rejects_nan():
    with pytest.raises(ValueError):
        edge_factor_log(ising_potential(0.1), math.nan)


def test_edge_factor_lipschitz_dense_grid():
    rng = np.random.default_rng(9)
    grid = np.linspace(-20, 20, 81)
    for _ in range(40):
        p = EdgePotential(*rng.uniform(-2, 2, 4))
        slope = math.tanh(abs(interaction_strength(p)))
        values = [edge_factor_log(p, lam) for lam in grid]
        for (l1, v1), (l2, v2) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            assert abs(v2 - v1) <= slope * abs(l2 - l1) + 1e-12


def test_marginal_plus_examples():
    assert marginal_plus(0.0) == 0.5
    assert marginal_plus(math.inf) == 1.0
    assert marginal_plus(-math.inf) == 0.0
    assert marginal_plus(math.log(3)) == pytest.approx(0.75, abs=1e-15)
    assert marginal_plus(-800.0) == 0.0
    assert marginal_plus(800.0) == 1.0
    with pytest.raises(ValueError):
        marginal_plus(math.nan)


def _single_vertex_system(b: float) -> SpinSystem:
    return SpinSystem(Graph.from_edges(1, []), {}, {1: ising_field(b)})


def test_tree_ratio_single_free_node_is_twice_field():
    system = _single_vertex_system(0.35)
    tree = build_saw_tree(system, 1, 1)
    assert tree_log_ratio(system, tree) == pytest.approx(0.7, abs=1e-15)


def test_tree_ratio_symmetric_path_is_zero():
    system = ising_system(build_family_graph("path", n=2), 0.5)
    tree = build_saw_tree(system, 1, 2)
    assert tree_log_ratio(system, tree) == pytest.approx(0.0, abs=1e-15)
    assert marginal_plus(tree_log_ratio(system, tree)) == pytest.approx(0.5, abs=1e-15)


def test_tree_ratio_fixed_child_hand_value():
    # root field 0.1, one child pinned +, Ising J=0.3: 2B + (pp - mp) = 0.8
    graph = Graph.from_edges(2, [(1, 2)])
    system = SpinSystem(
        graph,
        {(1, 2): ising_potential(0.3)},
        {1: ising_field(0.1), 2: ising_field(0.0)},
    )
    tree = build_saw_tree(system, 1, 2, {2: Spin.PLUS})
    assert tree_log_ratio(system, tree) == pytest.approx(0.8, abs=1e-15)


def test_tree_ratio_rejects_pinned_root_and_nan_frontier():
    system = ising_system(build_family_graph("path", n=2), 0.2)
    pinned = build_saw_tree(system, 1, 2, {1: Spin.PLUS})
    with pytest.raises(ValueError):
        tree_log_ratio(system, pinned)
    free = build_saw_tree(system, 1, 2)
    with pytest.raises(ValueError):
        tree_log_ratio(system, free, frontier=math.nan)
    # the midpoint frontier needs an edge above the frontier leaf
    with pytest.raises(ValueError, match="depth limit of at least 1"):
        tree_log_ratio(system, build_saw_tree(system, 1, 0))
    # the fold reads the tables the walk compiled, which a hand-built tree lacks
    hand_built = SawTree(SawNode(1, 0, None, [SawNode(2, 1, None, [], stopped=True)]), 1, 2)
    for tree in (hand_built, dataclasses.replace(free, compiled=None)):
        with pytest.raises(ValueError, match="carries no compiled tables; build it with build_saw_tree"):
            tree_log_ratio(system, tree)


def test_free_leaf_below_limit_takes_field_not_frontier():
    # leaf vertex 2 sits at depth 1 < limit 5; it is exact, so the frontier
    # value must not leak into it
    system = ising_system(build_family_graph("path", n=2), 0.4, 0.0)
    tree = build_saw_tree(system, 1, 5)
    assert tree_log_ratio(system, tree, frontier=9.0) == pytest.approx(0.0, abs=1e-15)


def test_frontier_applies_only_at_depth_limit():
    system = ising_system(build_family_graph("path", n=3), 0.3)
    tree = build_saw_tree(system, 1, 1)
    # single child at the limit pinned to the frontier value
    for frontier, expected in ((math.inf, 0.6), (-math.inf, -0.6), (0.0, 0.0)):
        assert tree_log_ratio(system, tree, frontier) == pytest.approx(expected, abs=1e-12)


def test_tree_ratio_reads_only_the_tables_its_walk_read():
    # A built tree carries the CompiledSystem its walk read, and
    # tree_log_ratio evaluates over it: the system's own tables, stripped
    # here, are never read, and the bits are the same, for split and
    # uniform trees.
    rng = np.random.default_rng(26)
    grid = build_family_graph("grid", rows=3, cols=4)
    regular = build_family_graph("random_regular", n=10, degree=3, seed=4)
    trees = 0
    for graph, cond in ((grid, {}), (regular, {3: Spin.PLUS, 8: Spin.MINUS})):
        potentials = {e: EdgePotential(*rng.uniform(-0.5, 0.5, 4)) for e in graph.edges}
        fields = {v: VertexField(*rng.uniform(-1, 1, 2)) for v in graph.vertices()}
        system = SpinSystem(graph, potentials, fields)
        bare = system._replace(potentials={}, fields={})
        for root in (v for v in graph.vertices() if v not in cond):
            for depth in (1, 2, 4):
                for uniform in (False, True):
                    tree = build_saw_tree(system, root, depth, cond, uniform=uniform)
                    want = tree_log_ratio(system, tree)
                    assert tree_log_ratio(bare, tree).hex() == want.hex()
                    stopped = tree_log_ratio(bare, tree, -math.inf)
                    assert stopped.hex() == tree_log_ratio(system, tree, -math.inf).hex()
                    trees += 1
    assert trees == (12 + 8) * 3 * 2


def test_saw_tree_keeps_its_compiled_system_out_of_repr_and_equality():
    def system():
        return ising_system(build_family_graph("cycle", n=5), 0.3, 0.1)

    tree = build_saw_tree(system(), 1, 3)
    assert isinstance(tree.compiled, CompiledSystem)
    assert "CompiledSystem" not in repr(tree)
    again = build_saw_tree(system(), 1, 3)
    assert again.compiled is not tree.compiled and again == tree
    assert dataclasses.replace(tree, compiled=None) == tree
    # No walk runs for a pinned root or at depth 0, so no tables are kept.
    assert build_saw_tree(system(), 1, 0).compiled is None
    assert build_saw_tree(system(), 1, 3, {1: Spin.PLUS}).compiled is None


def _reference_tree_ratio(system, node, depth_limit, frontier):
    """Plain recursive evaluation used to cross-check the iterative sweep."""
    if node.spin is not None:
        return math.inf if node.spin is Spin.PLUS else -math.inf
    if not node.children:
        if node.depth == depth_limit:
            return frontier
        return 2.0 * (system.fields[node.origin].h_plus - system.fields[node.origin].h_minus) / 2.0
    total = (system.fields[node.origin].h_plus - system.fields[node.origin].h_minus)
    for child in node.children:
        lam = _reference_tree_ratio(system, child, depth_limit, frontier)
        pot = oriented(system, node.origin, child.origin)
        if lam is None:
            # lookahead frontier: the leaf's log ratio lies between twice its
            # field plus the smaller, and plus the larger, pinned factor of
            # each edge to its own children
            w = child.origin
            lo = hi = system.fields[w].h_plus - system.fields[w].h_minus
            for c in system.graph.adjacency[w - 1]:
                if c != node.origin:
                    below = oriented(system, w, c)
                    pinned = (edge_factor_log(below, math.inf), edge_factor_log(below, -math.inf))
                    lo += min(pinned)
                    hi += max(pinned)
            total += (edge_factor_log(pot, lo) + edge_factor_log(pot, hi)) / 2
        else:
            total += edge_factor_log(pot, lam)
    return total


def test_tree_ratio_matches_recursive_reference():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        system = random_system(rng, n, edge_prob=0.5)
        root = int(rng.integers(1, n + 1))
        limit = int(rng.integers(1, n + 1))
        frontier = float(rng.choice([-math.inf, -2.0, 0.0, 1.5, math.inf]))
        tree = build_saw_tree(system, root, limit, uniform=True)
        expected = _reference_tree_ratio(system, tree.root, limit, frontier)
        assert tree_log_ratio(system, tree, frontier) == pytest.approx(expected, abs=1e-12)
        lookahead = _reference_tree_ratio(system, tree.root, limit, None)
        assert tree_log_ratio(system, tree) == pytest.approx(lookahead, abs=1e-12)


def _flipped(system: SpinSystem) -> SpinSystem:
    potentials = {
        e: EdgePotential(p.mm, p.mp, p.pm, p.pp) for e, p in system.potentials.items()
    }
    fields = {v: VertexField(f.h_minus, f.h_plus) for v, f in system.fields.items()}
    return SpinSystem(system.graph, potentials, fields)


def test_global_spin_flip_negates_ratio():
    # on complete trees the root value is the graph log-ratio, so swapping
    # + and - in every table, field, and condition negates it
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        system = random_system(rng, n, edge_prob=0.5)
        cond = Condition({n: Spin.PLUS}) if n > 1 and rng.random() < 0.5 else Condition()
        flipped_cond = Condition({v: -cond[v] for v in cond})
        lam = tree_log_ratio(system, build_saw_tree(system, 1, n, cond, uniform=True))
        flipped = _flipped(system)
        lam_flipped = tree_log_ratio(
            flipped, build_saw_tree(flipped, 1, n, flipped_cond, uniform=True)
        )
        assert lam_flipped == pytest.approx(-lam, abs=1e-10)


def test_boundary_sensitivity_bound():
    # any two frontier assignments move the root by at most
    # 4 * J * s * tanh(J)^(t-1) with s the free frontier leaves at depth t
    rng = np.random.default_rng(27)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 9))
        system = random_system(rng, n, edge_prob=0.45, coupling=0.8)
        scal_j = max(
            (abs(interaction_strength(p)) for p in system.potentials.values()), default=0.0
        )
        if scal_j == 0.0:
            continue
        root = int(rng.integers(1, n + 1))
        limit = int(rng.integers(1, 5))
        tree = build_saw_tree(system, root, limit, uniform=True)
        s = _free_frontier_leaves(tree)
        if s == 0:
            continue
        bound = 4.0 * scal_j * s * math.tanh(scal_j) ** (limit - 1)
        pairs = [(-math.inf, math.inf), (-2.0, 1.0), (0.0, math.inf), (-3.0, 3.0)]
        for f1, f2 in pairs:
            delta = abs(tree_log_ratio(system, tree, f1) - tree_log_ratio(system, tree, f2))
            assert delta <= bound * (1 + 1e-9) + 1e-12
        checked += 1
    assert checked >= 20


def _free_frontier_leaves(tree) -> int:
    count = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.spin is None and not node.children and node.depth == tree.depth_limit:
            count += 1
        stack.extend(node.children)
    return count


def test_complete_tree_frontier_independent():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        system = random_system(rng, n, edge_prob=0.6)
        cond = Condition({n: Spin.MINUS}) if rng.random() < 0.5 else Condition()
        tree = build_saw_tree(system, 1, n, cond, uniform=True)
        base = tree_log_ratio(system, tree, frontier=-math.inf)
        for frontier in (math.inf, 0.0, 4.2):
            assert tree_log_ratio(system, tree, frontier) == pytest.approx(base, abs=1e-12)


def test_depth_one_walk_on_a_path_of_two_is_exact():
    # The frontier leaf has no child, so its interval is a point and the
    # lookahead frontier is its exact factor.
    rng = np.random.default_rng(47)
    graph = build_family_graph("path", n=2)
    for _ in range(20):
        system = SpinSystem(
            graph,
            {(1, 2): EdgePotential(*rng.uniform(-3, 3, 4))},
            {v: VertexField(*rng.uniform(-2, 2, 2)) for v in graph.vertices()},
        )
        compiled = compile_system(system)
        for root in graph.vertices():
            exact = exact_log_partition(system, {root: Spin.PLUS}) - exact_log_partition(
                system, {root: Spin.MINUS}
            )
            lam, count, charge = walk_log_ratio(compiled, compiled.stops(), root, 1)
            assert (count, charge) == (2, 0.0)
            assert lam == pytest.approx(exact, abs=1e-12)


def _interval(compiled, w, children):
    """w's log ratio interval: twice its field plus, per child, the smaller
    (larger) of that edge's two pinned factors."""
    lo = hi = compiled.twice_field[w]
    for child in children:
        lo += min(child[1][0], child[1][1])
        hi += max(child[1][0], child[1][1])
    return lo, hi


def _half_range(system, compiled, v, w, below):
    """Half the range of the factor of the edge v -> w, numbered ``below``,
    over w's interval, from the system's own table."""
    potential = oriented(system, v, w)
    ends = [edge_factor_log(potential, lam) for lam in _interval(compiled, w, compiled.belows[below])]
    return abs(ends[1] - ends[0]) / 2


def test_compiled_frontier_errors_are_exact_half_ranges():
    # errors[below] is how far frontier[below] can be from the factor of
    # the edge v -> w at any log ratio in w's interval, and no more: the
    # half-range at the interval's ends.  It is at most 2a, the worst case
    # for the system's largest coupling and degree, and 0.0 for an edge of
    # interaction strength 0, whose stretch is inf.  spent[below] is the
    # sum of the errors of w's children, in ascending order, over the
    # stretch: tanh|J_vw| times that sum, and 0.0 at J = 0, so the 800 of
    # a uniform 400-cycle are one value.
    # settled[below] is the factor of v -> w at w's log ratio with every
    # child on the frontier, split in its two terms.
    rng = np.random.default_rng(53)
    zero_edges = 0
    for family, params in (
        ("grid", {"rows": 3, "cols": 4}),
        ("random_regular", {"n": 10, "degree": 3, "seed": 2}),
        ("path", {"n": 4}),
    ):
        graph = build_family_graph(family, **params)
        for _ in range(10):
            potentials = {}
            for e in graph.edges:
                pp, pm, mp, mm = rng.uniform(-0.4, 0.4, 4)
                decoupled = rng.random() < 0.2
                potentials[e] = EdgePotential(pp, pm, pp, pm) if decoupled else EdgePotential(pp, pm, mp, mm)
            fields = {v: VertexField(*rng.uniform(-1, 1, 2)) for v in graph.vertices()}
            system = SpinSystem(graph, potentials, fields)
            scalars = system_scalars(system)
            coupling, degree = scalars.max_coupling, scalars.degree_bound
            worst = 2 * math.atanh(math.tanh(coupling) * math.tanh((degree - 1) * coupling))
            compiled = compile_system(system)
            for v in graph.vertices():
                twice = 2.0 * external_field(system.fields[v])
                assert compiled.twice_field[v].hex() == twice.hex()
                for w, factors, below in compiled.rows[v]:
                    potential = oriented(system, v, w)
                    # The row entry holds the table read v -> w and its two
                    # pinned factors, bit for bit.
                    pinned = (potential.pp - potential.mp, potential.pm - potential.mm)
                    assert [x.hex() for x in factors[:6]] == [x.hex() for x in (*pinned, *potential)]
                    # interaction_strength summed in an order that both
                    # orientations share
                    strength = abs((potential.pp + potential.mm) - (potential.pm + potential.mp)) / 4
                    assert strength == pytest.approx(abs(interaction_strength(potential)), abs=1e-15)
                    error = compiled.errors[below]
                    children = compiled.belows[below]
                    if strength == 0.0:
                        zero_edges += 1
                        assert factors[6] == math.inf and error == 0.0
                    else:
                        assert factors[6] == pytest.approx(1 / math.tanh(strength), rel=1e-12)
                    assert error <= worst + 1e-15
                    lo, hi = _interval(compiled, w, children)
                    assert error == pytest.approx(_half_range(system, compiled, v, w, below), abs=1e-15)
                    for lam in rng.uniform(lo, hi, 5):
                        gap = abs(compiled.frontier[below] - edge_factor_log(potential, lam))
                        assert gap <= error + 1e-12
                    charge = 0.0
                    for child in children:
                        charge += compiled.errors[child[2]]
                    spent = compiled.spent[below]
                    assert spent == charge / factors[6]
                    if strength == 0.0:
                        assert spent == 0.0 and math.copysign(1.0, spent) == 1.0
                    exact = [_half_range(system, compiled, w, child[0], child[2]) for child in children]
                    assert spent == pytest.approx(math.tanh(strength) * sum(exact), abs=1e-15)
                    lam = compiled.twice_field[w]
                    for child in children:
                        lam += compiled.frontier[child[2]]
                    pp, pm, mp, mm = potential
                    direct = math.log((math.exp(pp + lam) + math.exp(pm))
                                      / (math.exp(mp + lam) + math.exp(mm)))
                    x, y = compiled.settled[below]
                    assert abs((x - y) - direct) <= 1e-12
    assert zero_edges > 0
    # Fields of +-1e308 put twice w's field, and so its log ratio with every
    # child on the frontier, at +-inf: the pair is the pinned factor and 0.0.
    graph = build_family_graph("random_regular", n=8, degree=3, seed=2)
    potentials = {e: EdgePotential(*rng.uniform(-1, 1, 4)) for e in graph.edges}
    fields = {v: VertexField(1e308, -1e308) if v % 2 else VertexField(-1e308, 1e308)
              for v in graph.vertices()}
    system = SpinSystem(graph, potentials, fields)
    compiled = compile_system(system)
    for v in graph.vertices():
        twice = 2.0 * external_field(system.fields[v])
        assert compiled.twice_field[v].hex() == twice.hex()
        for w, _, below in compiled.rows[v]:
            pp, pm, mp, mm = oriented(system, v, w)
            pinned = pp - mp if w % 2 else pm - mm
            assert compiled.twice_field[w] == (math.inf if w % 2 else -math.inf)
            x, y = compiled.settled[below]
            assert x.hex() == pinned.hex() and y.hex() == (0.0).hex()
    cycle = compile_system(ising_system(build_family_graph("cycle", n=400), 0.5, 0.1))
    assert len(cycle.spent) == 800 and len(set(cycle.spent)) == 1


ENVELOPE_GRAPHS = [
    ("cycle", {"n": 7}),
    ("grid", {"rows": 3, "cols": 3}),
    ("random_regular", {"n": 8, "degree": 3, "seed": 1}),
    ("complete", {"n": 5}),
    ("path", {"n": 6}),
    ("erdos_renyi", {"n": 9, "degree": 2.5, "seed": 4}),
]


def test_midpoint_frontier_within_half_envelope_of_exact():
    # A lookahead frontier leaf is off by at most tanh(J) times half its
    # interval, so the truncated root is within decay_function(t + 1) / 2 of
    # the exact conditional log ratio at every depth t.  A -inf frontier is
    # only within the whole envelope at t; that it breaks the tighter bound
    # somewhere shows the sweep can tell the two apart.
    rng = np.random.default_rng(43)
    worst = {None: 0.0, -math.inf: 0.0}
    pairs = 0
    for family, params in ENVELOPE_GRAPHS:
        graph = build_family_graph(family, **params)
        for _ in range(25):
            potentials = {e: EdgePotential(*rng.uniform(-6, 6, 4)) for e in graph.edges}
            fields = {v: VertexField(*rng.uniform(-3, 3, 2)) for v in graph.vertices()}
            system = SpinSystem(graph, potentials, fields)
            scalars = system_scalars(system)
            root = int(rng.integers(1, graph.n + 1))
            cond = Condition({
                v: Spin.PLUS if rng.random() < 0.5 else Spin.MINUS
                for v in graph.vertices()
                if v != root and rng.random() < 0.3
            })
            exact = exact_log_partition(system, {**cond, root: Spin.PLUS}) - (
                exact_log_partition(system, {**cond, root: Spin.MINUS})
            )
            compiled = compile_system(system)
            for depth in range(1, graph.n + 1):
                half = decay_function(depth + 1, scalars.max_coupling, scalars.degree_bound) / 2
                lookahead, _, _ = walk_log_ratio(compiled, compiled.stops(cond), root, depth)
                tree = build_saw_tree(system, root, depth, cond, uniform=True)
                minus = tree_log_ratio(system, tree, -math.inf)
                for frontier, lam in ((None, lookahead), (-math.inf, minus)):
                    worst[frontier] = max(worst[frontier], abs(lam - exact) / half)
                pairs += 1
    assert pairs >= 1000
    assert worst[None] <= 1.0 + 1e-9
    assert worst[-math.inf] > 1.0


def test_charge_bounds_the_error_of_every_sweep_walk():
    # Each walk of the +-pinned sweep, with the sweep's root allowances at
    # depths 1 to 7, is off from the complete tree by at most the charge it
    # returns: split walks and, at the acceptance cycles' maximum degree 2,
    # uniform walks, whose allowance is 0.0.  The systems are the
    # acceptance instances and every connected graph on at most 4 vertices
    # with random near-critical tables, whose allowances take the scalars
    # at degree 3 (contraction 2 * tanh(J)) so that the split runs on paths
    # and cycles too.  A depth-1 walk charges the errors of its stopped root
    # children, however large its allowance.  The allowances: the equal
    # split root_share * k_v of the a-priori sweep, and the label_share
    # split, unscaled and scaled by the root's certificate weight kappa, as
    # the sweeps below the a-priori depth give it.
    coupling = 0.9 * critical_inverse_temperature(3)
    systems = [
        (acceptance_instance(family, model, seed), False)
        for family in ACCEPTANCE_FAMILIES
        for model in ("ising", "random")
        for seed in range(3)
    ]
    for n in range(1, 5):
        for index, graph in enumerate(connected_graphs(n)):
            systems.append((attach_spin_model(graph, "random", coupling, 1.0, seed=index), True))
    walks = charged_depth_one = uniform = 0
    for system, at_degree_three in systems:
        n = system.n
        scalars = system_scalars(system)
        if at_degree_three:
            contraction = 2 * math.tanh(scalars.max_coupling)
            scalars = scalars._replace(degree_bound=3, contraction=contraction)
        compiled = compile_system(system)
        for depth in range(1, 8):
            share = root_share(scalars, depth)
            per_label = label_share(system.graph, share)
            stops = compiled.stops()
            for v in range(1, n + 1):
                free = sum(w > v for w in system.graph.adjacency[v - 1])
                exact, _, _ = walk_log_ratio(compiled, stops, v, n)
                split = per_label * (free * (n + 1 - v))
                weighted = spinz.partition._allowance(compiled, stops, v, per_label, n + 1 - v)
                for allowance in (share * free, split, weighted):
                    log_ratio, _, charge = walk_log_ratio(compiled, stops, v, depth, allowance)
                    assert abs(log_ratio - exact) <= charge + 1e-12, (system, depth, v, charge)
                    walks += 1
                    charged_depth_one += depth == 1 and charge > 0.0
                    uniform += depth > 1 and not share
                stops[v] = PINNED_PLUS
    assert walks > 4000 and charged_depth_one > 0 and uniform > 0, (walks, charged_depth_one, uniform)


def test_label_share_keeps_the_sweeps_total_allowance():
    # Below the a-priori depth the sweep gives vertex v's root
    # label_share * (k_v * (n - v + 1)), k_v its neighbours with a larger
    # label.  Those allowances sum to share * |E|, the total of the equal
    # split share * k_v, within rounding; the first root with free children
    # gets more than its equal split, and the last one less.
    share = 0.37
    graphs = [
        petersen_graph(),
        build_family_graph("grid", rows=4, cols=6),
        build_family_graph("random_regular", n=40, degree=3, seed=16),
        build_family_graph("complete", n=5),
        build_family_graph("path", n=6),
        build_family_graph("erdos_renyi", n=12, degree=2.5, seed=3),
    ]
    for graph in graphs:
        n = graph.n
        unit = label_share(graph, share)
        free = {v: sum(w > v for w in graph.adjacency[v - 1]) for v in graph.vertices()}
        allowances = {v: unit * (k * (n + 1 - v)) for v, k in free.items()}
        assert math.fsum(allowances.values()) == pytest.approx(share * len(graph.edges), rel=1e-12)
        roots = [v for v in graph.vertices() if free[v]]
        assert allowances[roots[0]] > share * free[roots[0]]
        assert allowances[roots[-1]] < share * free[roots[-1]]
    assert label_share(Graph.from_edges(3, []), share) == 0.0
    assert label_share(Graph.from_edges(0, []), share) == 0.0
    assert label_share(petersen_graph(), 0.0) == 0.0
