from __future__ import annotations

import numpy as np
import pytest

from spinz import (
    Condition,
    Graph,
    Spin,
    build_family_graph,
    build_saw_tree,
    checked_condition,
    exact_log_partition,
    format_saw_tree,
    frontier_count,
    ising_system,
    tree_log_ratio,
)

from .helpers import petersen_graph, random_system

TRIANGLE_DUMP = """\
1 depth=0 free
  2 depth=1 free
    3 depth=2 free
      1 depth=3 +
  3 depth=1 free
    2 depth=2 free
      1 depth=3 -"""


def test_condition_basics():
    system = ising_system(build_family_graph("path", n=3), 0.4)
    cond = checked_condition(3, 1, Condition({2: 1, 3: -1}))
    assert type(cond) is dict
    assert cond == {2: Spin.PLUS, 3: Spin.MINUS}
    assert cond[2] is Spin.PLUS and cond[3] is Spin.MINUS
    for label in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match="vertex label must be a positive integer"):
            build_saw_tree(system, 1, 3, {label: Spin.PLUS})
        with pytest.raises(ValueError, match="vertex label must be a positive integer"):
            exact_log_partition(system, {label: Spin.PLUS})
    for build in (lambda c: build_saw_tree(system, 1, 3, c), lambda c: exact_log_partition(system, c)):
        with pytest.raises(ValueError, match="conditioned vertex 4 is not in the graph"):
            build({4: Spin.PLUS})
        with pytest.raises(ValueError):
            build({2: 0})  # not a spin
    # Labels with more digits than str conversion allows are described.
    huge = 10**5000
    for label, message in (
        (huge, f"conditioned vertex an int of {huge.bit_length()} bits is not in the graph "
               "(valid labels are 1..3)"),
        (-huge, f"vertex label must be a positive integer, got an int of {huge.bit_length()} bits"),
    ):
        with pytest.raises(ValueError) as info:
            checked_condition(3, None, {label: 1})
        assert str(info.value) == message


def test_triangle_golden_tree():
    system = ising_system(build_family_graph("cycle", n=3), 0.4)
    tree = build_saw_tree(system, 1, 3)
    assert tree.node_count == 7
    assert tree.root_vertex == 1
    assert format_saw_tree(tree) == TRIANGLE_DUMP
    # the two walks around the triangle close with opposite boundary spins
    plus_leaf = tree.root.children[0].children[0].children[0]
    minus_leaf = tree.root.children[1].children[0].children[0]
    assert plus_leaf.origin == 1 and plus_leaf.spin is Spin.PLUS
    assert minus_leaf.origin == 1 and minus_leaf.spin is Spin.MINUS


def test_tree_graph_gives_isomorphic_tree():
    # a graph with no cycles reproduces itself rooted at the chosen vertex
    g = Graph.from_edges(6, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
    system = ising_system(g, 0.3, 0.1)
    tree = build_saw_tree(system, 1, 6, uniform=True)
    assert tree.node_count == 6
    dump = format_saw_tree(tree)
    assert dump.count("free") == 6 and "+" not in dump


def test_conditioned_path_golden():
    system = ising_system(build_family_graph("path", n=3), 0.3)
    tree = build_saw_tree(system, 1, 5, {3: Spin.PLUS})
    assert format_saw_tree(tree) == "\n".join(
        ["1 depth=0 free", "  2 depth=1 free", "    3 depth=2 +"]
    )
    assert tree.node_count == 3


def test_conditioned_root_is_single_pinned_node():
    system = ising_system(build_family_graph("path", n=3), 0.3)
    tree = build_saw_tree(system, 2, 4, {2: Spin.MINUS})
    assert tree.node_count == 1
    assert tree.root.spin is Spin.MINUS and not tree.root.children


def test_depth_limit_zero_and_frontier():
    system = ising_system(build_family_graph("cycle", n=4), 0.2)
    tree = build_saw_tree(system, 1, 0)
    assert tree.node_count == 1 and tree.root.children == []
    # The root is the one stopped leaf, so it takes the frontier value.
    assert tree_log_ratio(system, tree, 1.25) == 1.25
    deeper = build_saw_tree(system, 1, 2)
    assert frontier_count(deeper, 0) == 1
    assert frontier_count(deeper, 1) == 2
    assert frontier_count(deeper, 2) == 2
    with pytest.raises(ValueError):
        frontier_count(deeper, 3)
    with pytest.raises(ValueError):
        frontier_count(deeper, -1)


def test_stopped_leaves_print_as_frontier():
    # Free leaves the truncation stopped print as frontier: at the depth
    # limit in the uniform tree, and above it where the split stops a
    # branch.  A free node that has all its children prints as free.
    cycle = ising_system(build_family_graph("cycle", n=4), 0.2)
    assert format_saw_tree(build_saw_tree(cycle, 1, 2)) == "\n".join([
        "1 depth=0 free",
        "  2 depth=1 free",
        "    3 depth=2 frontier",
        "  4 depth=1 free",
        "    3 depth=2 frontier",
    ])
    petersen = ising_system(petersen_graph(), 0.3)
    tree = build_saw_tree(petersen, 1, 6)
    stopped = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.stopped:
            assert node.spin is None and node.children == []
            stopped.append(node.depth)
        stack.extend(node.children)
    lines = format_saw_tree(tree).splitlines()
    assert sum(line.endswith(" frontier") for line in lines) == len(stopped)
    assert min(stopped) < tree.depth_limit == max(stopped)
    assert build_saw_tree(petersen, 1, 0).root.stopped


def test_frontier_count_regular_girth():
    # 3-regular girth-5 graph: levels below the girth count d*(d-1)^(l-1)
    system = ising_system(petersen_graph(), 0.2)
    tree = build_saw_tree(system, 1, 4, uniform=True)
    assert frontier_count(tree, 1) == 3
    assert frontier_count(tree, 2) == 6
    assert frontier_count(tree, 0) == 1


def test_node_count_branching_bound():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        system = random_system(rng, n, edge_prob=0.5)
        d = system.graph.max_degree()
        if d == 0:
            continue
        limit = int(rng.integers(0, n + 1))
        tree = build_saw_tree(system, int(rng.integers(1, n + 1)), limit)
        bound = 1 + d * sum((d - 1) ** k for k in range(limit)) if limit else 1
        assert tree.node_count <= bound


def test_sibling_origins_distinct_and_depths_consistent():
    rng = np.random.default_rng(11)
    system = random_system(rng, 7, edge_prob=0.6)
    tree = build_saw_tree(system, 1, 7)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        origins = [c.origin for c in node.children]
        assert len(set(origins)) == len(origins)
        assert origins == sorted(origins)
        for child in node.children:
            assert child.depth == node.depth + 1
            assert system.graph.has_edge(node.origin, child.origin)
            if child.spin is not None:
                assert child.children == []
            stack.append(child)


def test_complete_tree_expands_every_free_node():
    # with depth_limit = n every free node has one child per neighbor,
    # minus the arrival edge
    rng = np.random.default_rng(13)
    for _ in range(10):
        system = random_system(rng, 6, edge_prob=0.5)
        cond = Condition({6: Spin.PLUS}) if rng.random() < 0.5 else Condition()
        if 1 in cond:
            continue
        tree = build_saw_tree(system, 1, 6, cond, uniform=True)
        stack = [(tree.root, True)]
        while stack:
            node, is_root = stack.pop()
            if node.spin is None:
                expected = len(system.graph.neighbors(node.origin)) - (0 if is_root else 1)
                assert len(node.children) == expected
            for child in node.children:
                stack.append((child, False))


def test_rebuild_is_deterministic():
    rng = np.random.default_rng(17)
    system = random_system(rng, 8, edge_prob=0.4)
    first = build_saw_tree(system, 2, 8)
    second = build_saw_tree(system, 2, 8)
    assert first.node_count == second.node_count
    assert format_saw_tree(first) == format_saw_tree(second)


def test_build_rejects_bad_inputs():
    system = ising_system(build_family_graph("path", n=3), 0.1)
    with pytest.raises(ValueError):
        build_saw_tree(system, 0, 3)
    with pytest.raises(ValueError):
        build_saw_tree(system, 4, 3)
    with pytest.raises(ValueError):
        build_saw_tree(system, 1, -1)
    with pytest.raises(ValueError):
        build_saw_tree(system, 1, 3, {9: Spin.PLUS})
