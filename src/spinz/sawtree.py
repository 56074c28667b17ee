"""Trees of self-avoiding walks with pinned boundary copies.

Walks start at a root vertex and extend to any neighbor except the one they
arrived from.  A step onto a vertex already on the walk closes a cycle and
terminates in a leaf pinned to + or -, decided by comparing the label sum of
the edge that closes the cycle with that of the edge by which the walk first
left the revisited vertex (larger sum closes to +).  Copies of conditioned
vertices terminate walks the same way, pinned to their assigned spin.  Free
nodes sitting exactly at the depth limit form the frontier: their subtrees
are not constructed.

The marginal of the root in this tree equals its marginal in the original
graph, which is what makes the truncated evaluation in ``marginal`` a
controlled approximation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .core import Spin, SpinSystem

__all__ = [
    "Condition",
    "SawNode",
    "SawTree",
    "edge_greater",
    "build_saw_tree",
    "checked_condition",
    "frontier_count",
    "format_saw_tree",
]


class Condition(Mapping):
    """Read-only partial assignment of spins to vertex labels.

    An empty condition means unconditioned.  Vertex labels are validated as
    positive integers here and against a concrete graph at the point of use.
    """

    __slots__ = ("_assignments",)

    def __init__(self, assignments: Mapping[int, Spin] | Iterable[tuple[int, Spin]] | None = None):
        if assignments is None:
            items: Iterable[tuple[int, Spin]] = ()
        elif isinstance(assignments, Mapping):
            items = assignments.items()
        else:
            items = assignments
        normalized: dict[int, Spin] = {}
        for vertex, spin in items:
            if isinstance(vertex, bool) or not isinstance(vertex, int) or vertex < 1:
                raise ValueError(f"vertex label must be a positive integer, got {vertex!r}")
            normalized[vertex] = Spin(spin)
        self._assignments = normalized

    def __getitem__(self, vertex: int) -> Spin:
        return self._assignments[vertex]

    def __iter__(self):
        return iter(self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {self._assignments[v]}" for v in sorted(self._assignments))
        return f"Condition({{{inner}}})"

    def assign(self, vertex: int, spin: Spin) -> "Condition":
        """A new condition extended by one pinned vertex, which must be free."""
        if vertex in self._assignments:
            raise ValueError(f"vertex {vertex} is already conditioned")
        extended = dict(self._assignments)
        extended[vertex] = spin
        return Condition(extended)


def edge_greater(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """Label-sum order on two edges that share a vertex.

    Only defined for edge pairs with a common endpoint; anything else is a
    construction bug, not a tie to break.
    """
    a, b = first
    c, d = second
    if a != c and a != d and b != c and b != d:
        raise ValueError(f"edges {first} and {second} share no vertex; comparison undefined")
    return a + b > c + d


@dataclass(slots=True)
class SawNode:
    """One walk position, a copy of a graph vertex.

    ``spin`` is None while the node is free; pinned leaves carry their spin
    and never have children.  Children are ordered by ascending neighbor
    label, and their origins are distinct neighbors of this node's origin.
    Treat nodes as immutable once the tree is built.
    """

    origin: int
    depth: int
    spin: Spin | None
    children: list["SawNode"]


@dataclass(frozen=True)
class SawTree:
    """A built walk tree: root node, root vertex label, depth limit, and the
    total number of nodes constructed (the work bookkeeping)."""

    root: SawNode
    root_vertex: int
    depth_limit: int
    node_count: int


def checked_condition(n: int, root, condition: Mapping[int, Spin] | None) -> Condition:
    """Validate a walk's root label and condition against a graph on n
    vertices; the condition as a ``Condition``."""
    if isinstance(root, bool) or not isinstance(root, int) or not 1 <= root <= n:
        raise ValueError(f"unknown vertex label {root!r} (valid labels are 1..{n})")
    cond = condition if isinstance(condition, Condition) else Condition(condition)
    for v in cond:
        if v > n:
            raise ValueError(f"conditioned vertex {v} is not in the graph (n={n})")
    return cond


def build_saw_tree(
    system: SpinSystem,
    root: int,
    depth_limit: int,
    condition: Mapping[int, Spin] | None = None,
) -> SawTree:
    """Build the walk tree from ``root`` down to ``depth_limit``.

    Conditioned vertices become pinned leaves wherever a walk reaches them;
    revisits close cycles into pinned leaves; free nodes at the depth limit
    stay unexpanded.  Construction is iterative (explicit stack), so deep
    trees do not hit the interpreter recursion limit, and deterministic:
    children follow sorted neighbor order.

    Setting ``depth_limit`` to the vertex count produces the complete tree,
    since no self-avoiding walk can visit more vertices than the graph has.
    """
    graph = system.graph
    if depth_limit < 0:
        raise ValueError("depth limit must be nonnegative")
    cond = checked_condition(graph.n, root, condition)

    pinned = dict(cond)
    root_spin = pinned.get(root)
    if root_spin is not None:
        return SawTree(SawNode(root, 0, root_spin, []), root, depth_limit, 1)
    root_node = SawNode(root, 0, None, [])
    count = 1
    if depth_limit == 0:
        return SawTree(root_node, root, depth_limit, count)

    adjacency = graph.adjacency
    on_walk = bytearray(graph.n + 1)
    on_walk[root] = 1
    # First-departure neighbor for each vertex on the current walk; rewritten
    # as the walk backtracks, read only for vertices currently on the walk.
    left_toward = [0] * (graph.n + 1)
    get_pinned = pinned.get
    plus, minus = Spin.PLUS, Spin.MINUS

    stack = [(root_node, 0, iter(adjacency[root - 1]))]
    while stack:
        node, entered_from, remaining = stack[-1]
        child_label = next(remaining, 0)
        if child_label == 0:
            stack.pop()
            on_walk[node.origin] = 0
            continue
        if child_label == entered_from:
            continue
        origin = node.origin
        child_depth = node.depth + 1
        spin = get_pinned(child_label)
        if spin is not None:
            child = SawNode(child_label, child_depth, spin, [])
        elif on_walk[child_label]:
            closing = (origin, child_label)
            opening = (child_label, left_toward[child_label])
            child = SawNode(
                child_label,
                child_depth,
                plus if edge_greater(closing, opening) else minus,
                [],
            )
        else:
            child = SawNode(child_label, child_depth, None, [])
            if child_depth < depth_limit:
                on_walk[child_label] = 1
                left_toward[origin] = child_label
                stack.append((child, origin, iter(adjacency[child_label - 1])))
        node.children.append(child)
        count += 1

    return SawTree(root_node, root, depth_limit, count)


def frontier_count(tree: SawTree, level: int) -> int:
    """Number of nodes at depth exactly ``level`` (0 <= level <= depth limit)."""
    if not 0 <= level <= tree.depth_limit:
        raise ValueError(f"level {level} outside [0, {tree.depth_limit}]")
    count = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.depth == level:
            count += 1
        else:
            stack.extend(node.children)
    return count


def format_saw_tree(tree: SawTree) -> str:
    """Indented text dump, one node per line: origin, depth, status."""
    lines: list[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        status = "free" if node.spin is None else str(node.spin)
        lines.append(f"{'  ' * node.depth}{node.origin} depth={node.depth} {status}")
        stack.extend(reversed(node.children))
    return "\n".join(lines)
