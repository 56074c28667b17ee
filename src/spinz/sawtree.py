"""Trees of self-avoiding walks with pinned boundary copies.

Walks start at a root vertex and extend to any neighbor except the one they
arrived from.  A step onto a vertex already on the walk closes a cycle and
terminates in a leaf pinned to + or -, decided by comparing the label sum of
the edge that closes the cycle with that of the edge by which the walk first
left the revisited vertex (larger sum closes to +).  Copies of conditioned
vertices terminate walks the same way, pinned to their assigned spin.  Free
nodes that the truncation stops form the frontier: their subtrees are not
constructed.  By default the truncation is the one the estimate walks: the
root's log-ratio error allowance split over the free branches (see
``marginal``), with the depth limit as a hard cap, so a branch may stop
above the limit; with ``uniform=True`` every branch stops exactly at the
depth limit.  ``build_saw_tree`` takes every one of these decisions from
``marginal.walk_log_ratio``: it assembles the tree from the nodes that
the walk records, so the walk is the one place that holds them.

The marginal of the root in this tree equals its marginal in the original
graph, which is what makes the truncated evaluation in ``marginal`` a
controlled approximation.  ``tree_log_ratio`` folds a built tree post-order
over the ``CompiledSystem`` its walk read, in O(tree) time, without the
walk's share stops and shortcuts, so it checks the walk's traversal and
fold order bit for bit; the oracle's identity checks run that walk on the
complete tree.  ``edge_factor_log`` is one edge factor of that recursion,
and ``conditional_marginal_estimate`` one truncated marginal under a
condition, evaluated over the tree that ``build_saw_tree`` builds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from . import _LAZY_ALL
from .core import EdgePotential, Spin, SpinSystem, _check_label, _count, _shown, checked_condition
from .marginal import CompiledSystem, _factor, _terms, compile_system, marginal_plus, walk_log_ratio
from .partition import root_allowance

# The package lists these names so it can export them without importing
# this module.
__all__ = list(_LAZY_ALL["sawtree"])


@dataclass(slots=True)
class SawNode:
    """One walk position, a copy of a graph vertex.

    ``spin`` is None while the node is free; pinned leaves carry their spin
    and never have children.  ``stopped`` marks a free leaf that the
    truncation stopped, which stands for its unexplored subtree (the
    frontier); a free node without it has all its children.  Children are
    ordered by ascending neighbor label, and their origins are distinct
    neighbors of this node's origin.
    Treat nodes as immutable once the tree is built.
    """

    origin: int
    depth: int
    spin: Spin | None
    children: list["SawNode"]
    stopped: bool = False


@dataclass(frozen=True)
class SawTree:
    """A built walk tree: root node (its ``origin`` is the root vertex),
    depth limit, the total number of nodes constructed (the work
    bookkeeping), the root's charge, what the truncation charged its
    branches in all (see ``marginal.walk_log_ratio``), and the
    ``CompiledSystem`` the walk read, outside repr and comparisons (None
    for a pinned root or depth 0)."""

    root: SawNode
    depth_limit: int
    node_count: int
    charge: float = 0.0
    compiled: CompiledSystem | None = field(default=None, repr=False, compare=False)


def edge_factor_log(potential: EdgePotential, child_log_ratio: float) -> float:
    """Log of the edge factor (a*R + b) / (c*R + d) for child ratio R.

    Here a, b, c, d exponentiate the table entries pp, pm, mp, mm read in
    orientation parent -> child, and R = exp(child_log_ratio).  The two
    pinned extremes reduce exactly: +inf gives pp - mp, -inf gives pm - mm.
    Output is finite for finite table entries, whatever the child value.
    """
    if math.isnan(child_log_ratio):
        raise ValueError("child log ratio must not be NaN")
    return _factor(potential.pp, potential.pm, potential.mp, potential.mm, child_log_ratio)


def build_saw_tree(
    system: SpinSystem,
    root: int,
    depth_limit: int,
    condition: Mapping[int, Spin] | None = None,
    *,
    uniform: bool = False,
) -> SawTree:
    """Build the walk tree from ``root``, truncated at ``depth_limit``.

    Conditioned vertices become pinned leaves wherever a walk reaches them;
    revisits close cycles into pinned leaves.  Free nodes that the
    truncation stops are frontier leaves (``stopped``); their subtrees are
    not constructed.  The tree is assembled from the record of the walk the
    estimate runs, ``marginal.walk_log_ratio`` over ``compile_system(system)``,
    and keeps that compiled system as ``compiled``; every node, every stop
    and the tree's ``charge``, what the root's branches were charged in all,
    are that walk's.  By default the walk splits ``partition.root_allowance``
    as ``marginal`` describes, which keeps the uniform tree where the share
    is 0.0, with ``depth_limit`` as a hard cap.  That is the tree whose log
    ratio ``partition.fptas_log_partition`` walks for ``root`` when
    ``condition`` is its report's ``pinned_before(root)``, at every depth
    below the a-priori one.  With ``uniform=True`` the walk offers no shares
    and every free node above ``depth_limit`` is expanded, and setting
    ``depth_limit`` to the vertex count then produces the complete tree,
    since no self-avoiding walk can visit more vertices than the graph has.

    Construction is iterative, so deep trees do not hit the interpreter
    recursion limit, and deterministic: children follow sorted neighbor
    order.
    """
    graph = system.graph
    _count(depth_limit, "depth_limit")
    _check_label(root, graph.n)
    pinned = checked_condition(graph.n, None, condition)
    root_spin = pinned.get(root)
    if root_spin is not None:
        return SawTree(SawNode(root, 0, root_spin, []), depth_limit, 1)
    root_node = SawNode(root, 0, None, [], stopped=depth_limit == 0)
    if depth_limit == 0:
        return SawTree(root_node, depth_limit, 1)
    compiled = compile_system(system)
    allowance = 0.0 if uniform else root_allowance(system, root, depth_limit, pinned, compiled)
    record: list[tuple[int, int, int | None]] = []
    _, _, charge = walk_log_ratio(
        compiled, compiled.stops(pinned), root, depth_limit, allowance, record
    )
    # The record lists the nodes in pre-order, so each node's parent is the
    # last node recorded one level up.
    path = [root_node]
    for depth, label, status in record:
        node = SawNode(label, depth, Spin(status) if status else None, [], status == 0)
        del path[depth:]
        path[-1].children.append(node)
        path.append(node)
    return SawTree(root_node, depth_limit, 1 + len(record), charge, compiled)


def tree_log_ratio(system: SpinSystem, tree: SawTree, frontier: float | None = None) -> float:
    """Evaluate the log ratio at the root of a walk tree built from ``system``.

    Args:
        system: the spin system the tree was built from.  It is not read:
            the tree carries the tables its walk read (``compiled``).  It is
            kept because callers, such as the benchmark's traced rebuild,
            pass it.
        tree: a walk tree from ``build_saw_tree`` whose root is free; one
            that carries no ``compiled`` tables, such as a hand-built one,
            is refused unless the truncation stopped its root.
        frontier: what the free leaves the truncation stopped (``stopped``)
            contribute.  The default None adds the lookahead frontier of
            ``marginal``: the middle of the leaf's edge factor over the log
            ratio interval that the leaf's own children's pinned factors
            bound, the compiled ``frontier[below]`` of the leaf's edge.  A
            tree from ``build_saw_tree`` is then off by at most its
            ``charge``, whether it is split or uniform; a uniform tree whose
            root has k free children, by at most
            ``2 * a * k * rate**(depth_limit - 1)`` too, with a and rate
            as in ``partition.truncation_depth``.  It needs a depth limit
            of at least 1.  A float is the log ratio
            those leaves take (-inf pins the unexplored region to minus).

    Evaluation is an explicit post-order sweep (no recursion), so tree depth
    is limited only by memory.  Trees are read-only here, and a single tree
    may be evaluated concurrently with different frontier values.
    """
    if frontier is not None and math.isnan(frontier):
        raise ValueError("frontier value must not be NaN")
    root = tree.root
    if root.spin is not None:
        raise ValueError("tree root is pinned; the root marginal is not free")
    if frontier is None and tree.depth_limit == 0:
        raise ValueError("a lookahead frontier needs a depth limit of at least 1")
    if root.stopped:  # depth 0: no walk ran, so the tree keeps no tables
        return frontier
    if tree.compiled is None:
        raise ValueError("the tree carries no compiled tables; build it with build_saw_tree")

    _, twice_field, rows, _, lookahead, _, _, _ = tree.compiled
    inf = math.inf
    values: dict[int, float | None] = {}

    stack: list[tuple] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            spin = node.spin
            if spin is not None:
                values[id(node)] = inf if spin > 0 else -inf
            elif not node.children:
                values[id(node)] = frontier if node.stopped else twice_field[node.origin]
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
        else:
            origin = node.origin
            total = twice_field[origin]
            entries = {w: (factors, below) for w, factors, below in rows[origin]}
            for child in node.children:
                factors, below = entries[child.origin]
                lam = values.pop(id(child))
                if lam is None:  # free leaf the truncation stopped, lookahead frontier
                    total += lookahead[below]
                else:
                    x, y = _terms(*factors[2:6], lam)
                    total += x
                    total -= y
            values[id(node)] = total

    return values[id(root)]


def conditional_marginal_estimate(
    system: SpinSystem,
    vertex: int,
    condition=None,
    depth: int = 1,
) -> float:
    """Estimated probability that ``vertex`` is + under ``condition``.

    Evaluates the default tree of ``build_saw_tree`` at ``depth`` (at least
    1), the root's allowance split over its free branches with ``depth``
    as the cap; the leaves the truncation stops add the lookahead frontier
    (see ``marginal``).  The result is exact whenever the tree has no
    frontier, and whenever every frontier leaf has no child.  A conditioned
    ``vertex`` is refused, since its tree's root is pinned.
    """
    _count(depth, "depth", 1)
    return marginal_plus(tree_log_ratio(system, build_saw_tree(system, vertex, depth, condition)))


def frontier_count(tree: SawTree, level: int) -> int:
    """Number of nodes at depth exactly ``level`` (0 <= level <= depth limit)."""
    if _count(level, "level") > tree.depth_limit:
        raise ValueError(f"level {_shown(level)} outside [0, {tree.depth_limit}]")
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
        if node.spin is not None:
            status = str(node.spin)
        else:
            status = "frontier" if node.stopped else "free"
        lines.append(f"{'  ' * node.depth}{node.origin} depth={node.depth} {status}")
        stack.extend(reversed(node.children))
    return "\n".join(lines)
