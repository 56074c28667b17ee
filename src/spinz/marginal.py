"""Log-domain evaluation of the root marginal over a walk tree.

Everything is carried as the log of the plus/minus probability ratio.  The
extended values +inf and -inf are first-class and encode copies pinned to +
and -; NaN is always a bug and is rejected at the boundaries.  A free node
combines its children through

    log_ratio = 2 * field + sum over children of edge_factor_log(...)

A free leaf sitting exactly at the depth limit stands for the unexplored
remainder of the graph.  Its parent adds the midpoint of that edge factor's
range, ``0.5 * ((pp - mp) + (pm - mm))``; the factor is monotone in the
child's log ratio, so the midpoint is within half the range of the true
factor whatever the subtree holds.

Two evaluators share that recursion.  ``tree_log_ratio`` reads a built
``SawTree``; it is the reference, used by the ``sawtree`` dump and the
oracle's identity checks, and it also takes a float frontier, the log ratio
of every such leaf (-inf pins them to minus), which the decay tests compare
against.  ``walk_log_ratio`` walks the same tree over a ``CompiledSystem``
without building it: it folds each subtree's value into its parent the
moment the subtree closes, so it keeps O(depth) state and allocates no
nodes.  With the midpoint frontier both perform the same float operations
in the same order, so they agree bit for bit.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from collections.abc import Mapping

from .core import EdgePotential, Record, Spin, SpinSystem, external_field

TYPE_CHECKING = False  # True to type checkers; the estimate path loads neither typing nor sawtree
if TYPE_CHECKING:
    from .sawtree import SawTree

__all__ = [
    "LogRatio",
    "edge_factor_log",
    "tree_log_ratio",
    "CompiledSystem",
    "compile_system",
    "PINNED_PLUS",
    "walk_log_ratio",
    "marginal_plus",
]

LogRatio = float
"""Extended-real log of the plus/minus marginal ratio; +-inf encode pinned spins."""

_INF = math.inf


def edge_factor_log(potential: EdgePotential, child_log_ratio: float) -> float:
    """Log of the edge factor (a*R + b) / (c*R + d) for child ratio R.

    Here a, b, c, d exponentiate the table entries pp, pm, mp, mm read in
    orientation parent -> child, and R = exp(child_log_ratio).  The two
    pinned extremes reduce exactly: +inf gives pp - mp, -inf gives pm - mm.
    Output is finite for finite table entries, whatever the child value.
    """
    if math.isnan(child_log_ratio):
        raise ValueError("child log ratio must not be NaN")
    pp, pm, mp, mm = potential.pp, potential.pm, potential.mp, potential.mm
    if child_log_ratio == _INF:
        return pp - mp
    if child_log_ratio == -_INF:
        return pm - mm
    return _logaddexp(pp + child_log_ratio, pm) - _logaddexp(mp + child_log_ratio, mm)


def _midpoint(pp: float, pm: float, mp: float, mm: float) -> float:
    """Middle of the edge factor's range, between its pinned values."""
    return 0.5 * ((pp - mp) + (pm - mm))


def _logaddexp(a: float, b: float) -> float:
    # Same branch form as the folds inlined in the evaluators below, so
    # edge_factor_log's terms equal theirs bit for bit.
    return (a + math.log1p(math.exp(b - a))) if a >= b else (b + math.log1p(math.exp(a - b)))


def tree_log_ratio(system: SpinSystem, tree: SawTree, frontier: float | None = None) -> float:
    """Evaluate the log ratio at the root of a walk tree built from ``system``.

    Args:
        system: the spin system the tree was built from.
        tree: a walk tree whose root is free.
        frontier: what free leaves at the depth limit contribute.  The
            default None adds the midpoint of each such leaf's edge factor
            range, so a truncated tree is off by at most half of
            ``decay_function(depth_limit, ...)``; it needs a depth limit of
            at least 1.  A float is the log ratio those leaves take (-inf
            pins the unexplored region to minus).

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
        raise ValueError("a midpoint frontier needs a depth limit of at least 1")

    n = system.graph.n
    twice_field = [0.0] * (n + 1)
    for v in system.graph.vertices():
        twice_field[v] = 2.0 * external_field(system.fields[v])
    # Entries oriented parent -> child for both orientations of every edge.
    tables: dict[tuple[int, int], tuple[float, float, float, float]] = {}
    for (u, v), pot in system.potentials.items():
        tables[(u, v)] = (pot.pp, pot.pm, pot.mp, pot.mm)
        tables[(v, u)] = (pot.pp, pot.mp, pot.pm, pot.mm)

    depth_limit = tree.depth_limit
    inf = _INF
    log1p = math.log1p
    exp = math.exp
    values: dict[int, float] = {}

    stack: list[tuple] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            spin = node.spin
            if spin is not None:
                values[id(node)] = inf if spin > 0 else -inf
            elif not node.children:
                values[id(node)] = frontier if node.depth == depth_limit else twice_field[node.origin]
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
        else:
            origin = node.origin
            total = twice_field[origin]
            for child in node.children:
                pp, pm, mp, mm = tables[(origin, child.origin)]
                lam = values.pop(id(child))
                # Mirrors edge_factor_log; inlined to keep per-node cost low
                # on trees with millions of nodes.
                if lam == inf:
                    total += pp - mp
                elif lam == -inf:
                    total += pm - mm
                elif lam is None:  # free leaf at the depth limit, midpoint frontier
                    total += _midpoint(pp, pm, mp, mm)
                else:
                    a = pp + lam
                    b = pm
                    total += (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
                    a = mp + lam
                    b = mm
                    total -= (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
            values[id(node)] = total

    return values[id(root)]


PINNED_PLUS = 0
"""Stop entry pinning a label to +: every label exceeds it.  ``n + 1``, which
no label exceeds, pins to -; see ``walk_log_ratio``."""


class CompiledSystem(Record, namedtuple("CompiledSystem", "n twice_field rows belows")):
    """A system flattened for ``walk_log_ratio``.

    ``twice_field[v]`` is ``2 * external_field`` of vertex v (index 0 unused).
    ``rows[v]`` holds one entry ``(w, factors, below)`` per neighbour w of v,
    in ascending w.  ``factors`` is the tuple ``(pinned_plus, pinned_minus,
    midpoint, pp, pm, mp, mm)`` of the edge read in orientation v -> w: the
    factors of a child w pinned to + (pp - mp) and to - (pm - mm), the middle
    of that range, which a free child at the depth limit adds, and the
    table.  Edges with the same table bits share one ``factors`` tuple.
    ``belows[below]`` holds the entries of w's row other than the one back
    to v, that is, the children of w when the walk arrives from v; it is
    empty when w has no other neighbour.
    """

    __slots__ = ()

    def stops(self, condition: Mapping[int, Spin] | None = None) -> list[int | None]:
        """A fresh per-label stop array for ``walk_log_ratio`` with the spins
        of ``condition`` pinned and every other label free."""
        stops: list[int | None] = [None] * (self.n + 1)
        for vertex, spin in (condition or {}).items():
            stops[vertex] = PINNED_PLUS if spin > 0 else self.n + 1
        return stops


def compile_system(system: SpinSystem) -> CompiledSystem:
    """Flatten ``system`` into the tables ``walk_log_ratio`` reads."""
    graph = system.graph
    n = graph.n
    adjacency = graph.adjacency
    twice_field = [0.0] * (n + 1)
    for v in graph.vertices():
        twice_field[v] = 2.0 * external_field(system.fields[v])
    shared: dict[bytes, tuple] = {}  # keyed by bits: 0.0 and -0.0 stay apart
    rows: list[tuple[tuple, ...]] = [()] * (n + 1)
    below = 0
    for v in graph.vertices():
        row = []
        for w in adjacency[v - 1]:
            if v < w:
                pot = system.potentials[(v, w)]
                pp, pm, mp, mm = pot.pp, pot.pm, pot.mp, pot.mm
            else:
                pot = system.potentials[(w, v)]
                pp, pm, mp, mm = pot.pp, pot.mp, pot.pm, pot.mm
            key = struct.pack("4d", pp, pm, mp, mm)
            factors = shared.get(key)
            if factors is None:
                factors = shared[key] = (pp - mp, pm - mm, _midpoint(pp, pm, mp, mm), pp, pm, mp, mm)
            row.append((w, factors, below))
            below += 1
        rows[v] = tuple(row)
    # Same order as the numbering above.
    belows = tuple(
        tuple(e for e in rows[w] if e[0] != v) for v in graph.vertices() for w, _, _ in rows[v]
    )
    return CompiledSystem(n, tuple(twice_field), tuple(rows), belows)


def walk_log_ratio(
    compiled: CompiledSystem, stops: list, root: int, depth_limit: int
) -> tuple[float, int]:
    """Log ratio at ``root`` of its walk tree truncated at ``depth_limit``,
    and the number of nodes that tree has; the tree itself is never built.

    The result equals ``tree_log_ratio(system, build_saw_tree(system, root,
    depth_limit, condition))`` and that tree's ``node_count``, bit for bit,
    when ``stops`` comes from ``compiled.stops(condition)``.

    ``stops[w]`` is None while a walk may enter w.  Otherwise a copy of w
    ends the walk as a pinned leaf: + if the label of the vertex it is
    reached from exceeds ``stops[w]``, - if not.  Conditioned labels hold
    ``PINNED_PLUS`` or ``n + 1``.  A label on the current walk holds the
    neighbour through which the walk first left it, which is the walk
    tree's cycle-closing rule (``edge_greater``).  The walk restores every
    entry it changes, so one array serves a whole sweep, but not two walks
    at once; ``root`` must be free and ``depth_limit`` at least 1.
    """
    belows = compiled.belows
    twice_field = compiled.twice_field
    inf = _INF
    log1p = math.log1p
    exp = math.exp
    last = depth_limit - 1  # frames at this depth have their free children on the frontier

    row = compiled.rows[root]
    count = 1 + len(row)
    stops[root] = 0  # on the walk; rewritten on departure, before any read
    origin = root
    total = twice_field[root]
    children = iter(row)
    depth = 0
    frames: list[tuple] = []
    while True:
        for child, factors, below in children:
            stop = stops[child]
            if stop is not None:
                total += factors[0] if origin > stop else factors[1]
            elif depth == last:
                total += factors[2]
            else:
                stops[origin] = child
                stops[child] = 0
                frames.append((origin, children, total, factors))
                row = belows[below]
                origin = child
                children = iter(row)
                total = twice_field[child]
                depth += 1
                count += len(row)
                break
        else:
            stops[origin] = None
            if not frames:
                return total, count
            lam = total
            origin, children, total, factors = frames.pop()
            depth -= 1
            # Mirrors tree_log_ratio's fold, one subtree at a time.
            if lam == inf:
                total += factors[0]
            elif lam == -inf:
                total += factors[1]
            else:
                a = factors[3] + lam
                b = factors[4]
                total += (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
                a = factors[5] + lam
                b = factors[6]
                total -= (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))


def marginal_plus(log_ratio: float) -> float:
    """Probability of + from a log ratio: 1 / (1 + exp(-log_ratio)).

    Stable in both tails; maps +inf to 1.0 and -inf to 0.0.
    """
    if math.isnan(log_ratio):
        raise ValueError("log ratio must not be NaN")
    if log_ratio >= 0:
        return 1.0 / (1.0 + math.exp(-log_ratio))
    r = math.exp(log_ratio)
    return r / (1.0 + r)
