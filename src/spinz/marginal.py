"""Log-domain evaluation of the root marginal over a walk tree.

Everything is carried as the log of the plus/minus probability ratio.  The
extended values +inf and -inf are first-class and encode copies pinned to +
and -; NaN is always a bug and is rejected at the boundaries.  A free node
combines its children through

    log_ratio = 2 * field + sum over children of edge_factor_log(...)

and free leaves sitting exactly at the depth limit take the caller-supplied
frontier value instead (pinning the unexplored remainder of the graph).

Two evaluators share that recursion.  ``tree_log_ratio`` reads a built
``SawTree``; it is the reference, used by the ``sawtree`` dump and the
oracle's identity checks.  ``walk_log_ratio`` walks the same tree over a
``CompiledSystem`` without building it: it folds each subtree's value into
its parent the moment the subtree closes, so it keeps O(depth) state and
allocates no nodes.  Both perform the same float operations in the same
order, so they agree bit for bit.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass

from .core import EdgePotential, Spin, SpinSystem, external_field
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
    gain, loss = _edge_terms(
        potential.pp, potential.pm, potential.mp, potential.mm, child_log_ratio
    )
    return gain - loss


def _edge_terms(pp: float, pm: float, mp: float, mm: float, lam: float) -> tuple[float, float]:
    """The edge factor as the pair (gain, loss) a parent's running total
    takes as ``total += gain`` then ``total -= loss``.

    Pinned children (lam = +-inf) reduce to (pp - mp, 0.0) and (pm - mm, 0.0);
    subtracting 0.0 leaves any float unchanged, so this reproduces the two
    branches of ``tree_log_ratio`` exactly.
    """
    if lam == _INF:
        return pp - mp, 0.0
    if lam == -_INF:
        return pm - mm, 0.0
    return _logaddexp(pp + lam, pm), _logaddexp(mp + lam, mm)


def _logaddexp(a: float, b: float) -> float:
    # Same branch form as the inlined copies in the evaluators below, so
    # precomputed terms equal the ones computed during a walk bit for bit.
    return (a + math.log1p(math.exp(b - a))) if a >= b else (b + math.log1p(math.exp(a - b)))


def tree_log_ratio(system: SpinSystem, tree: SawTree, frontier: float = -_INF) -> float:
    """Evaluate the log ratio at the root of a walk tree built from ``system``.

    Args:
        system: the spin system the tree was built from.
        tree: a walk tree whose root is free.
        frontier: log ratio assigned to free leaves at the depth limit;
            the default -inf pins the unexplored region to minus.

    Evaluation is an explicit post-order sweep (no recursion), so tree depth
    is limited only by memory.  Trees are read-only here, and a single tree
    may be evaluated concurrently with different frontier values.
    """
    if math.isnan(frontier):
        raise ValueError("frontier value must not be NaN")
    root = tree.root
    if root.spin is not None:
        raise ValueError("tree root is pinned; the root marginal is not free")

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


@dataclass(frozen=True)
class CompiledSystem:
    """A system flattened for ``walk_log_ratio``, built once per frontier.

    ``twice_field[v]`` is ``2 * external_field`` of vertex v (index 0 unused).
    ``rows[v]`` holds one entry ``(w, factors, below)`` per neighbour w of v,
    in ascending w.  ``factors`` is the tuple ``(pinned_plus, pinned_minus,
    frontier_gain, frontier_loss, leaf_gain, leaf_loss, pp, pm, mp, mm)``
    of the edge read in orientation v -> w: the factors of a child w pinned
    to + (pp - mp) and to - (pm - mm), the terms of a child at the depth
    limit, the terms of a childless expanded w, and the table.  Edges with
    the same table bits share one ``factors`` tuple.  ``belows[below]``
    holds the entries of w's row other than the one back to v, that is, the
    children of w when the walk arrives from v; ``below`` is None, and only
    then are the leaf terms set, when w has no other neighbour.
    """

    n: int
    twice_field: tuple[float, ...]
    rows: tuple[tuple[tuple, ...], ...]
    belows: tuple[tuple[tuple, ...], ...]

    def stops(self, condition: Mapping[int, Spin] | None = None) -> list[int | None]:
        """A fresh per-label stop array for ``walk_log_ratio`` with the spins
        of ``condition`` pinned and every other label free."""
        stops: list[int | None] = [None] * (self.n + 1)
        for vertex, spin in (condition or {}).items():
            stops[vertex] = PINNED_PLUS if spin > 0 else self.n + 1
        return stops


def compile_system(system: SpinSystem, frontier: float = -_INF) -> CompiledSystem:
    """Flatten ``system`` into the tables ``walk_log_ratio`` reads, with the
    factor of a frontier leaf precomputed for ``frontier``."""
    if math.isnan(frontier):
        raise ValueError("frontier value must not be NaN")
    graph = system.graph
    n = graph.n
    adjacency = graph.adjacency
    twice_field = [0.0] * (n + 1)
    for v in graph.vertices():
        twice_field[v] = 2.0 * external_field(system.fields[v])
    shared: dict[bytes, tuple] = {}  # keyed by bits: 0.0 and -0.0 stay apart
    rows: list[tuple[tuple, ...]] = [()] * (n + 1)
    arrivals = 0  # entries with a below so far
    for v in graph.vertices():
        row = []
        for w in adjacency[v - 1]:
            if v < w:
                pot = system.potentials[(v, w)]
                pp, pm, mp, mm = pot.pp, pot.pm, pot.mp, pot.mm
            else:
                pot = system.potentials[(w, v)]
                pp, pm, mp, mm = pot.pp, pot.mp, pot.pm, pot.mm
            childless = len(adjacency[w - 1]) == 1
            if childless:
                key = struct.pack("5d", pp, pm, mp, mm, twice_field[w])
            else:
                key = struct.pack("4d", pp, pm, mp, mm)
            factors = shared.get(key)
            if factors is None:
                leaf = _edge_terms(pp, pm, mp, mm, twice_field[w]) if childless else (None, None)
                factors = shared[key] = (
                    pp - mp, pm - mm, *_edge_terms(pp, pm, mp, mm, frontier), *leaf,
                    pp, pm, mp, mm,
                )
            if childless:
                row.append((w, factors, None))
            else:
                row.append((w, factors, arrivals))
                arrivals += 1
        rows[v] = tuple(row)
    # Same order as the numbering above.
    belows = tuple(
        tuple(e for e in rows[w] if e[0] != v)
        for v in graph.vertices()
        for w, _, below in rows[v]
        if below is not None
    )
    return CompiledSystem(n, tuple(twice_field), tuple(rows), belows)


def walk_log_ratio(
    compiled: CompiledSystem, stops: list, root: int, depth_limit: int
) -> tuple[float, int]:
    """Log ratio at ``root`` of its walk tree truncated at ``depth_limit``,
    and the number of nodes that tree has; the tree itself is never built.

    The result equals ``tree_log_ratio(system, build_saw_tree(system, root,
    depth_limit, condition), frontier)`` and that tree's ``node_count``, bit
    for bit, when ``stops`` comes from ``compiled.stops(condition)``.

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
                total -= factors[3]
            elif below is not None:
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
            else:  # expanded, but its only neighbour is the parent
                total += factors[4]
                total -= factors[5]
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
                a = factors[6] + lam
                b = factors[7]
                total += (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
                a = factors[8] + lam
                b = factors[9]
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
