"""Log-domain evaluation of the root marginal over a walk tree.

Everything is carried as the log of the plus/minus probability ratio.  The
extended values +inf and -inf are first-class and encode copies pinned to +
and -; NaN is always a bug and is rejected at the boundaries.  A free node
combines its children through

    log_ratio = 2 * field + sum over children of sawtree.edge_factor_log(...)

A free leaf w sitting exactly at the depth limit stands for the unexplored
remainder of the graph.  Each edge factor is monotone in the child's log
ratio and lies between its two pinned values, so w's own log ratio lies in
``[lo, hi]``: twice w's field plus, per child c of w, the smaller
(respectively larger) of the pinned factors of the edge w -> c.  The parent
v adds ``_frontier_factor``, the middle of the factor of v -> w over that
interval.  The factor is a shifted Ising factor of w's log ratio, so it is
within half its range there, ``2 * atanh(tanh|J| * tanh((hi - lo) / 4))
<= 2 * atanh(tanh(J) * tanh((d - 1) * J))``, of the true factor whatever
the subtree holds, one contraction step tighter than the middle of the
factor's whole range.

Above the depth limit t, a hard cap, a tree splits an error allowance
over its free branches.  In units of 2a, the error of a frontier leaf, a
node hands its allowance A to its children in ascending order: with R
left (at first A) and r children not yet handled, a pinned or
cycle-closing child takes nothing, and a free child takes share = R / r.
At a share of 1 or more the child is a frontier leaf; otherwise it gets
share / tanh(J), J the largest coupling, which its edge factor shrinks
back to the share.  So a node is off by at most 2a * A.  With
rate**(t - 1) per free root child (``split_scales``), a full
(degree - 1)-ary tree is the uniform tree, and branches that end early
leave their shares to the others: the split tree prunes the uniform one.

``walk_log_ratio`` evaluates the walk tree over a ``CompiledSystem``
without building it: it folds each subtree's value into its parent the
moment the subtree closes, so it keeps O(depth) state and allocates no
nodes.  A free node whose children are all leaves, because it sits one
level above the depth limit or its allowance is at least its number of
children, is summed in place instead of entered; when none of those
leaves is pinned, the node's fold is a constant of the system
(``CompiledSystem.settled``) and the walk adds that.  Its reference is
``sawtree.tree_log_ratio``, which reads a built ``SawTree`` and performs
the same float operations in the same order, so the two agree bit for bit.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple
from collections.abc import Mapping

from .core import Record, Spin, SpinSystem, SystemScalars, external_field

__all__ = [
    "LogRatio",
    "CompiledSystem",
    "compile_system",
    "PINNED_PLUS",
    "split_scales",
    "walk_log_ratio",
    "marginal_plus",
]

LogRatio = float
"""Extended-real log of the plus/minus marginal ratio; +-inf encode pinned spins."""

_INF = math.inf


def _frontier_factor(pp: float, pm: float, mp: float, mm: float, lo: float, hi: float) -> float:
    """What a free leaf at the depth limit adds to its parent: the middle of
    the edge factor, table read parent -> leaf, over the leaf's log ratio
    interval ``[lo, hi]`` (see the module docstring)."""
    return 0.5 * (_factor(pp, pm, mp, mm, lo) + _factor(pp, pm, mp, mm, hi))


def _factor(pp: float, pm: float, mp: float, mm: float, lam: float) -> float:
    if lam == _INF:
        return pp - mp
    if lam == -_INF:
        return pm - mm
    return _logaddexp(pp + lam, pm) - _logaddexp(mp + lam, mm)


def _logaddexp(a: float, b: float) -> float:
    # Same branch form as the fold inlined in the walk below, so
    # edge_factor_log's terms equal its terms bit for bit.
    return (a + math.log1p(math.exp(b - a))) if a >= b else (b + math.log1p(math.exp(a - b)))


PINNED_PLUS = 0
"""Stop entry pinning a label to +: every label exceeds it.  ``n + 1``, which
no label exceeds, pins to -; see ``walk_log_ratio``."""


class CompiledSystem(
    Record, namedtuple("CompiledSystem", "n twice_field rows belows frontier settled")
):
    """A system flattened for ``walk_log_ratio``.

    ``twice_field[v]`` is ``2 * external_field`` of vertex v (index 0 unused).
    ``rows[v]`` holds one entry ``(w, factors, below)`` per neighbour w of v,
    in ascending w.  ``factors`` is the tuple ``(pinned_plus, pinned_minus,
    pp, pm, mp, mm)`` of the edge read in orientation v -> w: the factors of
    a child w pinned to + (pp - mp) and to - (pm - mm), and the table.
    Edges with the same table bits share one ``factors`` tuple.  ``below``
    numbers the directed edge v -> w.  ``belows[below]`` holds the entries
    of w's row other than the one back to v, that is, the children of w
    when the walk arrives from v; it is empty when w has no other
    neighbour.  ``frontier[below]`` is what w adds to v when it is a free
    leaf at the depth limit: ``_frontier_factor`` of the edge over w's log
    ratio interval, which those children's pinned factors bound.
    ``settled[below]`` is the pair ``(x, y)`` that v adds as ``+ x - y``
    when w is free one level above the depth limit and none of its children
    is pinned: with ``lam`` twice w's field plus ``frontier`` of each child
    in ascending order, x and y are the two log-sum-exp terms of the edge
    factor at ``lam``, or the pinned factor and 0.0 when ``lam`` is
    infinite.  Edges with the same table bits and the same bits of ``lam``
    share one pair, as they share ``frontier`` values.
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
    potentials = system.potentials
    twice_field = [0.0] * (n + 1)
    for v in graph.vertices():
        twice_field[v] = 2.0 * external_field(system.fields[v])
    # Values are shared by the bits they are computed from, so 0.0 and -0.0
    # stay apart; ``tables[below]`` holds the bits of the edge's table.
    shared: dict[bytes, tuple] = {}
    tables: list[bytes] = []
    pack_table = struct.Struct("4d").pack
    rows: list[tuple[tuple, ...]] = [()] * (n + 1)
    below = 0
    for v in graph.vertices():
        row = []
        for w in adjacency[v - 1]:
            if v < w:
                pp, pm, mp, mm = potentials[v, w]
            else:
                pp, mp, pm, mm = potentials[w, v]
            key = pack_table(pp, pm, mp, mm)
            factors = shared.get(key)
            if factors is None:
                factors = shared[key] = (pp - mp, pm - mm, pp, pm, mp, mm)
            tables.append(key)
            row.append((w, factors, below))
            below += 1
        rows[v] = tuple(row)
    # Same order as the numbering above.  The interval of w sums its
    # children in ascending order, as sawtree.tree_log_ratio does.
    belows = []
    frontier = []
    shared_frontier: dict[bytes, float] = {}
    pack_interval = struct.Struct("2d").pack
    for v in graph.vertices():
        for w, factors, below in rows[v]:
            children = []
            lo = hi = twice_field[w]
            for child in rows[w]:
                if child[0] != v:
                    children.append(child)
                    plus, minus = child[1][0], child[1][1]
                    if plus < minus:
                        lo += plus
                        hi += minus
                    else:
                        lo += minus
                        hi += plus
            key = tables[below] + pack_interval(lo, hi)
            value = shared_frontier.get(key)
            if value is None:
                value = shared_frontier[key] = _frontier_factor(*factors[2:], lo, hi)
            belows.append(tuple(children))
            frontier.append(value)
    # The log ratio of w with every child on the frontier sums those
    # children in ascending order, and its pair holds the two terms of the
    # walk's fold, kept apart so that v adds them in the walk's order.
    settled = []
    shared_settled: dict[bytes, tuple[float, float]] = {}
    pack_ratio = struct.Struct("d").pack
    for row in rows:
        for w, factors, below in row:
            lam = twice_field[w]
            for child in belows[below]:
                lam += frontier[child[2]]
            key = tables[below] + pack_ratio(lam)
            pair = shared_settled.get(key)
            if pair is None:
                if lam == _INF or lam == -_INF:
                    pair = (factors[0] if lam > 0 else factors[1], 0.0)
                else:
                    pair = (
                        _logaddexp(factors[2] + lam, factors[3]),
                        _logaddexp(factors[4] + lam, factors[5]),
                    )
                shared_settled[key] = pair
            settled.append(pair)
    return CompiledSystem(
        n, tuple(twice_field), tuple(rows), tuple(belows), tuple(frontier), tuple(settled)
    )


def split_scales(scalars: SystemScalars, depth_limit: int) -> tuple[float, float]:
    """The share per free root child, rate**(depth_limit - 1) with rate the
    contraction, and the stretch 1 / tanh(max_coupling): a root with k free
    children is then off by at most 2 * a * k * rate**(depth_limit - 1), as
    ``partition.truncation_depth`` assumes.  (0.0, 1.0), the uniform tree,
    at degree bound 2 or less, where the split gives the uniform tree
    anyway, and when the contraction is not in (0, 1)."""
    rate = scalars.contraction
    if scalars.degree_bound <= 2 or not 0.0 < rate < 1.0:
        return 0.0, 1.0
    # An exponent beyond the float range underflows the share to 0.0, as
    # the largest float exponent does, instead of raising OverflowError.
    exponent = min(depth_limit - 1, sys.float_info.max)
    return rate**exponent, 1.0 / math.tanh(scalars.max_coupling)


def walk_log_ratio(
    compiled: CompiledSystem, stops: list, root: int, depth_limit: int,
    allowance: float = 0.0, stretch: float = 1.0,
) -> tuple[float, int]:
    """Log ratio at ``root`` of its walk tree truncated at ``depth_limit``,
    and the number of nodes that tree has; the tree itself is never built.

    ``allowance`` is the root's, split as the module docstring says, and
    ``stretch`` is 1 / tanh(J); an allowance of 0.0 cuts every branch at
    ``depth_limit``.  The result equals ``sawtree.tree_log_ratio(system,
    build_saw_tree(system, root, depth_limit, condition))`` and that tree's
    ``node_count``, bit for bit, when ``stops`` comes from
    ``compiled.stops(condition)`` and the allowance is the ``split_scales``
    share times the free root children (0.0 for ``uniform=True``).

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
    frontier = compiled.frontier
    settled = compiled.settled
    inf = _INF
    log1p = math.log1p
    exp = math.exp
    # Free children of a frame at depth ``inner`` have all their children on
    # the frontier, so they are evaluated in place and no frame sits deeper,
    # except the root of a depth-1 walk: its free children are the frontier.
    # Above that a free child takes its share of the allowance ``left`` (r
    # is the iterator's length hint plus one), and is summed in place too
    # when its own allowance ``grow`` gives each of its children a share of 1.
    inner = depth_limit - 2

    row = compiled.rows[root]
    count = 1 + len(row)
    stops[root] = 0  # on the walk; rewritten on departure, before any read
    origin = root
    total = twice_field[root]
    children = iter(row)
    left = allowance
    depth = 0
    frames: list[tuple] = []
    while True:
        for child, factors, below in children:
            stop = stops[child]
            if stop is not None:
                total += factors[0] if origin > stop else factors[1]
                continue
            if depth > inner:
                total += frontier[below]
                continue
            if left:
                share = left / (children.__length_hint__() + 1)
                left -= share
                if share >= 1.0:
                    total += frontier[below]
                    continue
                grow = share * stretch
            else:
                grow = 0.0
            row = belows[below]
            if depth < inner and (not grow or grow < len(row)):
                stops[origin] = child
                stops[child] = 0
                frames.append((origin, children, total, factors, left))
                origin = child
                children = iter(row)
                total = twice_field[child]
                left = grow
                depth += 1
                count += len(row)
                break
            # The children of child are leaves, and none is child or
            # origin, so no stop needs writing.  With none pinned, the
            # fold below is settled[below].
            count += len(row)
            for grandchild in row:
                if stops[grandchild[0]] is not None:
                    break
            else:
                x, y = settled[below]
                total += x
                total -= y
                continue
            lam = twice_field[child]
            for grandchild, pinned, edge in row:
                stop = stops[grandchild]
                if stop is None:
                    lam += frontier[edge]
                else:
                    lam += pinned[0] if child > stop else pinned[1]
            if lam == inf:
                total += factors[0]
            elif lam == -inf:
                total += factors[1]
            else:
                a = factors[2] + lam
                b = factors[3]
                total += (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
                a = factors[4] + lam
                b = factors[5]
                total -= (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
        else:
            stops[origin] = None
            if not frames:
                return total, count
            lam = total
            origin, children, total, factors, left = frames.pop()
            depth -= 1
            # Mirrors sawtree.tree_log_ratio's fold, one subtree at a time.
            if lam == inf:
                total += factors[0]
            elif lam == -inf:
                total += factors[1]
            else:
                a = factors[2] + lam
                b = factors[3]
                total += (a + log1p(exp(b - a))) if a >= b else (b + log1p(exp(a - b)))
                a = factors[4] + lam
                b = factors[5]
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
