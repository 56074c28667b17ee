"""Log-domain evaluation of the root marginal over a walk tree.

Everything is carried as the log of the plus/minus probability ratio.  The
extended values +inf and -inf are first-class and encode copies pinned to +
and -; NaN is always a bug and is rejected at the boundaries.  A free node
combines its children through

    log_ratio = 2 * field + sum over children of sawtree.edge_factor_log(...)

A free leaf w that the truncation stops (the frontier) stands for the
unexplored remainder of the graph.  Each edge factor is monotone in the
child's log ratio and lies between its two pinned values, so w's own log
ratio lies in ``[lo, hi]``: twice w's field plus, per child c of w, the
smaller (respectively larger) of the pinned factors of the edge w -> c.
The parent v adds the middle of the factor of v -> w over that interval,
which is within e_vw, half the factor's range there, of the true factor
whatever the subtree holds.  The factor is a shifted Ising factor of w's
log ratio, so e_vw <= 2 * atanh(tanh|J_vw| * tanh((hi - lo) / 4)) <= 2a,
with 2a = 2 * atanh(tanh(J) * tanh((d - 1) * J)) for the largest J.

Above the depth limit t, a hard cap, a tree splits an error allowance
over its free branches, in log-ratio units, and charges each branch only
the error it leaves.  A node offers its allowance to its children in
ascending order: with R left and r children not yet handled, a pinned or
cycle-closing child takes nothing, and a free child w over the edge
v -> w is offered share = R / r, or nothing when R is not positive.  A
share of e_vw or more stops w as a frontier leaf, charged e_vw, unless w
has no children: that w is a leaf in any tree and adds its exact factor,
as in the uniform tree, at no charge.  A share of ``spent`` or more,
tanh|J_vw| times the summed errors of w's children, sums w in place with
its children on the frontier, charged tanh|J_vw| times the errors of the
free ones.  Otherwise w is entered with share / tanh|J_vw|, which its
tanh|J_vw|-Lipschitz edge factor shrinks back to the share, and charged
the share, less rest * tanh|J_vw| handed back when its branch closes
with rest unspent; v's later children split that, and what v leaves goes
on up.  An edge with J_vw = 0 has e_vw = 0, so any share stops it.  Each
branch is off by at most its charge and no charge exceeds its share, so
a node is off by at most what its branches were charged, its charge, and
so by at most its allowance, and each share is at least the equal split
R / r of the node's allowance.  A zero allowance keeps the uniform tree,
charged by the same rules: R falls below 0.0, and the node's charge, its
allowance less R, still bounds its error.  How deep the cap sits and how
much each root may spend is the policy of ``partition``.

``walk_log_ratio`` evaluates the walk tree over a ``CompiledSystem``
without building it: it folds each subtree's value into its parent the
moment the subtree closes, so it keeps O(depth) state and allocates no
nodes.  A free node whose children are all leaves, because it sits one
level above the depth limit or its share reaches its edge's ``spent``, is
summed in place instead of entered; when none of those leaves is pinned,
the node's fold is a constant of the system (``CompiledSystem.settled``)
and the walk adds that, charged ``spent``.  It is the one routine that
takes the truncation's decisions: ``sawtree.build_saw_tree`` assembles
its ``SawTree`` from the nodes the walk records and keeps the
``CompiledSystem`` the walk read, the one compiled form of the system.
``sawtree.tree_log_ratio`` evaluates a built tree over those tables: it
folds the assembled tree post-order, without the walk's share stops and
without its ``settled`` and ``spent`` shortcuts, with the same float
operations in the same order, so the two agree bit for bit.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from collections.abc import Mapping

from .core import Record, Spin, SpinSystem, external_field, interaction_strength

__all__ = [
    "CompiledSystem",
    "compile_system",
    "PINNED_PLUS",
    "walk_log_ratio",
    "marginal_plus",
]

_INF = math.inf


def _frontier(pp: float, pm: float, mp: float, mm: float, lo: float, hi: float) -> tuple[float, float]:
    """The middle and the half-range of the edge factor, table read parent
    -> leaf, over the leaf's log ratio interval ``[lo, hi]``: what a
    frontier leaf adds to its parent, and how far that can be off."""
    low = _factor(pp, pm, mp, mm, lo)
    high = _factor(pp, pm, mp, mm, hi)
    return 0.5 * (low + high), abs(high - low) / 2.0


def _factor(pp: float, pm: float, mp: float, mm: float, lam: float) -> float:
    x, y = _terms(pp, pm, mp, mm, lam)
    return x - y


def _terms(pp: float, pm: float, mp: float, mm: float, lam: float) -> tuple[float, float]:
    """The edge factor at the child's log ratio ``lam`` as the pair
    ``(x, y)`` that a parent adds as ``+ x - y``: the pinned factor and 0.0
    at +-inf, otherwise the two log-sum-exp terms of the factor."""
    if lam == _INF:
        return pp - mp, 0.0
    if lam == -_INF:
        return pm - mm, 0.0
    return _logaddexp(pp + lam, pm), _logaddexp(mp + lam, mm)


def _logaddexp(a: float, b: float) -> float:
    # The walk's one fold computes _terms' terms inline in this branch
    # form, so the walk, compile_system and sawtree agree bit for bit.
    return (a + math.log1p(math.exp(b - a))) if a >= b else (b + math.log1p(math.exp(a - b)))


PINNED_PLUS = 0
"""Stop entry pinning a label to +: every label exceeds it.  ``n + 1``, which
no label exceeds, pins to -; see ``walk_log_ratio``."""


class CompiledSystem(
    Record,
    namedtuple("CompiledSystem", "n twice_field rows belows frontier errors spent settled"),
):
    """A system flattened for ``walk_log_ratio``.

    ``twice_field[v]`` is ``2 * external_field`` of vertex v (index 0 unused).
    ``rows[v]`` holds one entry ``(w, factors, below)`` per neighbour w of v,
    in ascending w.  ``factors`` is the tuple ``(pinned_plus, pinned_minus,
    pp, pm, mp, mm, stretch)`` of the edge read in orientation v -> w: the
    factors of a child w pinned to + (pp - mp) and to - (pm - mm), the
    table, and 1 / tanh|J| (inf at J = 0), J = ``interaction_strength``.
    Edges with the same table bits share one ``factors`` tuple.  ``below``
    numbers the directed edge v -> w.  ``belows[below]`` holds the entries
    of w's row other than the one back to v, the children of w when the
    walk arrives from v.  ``frontier[below]`` and ``errors[below]`` are
    the middle and the half-range e_vw (0.0 at J = 0) of the edge factor
    over w's log ratio interval, which those children's pinned factors
    bound.  ``spent[below]`` is the sum of their errors, in ascending order
    with plain ``+=``, over the stretch of v -> w (0.0 at J = 0): how far w
    summed in place, every child free and on the frontier, can put v off,
    and so the share from which the split sums w in place.
    ``settled[below]`` is the pair ``(x, y)`` that v adds as ``+ x - y``
    when every free child of w stops and none is pinned: with ``lam``
    twice w's field plus ``frontier`` of each child in ascending order, x
    and y are the two log-sum-exp terms of the edge factor at ``lam``, or
    the pinned factor and 0.0 when ``lam`` is infinite.  Edges with the
    same table bits share ``frontier``, ``errors`` and ``settled`` values
    computed from the same bits.
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
            stored = potentials[v, w] if v < w else potentials[w, v]
            pp, pm, mp, mm = stored
            if w < v:
                pm, mp = mp, pm
            key = pack_table(pp, pm, mp, mm)
            factors = shared.get(key)
            if factors is None:
                slope = math.tanh(abs(interaction_strength(stored)))
                stretch = 1.0 / slope if slope else _INF
                factors = shared[key] = (pp - mp, pm - mm, pp, pm, mp, mm, stretch)
            tables.append(key)
            row.append((w, factors, below))
            below += 1
        rows[v] = tuple(row)
    # Same order as the numbering above.  The interval of w sums its
    # children in ascending order.
    belows = []
    bounds = []
    shared_frontier: dict[bytes, tuple[float, float]] = {}
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
            bound = shared_frontier.get(key)
            if bound is None:
                bound = _frontier(*factors[2:6], lo, hi)
                if factors[6] == _INF:
                    bound = (bound[0], 0.0)
                shared_frontier[key] = bound
            belows.append(tuple(children))
            bounds.append(bound)
    frontier, errors = zip(*bounds) if bounds else ((), ())
    # The log ratio of w with every child on the frontier sums those
    # children in ascending order, and its pair holds the two terms of the
    # walk's fold, kept apart so that v adds them in the walk's order.  The
    # children's errors are summed in that order too, with plain +=, as the
    # walk sums them where a child is pinned.
    spent = []
    settled = []
    shared_settled: dict[bytes, tuple[float, float]] = {}
    pack_ratio = struct.Struct("d").pack
    for row in rows:
        for w, factors, below in row:
            lam = twice_field[w]
            charge = 0.0
            for child in belows[below]:
                edge = child[2]
                lam += frontier[edge]
                charge += errors[edge]
            spent.append(charge / factors[6])
            key = tables[below] + pack_ratio(lam)
            pair = shared_settled.get(key)
            if pair is None:
                pair = shared_settled[key] = _terms(*factors[2:6], lam)
            settled.append(pair)
    return CompiledSystem(
        n, tuple(twice_field), tuple(rows), tuple(belows), frontier, errors,
        tuple(spent), tuple(settled),
    )


def walk_log_ratio(
    compiled: CompiledSystem,
    stops: list,
    root: int,
    depth_limit: int,
    allowance: float = 0.0,
    record: list | None = None,
) -> tuple[float, int, float]:
    """Log ratio at ``root`` of its walk tree truncated at ``depth_limit``,
    the number of nodes that tree has, and the root's charge; the tree
    itself is never built.

    ``allowance`` is the root's, in log-ratio units, spent as the module
    docstring says, in plain ``-=``, ``+=`` and ``/`` so that every Python
    version gets the same bits; an allowance of 0.0 cuts every branch at
    ``depth_limit``.  The charge, ``allowance`` less what the root has
    left, bounds the log ratio's error.

    ``stops[w]`` is None while a walk may enter w.  Otherwise a copy of w
    ends the walk as a pinned leaf: + if the label of the vertex it is
    reached from exceeds ``stops[w]``, - if not.  Conditioned labels hold
    ``PINNED_PLUS`` or ``n + 1``.  A label on the current walk holds the
    neighbour through which the walk first left it, which is the walk
    tree's cycle-closing rule: a cycle closes to + when the closing edge's
    label sum exceeds that of the edge by which the walk first left the
    revisited vertex.  The walk restores every entry it changes, so one
    array serves a whole sweep, but not two walks at once; ``root`` must be
    free and ``depth_limit`` at least 1.

    ``record``, when a list, receives one ``(depth, label, status)`` per
    node below the root, in pre-order with children in ascending label, so
    it holds ``count - 1`` entries: status +1 or -1 is a pinned leaf's
    spin, 0 a free leaf the walk stopped and adds the lookahead frontier
    of (at the cap, by its share, or as a child of a node summed in
    place), and None a free node whose children, if it has any, follow.
    ``sawtree.build_saw_tree`` assembles its tree from this record, and
    ``sawtree.tree_log_ratio`` over that tree gives the walk's log ratio
    bit for bit.  The record only observes: the three results are the same
    bits with or without it.
    """
    _, twice_field, rows, belows, frontier, errors, spent, settled = compiled
    inf = _INF
    log1p = math.log1p
    exp = math.exp
    # Free children of a frame at depth ``inner`` have all their children on
    # the frontier, so they are evaluated in place and no frame sits deeper,
    # except the root of a depth-1 walk: its free children are the frontier,
    # each charged its error.
    # Above that a free child is offered its share of the allowance ``left``
    # (r is the iterator's length hint plus one), or 0.0 when ``left`` is
    # not positive, as in a uniform walk.  A frontier stop is charged its
    # error.  Any other free child is charged the share and hands back what
    # it leaves unspent, a negative rest where its own charges exceed the
    # share: at once when it is summed in place (its share reaches
    # ``spent[below]``, or the cap forces it), at its close when it is
    # entered with the allowance ``grow``.  A child
    # without children (``row`` empty) is never stopped by its share; its
    # ``spent`` is 0.0, so it is summed in place, exactly, as in the
    # uniform walk.
    inner = depth_limit - 2

    row = rows[root]
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
                if record is not None:
                    record.append((depth + 1, child, 1 if origin > stop else -1))
                continue
            if depth > inner:
                left -= errors[below]
                total += frontier[below]
                if record is not None:
                    record.append((depth + 1, child, 0))
                continue
            row = belows[below]
            if left > 0.0:
                share = left / (children.__length_hint__() + 1)
                if share >= errors[below] and row:
                    left -= errors[below]
                    total += frontier[below]
                    if record is not None:
                        record.append((depth + 1, child, 0))
                    continue
                left -= share
                grow = share * factors[6]
            else:
                share = grow = 0.0
            if record is not None:
                record.append((depth + 1, child, None))
            if depth < inner and (not grow or share < spent[below]):
                stops[origin] = child
                stops[child] = 0
                frames.append((origin, children, total, factors, left))
                origin = child
                children = iter(row)
                total = twice_field[child]
                left = grow
                depth += 1
                count += len(row)
                lam = None
                break
            # The children of child are leaves, and none is child or
            # origin, so no stop needs writing.  With none pinned, the
            # fold below is settled[below], and its charge spent[below].
            count += len(row)
            if record is not None:
                for grandchild, _, _ in row:
                    stop = stops[grandchild]
                    status = 0 if stop is None else 1 if child > stop else -1
                    record.append((depth + 2, grandchild, status))
            for grandchild in row:
                if stops[grandchild[0]] is not None:
                    break
            else:
                x, y = settled[below]
                total += x
                total -= y
                left += share - spent[below]
                continue
            lam = twice_field[child]
            charge = 0.0
            for grandchild, pinned, edge in row:
                stop = stops[grandchild]
                if stop is None:
                    lam += frontier[edge]
                    charge += errors[edge]
                else:
                    lam += pinned[0] if child > stop else pinned[1]
            left += share - charge / factors[6]
            break  # to the fold; the for then resumes ``children``
        else:
            stops[origin] = None
            if not frames:
                return total, count, allowance - left
            lam = total
            rest = left
            origin, children, total, factors, left = frames.pop()
            left += rest / factors[6]
            depth -= 1
        # The one fold: a closed subtree's log ratio, or that of a child
        # summed in place around pinned grandchildren, enters total through
        # _terms' terms, computed inline because a call here made rr3-deep's
        # sweeps up to 1.30x slower.
        if lam is not None:
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
