"""Exact log Z for the benchmark's instances, independent of the walk tree.

Both routines read the instance file with the ``json`` module alone and
share no code with ``spinz``: a wrong walk tree, recursion or file parser in
the package cannot leak into the reference the estimates are checked
against.  Spin index 0 is minus and 1 is plus throughout.

- ``cycle_log_partition``: a log-domain 2x2 transfer matrix around the
  cycle 1-2-...-n-1, O(n).
- ``elimination_log_partition``: log-domain variable elimination in greedy
  minimum-degree order, exact on any graph; cost is 2**(largest scope), which
  stays small on grids with few rows and on sparse random regular graphs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "read_instance",
    "cycle_log_partition",
    "elimination_log_partition",
    "min_degree_order",
]


@dataclass(frozen=True)
class Instance:
    """Fields and edge tables of one instance file, indexed by spin (0=-, 1=+).

    ``fields[v]`` is ``(h_minus, h_plus)`` for v in 1..n (index 0 unused);
    ``edges`` maps ``(u, v)`` with u < v to the 2x2 table ``t[s_u][s_v]``.
    """

    n: int
    fields: list
    edges: dict


def read_instance(path) -> Instance:
    """Parse a file written by ``spinz.save_system`` (full form only)."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    vertices = data["vertices"]
    n = len(vertices)
    fields: list = [None] * (n + 1)
    for entry in vertices:
        fields[entry["id"]] = (float(entry["h_minus"]), float(entry["h_plus"]))
    if any(f is None for f in fields[1:]):
        raise ValueError("vertex ids are not exactly 1..n")
    edges = {}
    for entry in data["edges"]:
        u, v, b = entry["u"], entry["v"], entry["beta"]
        table = ((b["mm"], b["mp"]), (b["pm"], b["pp"]))
        if u > v:
            u, v = v, u
            table = tuple(zip(*table))
        edges[(u, v)] = table
    return Instance(n, fields, edges)


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def cycle_log_partition(inst: Instance) -> float:
    """log Z of a cycle with edges (i, i+1) and (1, n), by transfer matrix.

    For each spin of vertex 1, carry the log-weights of the two spins of the
    current vertex along the path 1..n, then close the cycle with edge (1, n).
    """
    n = inst.n
    expected = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    if n < 3 or set(inst.edges) != expected:
        raise ValueError("instance is not the cycle 1-2-...-n-1")
    h = inst.fields
    total = -math.inf
    for s1 in (0, 1):
        row = [-math.inf, -math.inf]
        row[s1] = h[1][s1]
        for k in range(2, n + 1):
            t = inst.edges[(k - 1, k)]
            row = [
                _logaddexp(row[0] + t[0][s], row[1] + t[1][s]) + h[k][s]
                for s in (0, 1)
            ]
        close = inst.edges[(1, n)][s1]
        total = _logaddexp(total, _logaddexp(row[0] + close[0], row[1] + close[1]))
    return total


def min_degree_order(n: int, edges) -> tuple[list[int], int]:
    """Greedy minimum-degree elimination order (ties: smallest label) and
    the largest factor scope it creates, counting the eliminated vertex."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = []
    widest = 1 if n else 0
    while adj:
        x = min(adj, key=lambda v: (len(adj[v]), v))
        nbrs = adj.pop(x)
        widest = max(widest, len(nbrs) + 1)
        for u in nbrs:
            adj[u].discard(x)
            adj[u] |= nbrs - {u}
        order.append(x)
    return order, widest


def elimination_log_partition(inst: Instance) -> float:
    """log Z by summing out vertices in minimum-degree order.

    A factor is ``(scope, table)`` with ``scope`` a sorted tuple of vertices
    and one axis of length 2 per scope vertex in that order, so any factor
    broadcasts onto a sorted union scope by reshaping alone.
    """
    factors = [((v,), np.array(inst.fields[v])) for v in range(1, inst.n + 1)]
    factors += [(uv, np.array(t, dtype=float)) for uv, t in inst.edges.items()]
    order, _ = min_degree_order(inst.n, inst.edges)
    log_z = 0.0
    for x in order:
        touching = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        scope = tuple(sorted({v for s, _ in touching for v in s}))
        pos = {v: i for i, v in enumerate(scope)}
        combined = np.zeros((1,) * len(scope))
        for s, table in touching:
            shape = [1] * len(scope)
            for v in s:
                shape[pos[v]] = 2
            combined = combined + table.reshape(shape)
        reduced = np.logaddexp.reduce(combined, axis=pos[x])
        rest = scope[: pos[x]] + scope[pos[x] + 1 :]
        if rest:
            factors.append((rest, reduced))
        else:
            log_z += float(reduced)
    return log_z
