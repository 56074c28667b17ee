"""Shared test utilities.

reference_log_partition is a deliberately plain itertools enumeration kept
independent of the package's vectorized oracle, so the two can cross-check
each other.  ising_strip_log_z and strip_log_z are exact where enumeration
cannot reach: long cycles and grid strips of a few rows, the first for one
coupling and field, the second for any tables.  equal_split_depths
counts the walk tree of the equal allowance split, against which the
estimator's spent split is checked.  The instance builders centralize the
seeded recipes used by several test modules; the benchmark's are read from
``perfbench/run.py``, whose directory this module puts on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from spinz import (
    EdgePotential,
    GenSpec,
    Graph,
    Spin,
    SpinSystem,
    VertexField,
    build_family_graph,
    critical_inverse_temperature,
    generate,
    ising_potential,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (the benchmark's workloads)

PETERSEN_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),
]


def petersen_graph() -> Graph:
    return Graph.from_edges(10, PETERSEN_EDGES)


def _logsumexp(values) -> float:
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def reference_log_partition(system: SpinSystem, condition=None) -> float:
    """Exact log Z by direct product-space enumeration, pure Python."""
    cond = dict(condition or {})
    free = [v for v in system.graph.vertices() if v not in cond]
    log_weights = []
    for draw in itertools.product((Spin.MINUS, Spin.PLUS), repeat=len(free)):
        sigma = dict(cond)
        sigma.update(zip(free, draw))
        w = 0.0
        for (u, v), pot in system.potentials.items():
            w += pot.value(sigma[u], sigma[v])
        for v, f in system.fields.items():
            w += f.value(sigma[v])
        log_weights.append(w)
    return _logsumexp(log_weights)


def ising_strip_log_z(rows: int, cols: int, coupling: float, field: float, periodic: bool = False) -> float:
    """Exact log Z of the Ising model ``coupling * s * r`` per edge and
    ``field * s`` per vertex on the rows x cols grid, by a transfer matrix
    over the 2**rows spin states of one column, in the log domain.

    ``periodic`` joins the last column to the first, so rows=1 gives the
    cycle on cols >= 3 vertices.  Pure Python and independent of the
    package's oracle: 2 states for a cycle, 16 for a 4-row strip.
    """
    states = list(itertools.product((1, -1), repeat=rows))
    inside = [
        coupling * sum(a * b for a, b in zip(s, s[1:])) + field * sum(s) for s in states
    ]
    across = [[coupling * sum(a * b for a, b in zip(s, r)) for r in states] for s in states]
    count = len(states)

    def sweep(vector):
        # log weight of the columns so far, by the state of the last one
        for _ in range(cols - 1):
            vector = [
                _logsumexp([vector[i] + across[i][j] for i in range(count)]) + inside[j]
                for j in range(count)
            ]
        return vector

    if not periodic:
        return _logsumexp(sweep(inside))
    closed = []
    for first in range(count):
        last = sweep([inside[i] if i == first else -math.inf for i in range(count)])
        closed.append(_logsumexp([last[j] + across[j][first] for j in range(count)]))
    return _logsumexp(closed)


def strip_log_z(system: SpinSystem, rows: int, cols: int, periodic: bool = False) -> float:
    """Exact log Z of ``system`` on the rows x cols grid, any table per edge
    and any field per vertex, by a transfer matrix over the 2**rows spin
    states of one column, in the log domain.

    Vertex (r, c), counted from 0, has label r * cols + c + 1, as in
    ``build_family_graph("grid", ...)``; ``periodic`` joins the last column
    to the first, so rows=1 gives the cycle.  Every grid edge must be an
    edge of the system.  Pure Python, like ``ising_strip_log_z``.
    """
    states = list(itertools.product((1, -1), repeat=rows))
    fields = {v: {1: f.h_plus, -1: f.h_minus} for v, f in system.fields.items()}
    tables = {}
    for (u, v), p in system.potentials.items():
        entries = {(1, 1): p.pp, (1, -1): p.pm, (-1, 1): p.mp, (-1, -1): p.mm}
        tables[u, v] = entries
        tables[v, u] = {(b, a): weight for (a, b), weight in entries.items()}

    def label(r, c):
        return r * cols + c + 1

    def inside(c):
        # fields of column c and the edges within it
        column = [label(r, c) for r in range(rows)]
        weights = []
        for s in states:
            weight = sum(fields[v][x] for v, x in zip(column, s))
            weight += sum(tables[u, v][x, y] for u, v, x, y in zip(column, column[1:], s, s[1:]))
            weights.append(weight)
        return weights

    def across(c, d):
        # edges from column c to column d
        pairs = [(label(r, c), label(r, d)) for r in range(rows)]
        return [
            [sum(tables[pair][x, y] for pair, x, y in zip(pairs, s, t)) for t in states]
            for s in states
        ]

    count = len(states)
    columns = [inside(c) for c in range(cols)]
    steps = [across(c, c + 1) for c in range(cols - 1)]

    def sweep(vector):
        # log weight of the columns so far, by the state of the last one
        for step, column in zip(steps, columns[1:]):
            vector = [
                _logsumexp([vector[i] + step[i][j] for i in range(count)]) + column[j]
                for j in range(count)
            ]
        return vector

    if not periodic:
        return _logsumexp(sweep(columns[0]))
    close = across(cols - 1, 0)
    closed = []
    for first in range(count):
        last = sweep([columns[0][i] if i == first else -math.inf for i in range(count)])
        closed.append(_logsumexp([last[j] + close[j][first] for j in range(count)]))
    return _logsumexp(closed)


def equal_split_depths(compiled, stops, root: int, depth_limit: int, allowance: float) -> list[int]:
    """Depths of the nodes of the walk tree under the equal allowance split,
    the reference that ``walk_log_ratio``'s spent split must never exceed:
    each free child is charged its whole share R / r whatever it spends,
    and is summed in place once its share times the edge's stretch reaches
    its number of children times their largest error.  ``stops`` is read
    as ``walk_log_ratio`` reads it and left as it is; the root's row
    counts at depth 1, as in the walk."""
    errors, belows = compiled.errors, compiled.belows
    inner = depth_limit - 2
    path = {root}
    depths = [0]

    def expand(row, depth, left):
        for position, (child, factors, below) in enumerate(row):
            depths.append(depth + 1)
            if stops[child] is not None or child in path or depth > inner:
                continue
            children = belows[below]
            grow = 0.0
            if left:
                share = left / (len(row) - position)
                left -= share
                if share >= errors[below] and children:
                    continue
                grow = share * factors[6]
            threshold = len(children) * max((errors[c[2]] for c in children), default=0.0)
            if depth < inner and (not grow or grow < threshold):
                path.add(child)
                expand(children, depth + 1, grow)
                path.remove(child)
            else:
                depths.extend([depth + 2] * len(children))

    expand(compiled.rows[root], 0, allowance)
    return depths


def identity_document() -> str:
    """The JSON file of the 5x6 random-table grid drawn from
    random.Random(1), which CI writes, estimates on every Python version and
    compares byte for byte.  It lists the row edges first, not in the
    sorted order save_system writes: on every Python version CI runs, its
    report then checks that parse_system puts the tables in label order."""
    rng = random.Random(1)
    rows, cols = 5, 6

    def label(r, c):
        return r * cols + c + 1

    def entry(bound):
        return rng.uniform(-bound, bound)

    edges = [(label(r, c), label(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(label(r, c), label(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return json.dumps({
        "schema_version": 1,
        "vertices": [{"id": v, "h_plus": entry(0.3), "h_minus": entry(0.3)}
                     for v in range(1, rows * cols + 1)],
        "edges": [{"u": u, "v": v, "beta": dict(pp=entry(0.15), pm=entry(0.15),
                                                mp=entry(0.15), mm=entry(0.15))}
                  for u, v in edges],
    })


def reversed_document(text: str) -> str:
    """The graph file ``text`` with its vertices and edges listed in reverse
    and every other edge written as (v, u), its table transposed: the same
    system, listed another way."""
    data = json.loads(text)
    data["vertices"].reverse()
    data["edges"].reverse()
    for entry in data["edges"][::2]:
        entry["u"], entry["v"] = entry["v"], entry["u"]
        beta = entry["beta"]
        beta["pm"], beta["mp"] = beta["mp"], beta["pm"]
    return json.dumps(data)


def again_instance() -> SpinSystem:
    """The random-table 3-regular graph on 10 vertices, called "again",
    whose estimate at eps 0.1 sweeps twice."""
    return generate(GenSpec(
        "random_regular", n=10, degree=3, model="random", coupling=0.5, field_strength=1.0, seed=11
    ))


def benchmark_spec(name: str, seed: int) -> GenSpec:
    """The GenSpec of the named benchmark workload with ``seed``; the
    workload's i-th instance at benchmark seed s has seed s * instances + i."""
    return GenSpec(**run.WORKLOADS[name]["spec"], seed=seed)


def random_system(rng, n: int, edge_prob: float = 0.5, coupling: float = 1.0, field: float = 1.0) -> SpinSystem:
    """Random dense-ish system with uniform table entries, for identities."""
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < edge_prob]
    graph = Graph.from_edges(n, edges)
    potentials = {e: EdgePotential(*rng.uniform(-coupling, coupling, 4)) for e in graph.edges}
    fields = {v: VertexField(*rng.uniform(-field, field, 2)) for v in graph.vertices()}
    return SpinSystem(graph, potentials, fields)


ACCEPTANCE_FAMILIES = ("cycle", "grid", "rr3", "rr4", "er")


def acceptance_instance(family: str, model: str, seed: int) -> SpinSystem:
    """One instance of the near-critical acceptance recipe.

    Graph from the named family with n in [4, 12]; coupling set to 0.9 times
    the critical value for max(3, max degree), sign flipped on half the
    draws; per-vertex fields uniform in [-1, 1].  Degree-0/1 graphs are
    redrawn so every instance has a meaningful degree bound.
    """
    rng = np.random.default_rng(seed)
    while True:
        topo_seed = int(rng.integers(2**32))
        if family == "cycle":
            graph = build_family_graph("cycle", n=int(rng.integers(4, 13)))
        elif family == "grid":
            shapes = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4)]
            rows, cols = shapes[int(rng.integers(len(shapes)))]
            graph = build_family_graph("grid", rows=rows, cols=cols)
        elif family == "rr3":
            n = int(rng.choice([4, 6, 8, 10, 12]))
            graph = build_family_graph("random_regular", n=n, degree=3, seed=topo_seed)
        elif family == "rr4":
            graph = build_family_graph(
                "random_regular", n=int(rng.integers(5, 13)), degree=4, seed=topo_seed
            )
        elif family == "er":
            graph = build_family_graph(
                "erdos_renyi",
                n=int(rng.integers(4, 13)),
                degree=float(rng.uniform(1.5, 3.0)),
                seed=topo_seed,
            )
        else:
            raise ValueError(f"unknown acceptance family {family!r}")
        if graph.max_degree() >= 2:
            break
    coupling = 0.9 * critical_inverse_temperature(max(3, graph.max_degree()))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if model == "ising":
        potentials = {e: ising_potential(sign * coupling) for e in graph.edges}
    elif model == "random":
        potentials = {
            e: EdgePotential(*rng.uniform(-coupling, coupling, 4)) for e in graph.edges
        }
    else:
        raise ValueError(f"unknown acceptance model {model!r}")
    fields = {}
    for v in graph.vertices():
        b = float(rng.uniform(-1.0, 1.0))
        fields[v] = VertexField(b, -b)
    return SpinSystem(graph, potentials, fields)
