"""Seeded graph families and spin-model attachment.

Randomness comes from numpy's PCG64 behind named streams so outputs are
portable and reproducible: stream 0 draws topology (with the retry attempt
appended for the regular-graph pairing model), stream 1 draws potential
entries per edge in sorted edge order, stream 2 draws field entries per
vertex in label order.  Stream k of seed s is
``np.random.Generator(PCG64(SeedSequence(s, spawn_key=(k, ...))))``.
numpy is imported only when a system is generated.
``serialize_system`` and ``save_system`` write a system in the full form
of the ``graphfile`` format.  The estimate path never imports this module:
``spinz`` exports its names lazily.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _LAZY_ALL
from .core import (
    EdgePotential, Graph, SpinSystem, VertexField, _count, _real, _shown, ising_field, ising_potential,
)
from .graphfile import SCHEMA_VERSION

if TYPE_CHECKING:
    import numpy as np

# The package lists these names so it can export them without importing
# this module.
__all__ = list(_LAZY_ALL["families"])

_STREAM_TOPOLOGY = 0
_STREAM_POTENTIALS = 1
_STREAM_FIELDS = 2

FAMILIES = ("path", "cycle", "grid", "complete", "random_regular", "erdos_renyi")
MODELS = ("ising", "random")

# Pairings the random_regular generator tries before it refuses, about 3 s
# at n = 10 on a 2-core VM.  The degree <= 4 graphs the benchmarks use take
# at most a few hundred; near-complete ones such as n = 10, degree 9 need
# far more than this.
_MAX_PAIRING_ATTEMPTS = 100_000


def _stream(seed: int, stream: int, *extra: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, *extra)))


@dataclass(frozen=True)
class GenSpec:
    """What to generate: a graph family, its size, a spin model, and a seed.

    ``coupling`` and ``field_strength`` are the ising parameters, or the
    entry bounds for the isotropic random model (entries uniform in
    [-coupling, coupling], field entries uniform in the field bound).
    """

    family: str
    n: int | None = None
    rows: int | None = None
    cols: int | None = None
    degree: float | None = None
    model: str = "ising"
    coupling: float = 0.0
    field_strength: float = 0.0
    seed: int = 0


def build_family_graph(
    family: str,
    *,
    n: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    degree: float | None = None,
    seed: int = 0,
) -> Graph:
    """Build one graph from a named family.

    path/cycle/complete take n; grid takes rows and cols; random_regular
    takes n and an integer degree (pairing model, resampled with a fresh
    sub-stream until simple, and refused with a ValueError when no simple
    pairing turns up in ``_MAX_PAIRING_ATTEMPTS`` tries); erdos_renyi
    takes n and an expected degree, including each pair independently with
    probability degree / n.
    """
    if family == "path":
        n = _count(n, "n", 1)
        return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    if family == "cycle":
        n = _count(n, "n", 3)
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return Graph.from_edges(n, edges)
    if family == "grid":
        rows = _count(rows, "rows", 1)
        cols = _count(cols, "cols", 1)
        edges = []
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                label = (r - 1) * cols + c
                if c < cols:
                    edges.append((label, label + 1))
                if r < rows:
                    edges.append((label, label + cols))
        return Graph.from_edges(rows * cols, edges)
    if family == "complete":
        n = _count(n, "n", 1)
        return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))
    if family == "random_regular":
        n = _count(n, "n", 1)
        if isinstance(degree, float) and degree.is_integer():  # `spinz gen` reads --degree as a float
            degree = int(degree)
        d = _count(degree, "degree")
        if d >= n:
            raise ValueError(f"regular degree must satisfy 0 <= degree < n, got {_shown(d)} with n={n}")
        if (n * d) % 2 != 0:
            raise ValueError(f"n * degree must be even, got n={n}, degree={d}")
        return _random_regular(n, d, seed)
    if family == "erdos_renyi":
        n = _count(n, "n")
        _real(degree, "degree")  # nan and inf would give K_n
        return _erdos_renyi(n, float(degree), seed)
    raise ValueError(f"unknown family {family!r} (choose from {', '.join(FAMILIES)})")


def _random_regular(n: int, degree: int, seed: int) -> Graph:
    """Pairing model: shuffle n*degree stubs, pair consecutively, and retry
    on any self-loop or duplicate edge with an incremented sub-stream, at
    most ``_MAX_PAIRING_ATTEMPTS`` times."""
    if degree == 0:
        return Graph.from_edges(n, [])
    import numpy as np

    unshuffled = np.repeat(np.arange(1, n + 1), degree)
    for attempt in range(_MAX_PAIRING_ATTEMPTS):
        rng = _stream(seed, _STREAM_TOPOLOGY, attempt)
        stubs = unshuffled.copy()
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        simple = True
        for i in range(0, stubs.size, 2):
            u = int(stubs[i])
            v = int(stubs[i + 1])
            if u == v:
                simple = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                simple = False
                break
            edges.add(key)
        if simple:
            return Graph.from_edges(n, sorted(edges))
    raise ValueError(
        f"random_regular found no simple graph with n={n}, degree={degree} "
        f"in {_MAX_PAIRING_ATTEMPTS} pairing attempts"
    )


def _erdos_renyi(n: int, degree: float, seed: int) -> Graph:
    if n <= 1:
        return Graph.from_edges(n, [])
    p = min(1.0, degree / n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng = _stream(seed, _STREAM_TOPOLOGY)
    keep = rng.random(len(pairs)) < p
    return Graph.from_edges(n, [pair for pair, hit in zip(pairs, keep) if hit])


def attach_spin_model(
    graph: Graph,
    model: str,
    coupling: float,
    field_strength: float,
    seed: int = 0,
) -> SpinSystem:
    """Decorate a graph with potentials and fields from a named model.

    ising: every edge gets the symmetric table for ``coupling`` and every
    vertex the field table for ``field_strength``.  random: each table entry
    is uniform in [-coupling, coupling] (which also bounds the interaction
    strength by ``coupling``) and each field entry uniform in
    [-field_strength, field_strength].
    """
    if model == "ising":
        potentials = {e: ising_potential(coupling) for e in graph.edges}
        fields = {v: ising_field(field_strength) for v in graph.vertices()}
    elif model == "random":
        # numpy's uniform refuses a range (twice the bound) that overflows.
        if not (0 <= 2 * coupling < math.inf and 0 <= 2 * field_strength < math.inf):
            raise ValueError(
                "random-model bounds must be nonnegative and at most half the largest float, "
                f"got coupling={coupling!r}, field={field_strength!r}"
            )
        coupling += 0.0  # -0.0 + 0.0 is 0.0: numpy refuses the range [0.0, -0.0]
        field_strength += 0.0
        rng_p = _stream(seed, _STREAM_POTENTIALS)
        potentials = {
            e: EdgePotential(*rng_p.uniform(-coupling, coupling, 4)) for e in graph.edges
        }
        rng_f = _stream(seed, _STREAM_FIELDS)
        fields = {
            v: VertexField(*rng_f.uniform(-field_strength, field_strength, 2))
            for v in graph.vertices()
        }
    else:
        raise ValueError(f"unknown model {model!r} (choose from {', '.join(MODELS)})")
    return SpinSystem(graph, potentials, fields)


def ising_system(graph: Graph, coupling: float, field_strength: float = 0.0) -> SpinSystem:
    """Shorthand for attach_spin_model(graph, "ising", ...)."""
    return attach_spin_model(graph, "ising", coupling, field_strength)


def generate(spec: GenSpec) -> SpinSystem:
    """Generate the system a GenSpec describes; same spec, same system."""
    graph = build_family_graph(
        spec.family,
        n=spec.n,
        rows=spec.rows,
        cols=spec.cols,
        degree=spec.degree,
        seed=spec.seed,
    )
    return attach_spin_model(graph, spec.model, spec.coupling, spec.field_strength, spec.seed)


def serialize_system(system: SpinSystem) -> str:
    """Render a SpinSystem in the full JSON form; parse_system inverts this
    exactly (float values round-trip bit-for-bit)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "vertices": [
            {
                "id": v,
                "h_plus": system.fields[v].h_plus,
                "h_minus": system.fields[v].h_minus,
            }
            for v in system.graph.vertices()
        ],
        "edges": [
            {
                "u": u,
                "v": v,
                "beta": {
                    "pp": system.potentials[(u, v)].pp,
                    "pm": system.potentials[(u, v)].pm,
                    "mp": system.potentials[(u, v)].mp,
                    "mm": system.potentials[(u, v)].mm,
                },
            }
            for (u, v) in system.graph.edges
        ],
    }
    return json.dumps(payload, indent=2)


def save_system(system: SpinSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_system(system))
        handle.write("\n")
