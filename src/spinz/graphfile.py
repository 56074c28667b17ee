"""The JSON file format of a spin system.

The format lists vertices (with field tables) and edges (with potential
tables); an optional ising shorthand supplies tables for entries that omit
them.  ``serialize_system`` writes the full form; ``parse_system`` reads
either form and inverts ``serialize_system`` bit for bit.  Only the
standard library is used.
"""

from __future__ import annotations

import json
import math

from .core import EdgePotential, Graph, SpinSystem, VertexField, ising_field, ising_potential

__all__ = [
    "GraphFileError",
    "parse_system",
    "serialize_system",
    "load_system",
    "save_system",
]

SCHEMA_VERSION = 1


class GraphFileError(ValueError):
    """A graph file failed schema validation; the message names the spot."""


def _require_number(value, where: str, index: int = 0) -> float:
    """``value`` as a finite float.  ``where`` names the spot in the error,
    with ``{}`` standing for ``index``; it is formatted only on failure.
    Records are built from these floats with ``_make``, which checks
    nothing again."""
    if type(value) is float and value - value == 0.0:  # finite: inf - inf and nan are nan
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFileError(f"{where.format(index)}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise GraphFileError(f"{where.format(index)}: expected a finite number, got {value!r}")
    return float(value)


def _require_int(value, where: str, index: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFileError(f"{where.format(index)}: expected an integer, got {value!r}")
    return value


def parse_system(text: str) -> SpinSystem:
    """Parse the JSON graph format into a SpinSystem.

    The format lists vertices (with field tables) and edges (with potential
    tables); an optional ising shorthand supplies tables for entries that
    omit them.  Vertex ids must be exactly 1..n; files with gaps or
    duplicates are rejected rather than relabeled.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GraphFileError("top level: expected an object")
    if "schema_version" not in data:
        raise GraphFileError("top level: missing schema_version")
    if data["schema_version"] != SCHEMA_VERSION:
        raise GraphFileError(
            f"schema_version: expected {SCHEMA_VERSION}, got {data['schema_version']!r}"
        )

    shorthand = data.get("model")
    default_potential = default_field = None
    if shorthand is not None:
        if shorthand != "ising":
            raise GraphFileError(f"model: expected 'ising', got {shorthand!r}")
        coupling = _require_number(data.get("J"), "J")
        strength = _require_number(data.get("B"), "B")
        default_potential = ising_potential(coupling)
        default_field = ising_field(strength)

    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise GraphFileError("vertices: expected a list")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphFileError("edges: expected a list")

    n = len(raw_vertices)
    fields: dict[int, VertexField] = {}
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict):
            raise GraphFileError(f"vertices[{i}]: expected an object")
        vid = _require_int(entry.get("id"), "vertices[{}].id", i)
        if not 1 <= vid <= n:
            raise GraphFileError(
                f"vertices[{i}].id: ids must be exactly 1..{n} with no gaps, got {vid}"
            )
        if vid in fields:
            raise GraphFileError(f"vertices[{i}].id: duplicate vertex id {vid}")
        if "h_plus" in entry or "h_minus" in entry:
            fields[vid] = VertexField._make((
                _require_number(entry.get("h_plus"), "vertices[{}].h_plus", i),
                _require_number(entry.get("h_minus"), "vertices[{}].h_minus", i),
            ))
        elif default_field is not None:
            fields[vid] = default_field
        else:
            raise GraphFileError(f"vertices[{i}]: missing h_plus/h_minus and no model shorthand")

    edges: list[tuple[int, int]] = []
    potentials: dict[tuple[int, int], EdgePotential] = {}
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise GraphFileError(f"edges[{i}]: expected an object")
        u = _require_int(entry.get("u"), "edges[{}].u", i)
        v = _require_int(entry.get("v"), "edges[{}].v", i)
        if not 1 <= u <= n or not 1 <= v <= n:
            raise GraphFileError(f"edges[{i}]: endpoint outside 1..{n}")
        if u == v:
            raise GraphFileError(f"edges[{i}]: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in potentials:
            raise GraphFileError(f"edges[{i}]: duplicate edge {key}")
        beta = entry.get("beta")
        if beta is not None:
            if not isinstance(beta, dict):
                raise GraphFileError(f"edges[{i}].beta: expected an object")
            pp = _require_number(beta.get("pp"), "edges[{}].beta.pp", i)
            pm = _require_number(beta.get("pm"), "edges[{}].beta.pm", i)
            mp = _require_number(beta.get("mp"), "edges[{}].beta.mp", i)
            mm = _require_number(beta.get("mm"), "edges[{}].beta.mm", i)
            # Tables are stored for (min, max); reorient if given as (v, u).
            potentials[key] = EdgePotential._make((pp, pm, mp, mm) if u < v else (pp, mp, pm, mm))
        elif default_potential is not None:
            potentials[key] = default_potential
        else:
            raise GraphFileError(f"edges[{i}]: missing beta and no model shorthand")
        edges.append(key)

    graph = Graph.from_edges(n, edges)
    return SpinSystem(graph, potentials, fields)


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


def load_system(path) -> SpinSystem:
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read())


def save_system(system: SpinSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_system(system))
        handle.write("\n")
