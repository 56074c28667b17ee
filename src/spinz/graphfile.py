"""The JSON file format of a spin system.

The format lists vertices (with field tables) and edges (with potential
tables); an optional ising shorthand supplies tables for entries that omit
them.  ``parse_system`` and ``load_system`` read either form and invert
``families.serialize_system``, which writes the full form, bit for bit.
The writer sits beside the generators, off the estimate path, which only
reads.  Only the standard library is used.

The parser checks the file's shape and vertex ids; ``core._finite`` checks
its numbers and ``Graph.from_edges`` its edges, with located errors such as
``edges[3].beta.pp must be finite, got inf``.

Neither the order a file lists its vertices and edges in nor the
orientation an edge is written in changes any report: ``SpinSystem``
stores the tables in label order, which every sum over them follows.
"""

from __future__ import annotations

import json

from .core import EdgePotential, Graph, SpinSystem, VertexField, _finite, ising_field, ising_potential

__all__ = [
    "GraphFileError",
    "parse_system",
    "load_system",
]

SCHEMA_VERSION = 1


class GraphFileError(ValueError):
    """A graph file failed to decode or validate; the message names the spot."""


def parse_system(text: str) -> SpinSystem:
    """Parse the JSON graph format into a SpinSystem.

    The format lists vertices (with field tables) and edges (with potential
    tables); an optional ising shorthand supplies tables for entries that
    omit them.  Vertex ids must be exactly 1..n; files with gaps or
    duplicates are rejected rather than relabeled.  Every failure, from
    decoding to the checks of ``core``, is a ``GraphFileError``.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise GraphFileError(f"invalid JSON: {exc}") from None
    try:
        return _system_from(data)
    except ValueError as exc:
        raise GraphFileError(str(exc)) from None


def _system_from(data) -> SpinSystem:
    if not isinstance(data, dict):
        raise ValueError("top level: expected an object")
    if "schema_version" not in data:
        raise ValueError("top level: missing schema_version")
    version = data["schema_version"]
    # The int 1 only: True and 1.0 compare equal to it, and ids refuse both.
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    shorthand = data.get("model")
    default_potential = default_field = None
    if shorthand is not None:
        if shorthand != "ising":
            raise ValueError(f"model: expected 'ising', got {shorthand!r}")
        default_potential = ising_potential(_finite(data.get("J"), "J"))
        default_field = ising_field(_finite(data.get("B"), "B"))

    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ValueError("vertices: expected a list")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise ValueError("edges: expected a list")

    # Records are built from checked floats with ``_make``, which checks
    # nothing again.
    n = len(raw_vertices)
    fields: dict[int, VertexField] = {}
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict):
            raise ValueError(f"vertices[{i}]: expected an object")
        vid = entry.get("id")
        if isinstance(vid, bool) or not isinstance(vid, int) or not 1 <= vid <= n:
            raise ValueError(f"vertices[{i}].id: ids must be exactly 1..{n} with no gaps, got {vid!r}")
        if vid in fields:
            raise ValueError(f"vertices[{i}].id: duplicate vertex id {vid}")
        if "h_plus" in entry or "h_minus" in entry:
            fields[vid] = VertexField._make((
                _finite(entry.get("h_plus"), "vertices[{}].h_plus", i),
                _finite(entry.get("h_minus"), "vertices[{}].h_minus", i),
            ))
        elif default_field is not None:
            fields[vid] = default_field
        else:
            raise ValueError(f"vertices[{i}]: missing h_plus/h_minus and no model shorthand")

    pairs: list[tuple[int, int]] = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise ValueError(f"edges[{i}]: expected an object")
        pairs.append((entry.get("u"), entry.get("v")))
    graph = Graph.from_edges(n, pairs)

    potentials: dict[tuple[int, int], EdgePotential] = {}
    for i, ((u, v), entry) in enumerate(zip(pairs, raw_edges)):
        beta = entry.get("beta")
        if beta is not None:
            if not isinstance(beta, dict):
                raise ValueError(f"edges[{i}].beta: expected an object")
            pp = _finite(beta.get("pp"), "edges[{}].beta.pp", i)
            pm = _finite(beta.get("pm"), "edges[{}].beta.pm", i)
            mp = _finite(beta.get("mp"), "edges[{}].beta.mp", i)
            mm = _finite(beta.get("mm"), "edges[{}].beta.mm", i)
            # Tables are stored for (min, max); reorient if given as (v, u).
            table = EdgePotential._make((pp, pm, mp, mm) if u < v else (pp, mp, pm, mm))
        elif default_potential is not None:
            table = default_potential
        else:
            raise ValueError(f"edges[{i}]: missing beta and no model shorthand")
        potentials[(u, v) if u < v else (v, u)] = table

    return SpinSystem(graph, potentials, fields)


def load_system(path) -> SpinSystem:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GraphFileError(f"invalid JSON: {exc}") from None
    return parse_system(text)
