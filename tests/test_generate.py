from __future__ import annotations

import json
import math

import numpy as np
import pytest

from spinz import (
    GenSpec,
    Graph,
    GraphFileError,
    Spin,
    attach_spin_model,
    build_family_graph,
    exact_log_partition,
    families,
    generate,
    ising_system,
    parse_system,
    serialize_system,
)

from .helpers import random_system, reversed_document


def test_path_cycle_complete_shapes():
    path = build_family_graph("path", n=5)
    assert path.edges == ((1, 2), (2, 3), (3, 4), (4, 5))
    cycle = build_family_graph("cycle", n=4)
    assert cycle.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    complete = build_family_graph("complete", n=4)
    assert len(complete.edges) == 6 and complete.max_degree() == 3
    single = build_family_graph("path", n=1)
    assert single.n == 1 and single.edges == ()


def test_grid_shape():
    grid = build_family_graph("grid", rows=2, cols=3)
    assert grid.n == 6
    assert {(1, 2), (1, 4), (3, 6)} <= set(grid.edges)
    assert (3, 4) not in grid.edges
    assert len(grid.edges) == 7  # 4 horizontal + 3 vertical


def test_grid_edge_count_formula():
    for rows, cols in ((1, 1), (1, 6), (3, 3), (4, 5)):
        grid = build_family_graph("grid", rows=rows, cols=cols)
        assert len(grid.edges) == rows * (cols - 1) + cols * (rows - 1)


def test_random_regular_degree_audit():
    for seed in range(10):
        graph = build_family_graph("random_regular", n=10, degree=3, seed=seed)
        assert all(len(nbrs) == 3 for nbrs in graph.adjacency)
    graph = build_family_graph("random_regular", n=9, degree=4, seed=0)
    assert all(len(nbrs) == 4 for nbrs in graph.adjacency)
    assert build_family_graph("random_regular", n=4, degree=0).edges == ()


def test_random_regular_rejects_bad_parameters(monkeypatch):
    with pytest.raises(ValueError):
        build_family_graph("random_regular", n=5, degree=3, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        build_family_graph("random_regular", n=4, degree=4, seed=0)  # d >= n
    with pytest.raises(ValueError):
        build_family_graph("random_regular", n=4, degree=2.5, seed=0)
    # n=6, degree=3, seed 0 finds its first simple pairing on attempt 5: a
    # bound of 5 keeps that graph, and a bound of 4 refuses it.
    graph = build_family_graph("random_regular", n=6, degree=3, seed=0)
    monkeypatch.setattr(families, "_MAX_PAIRING_ATTEMPTS", 5)
    assert build_family_graph("random_regular", n=6, degree=3, seed=0) == graph
    monkeypatch.setattr(families, "_MAX_PAIRING_ATTEMPTS", 4)
    with pytest.raises(ValueError) as info:
        build_family_graph("random_regular", n=6, degree=3, seed=0)
    assert str(info.value) == (
        "random_regular found no simple graph with n=6, degree=3 in 4 pairing attempts"
    )


def test_erdos_renyi_mean_edge_count():
    # expected edges C(100,2) * (3/100) = 148.5; empirical mean over 200
    # seeds within 3 standard errors (sd of one draw is sqrt(m p (1-p)))
    counts = [
        len(build_family_graph("erdos_renyi", n=100, degree=3.0, seed=s).edges)
        for s in range(200)
    ]
    expected = math.comb(100, 2) * (3.0 / 100)
    standard_error = math.sqrt(math.comb(100, 2) * 0.03 * 0.97 / 200)
    assert abs(np.mean(counts) - expected) <= 3 * standard_error


def test_erdos_renyi_edge_cases():
    assert build_family_graph("erdos_renyi", n=0, degree=2.0).n == 0
    assert build_family_graph("erdos_renyi", n=5, degree=0.0).edges == ()
    dense = build_family_graph("erdos_renyi", n=6, degree=6.0, seed=1)
    assert len(dense.edges) == 15  # p capped at 1
    # min(1, nan / n) and min(1, inf / n) are 1: these would give K_n.
    for degree in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^degree must be a nonnegative finite number, got "):
            build_family_graph("erdos_renyi", n=6, degree=degree)


def test_generation_is_deterministic():
    spec = GenSpec(family="random_regular", n=10, degree=3, model="random",
                   coupling=0.8, field_strength=0.5, seed=1234)
    first = generate(spec)
    second = generate(spec)
    assert first.graph.edges == second.graph.edges
    assert first.potentials == second.potentials
    assert first.fields == second.fields
    other = generate(GenSpec(family="random_regular", n=10, degree=3, model="random",
                             coupling=0.8, field_strength=0.5, seed=1235))
    assert other.graph.edges != first.graph.edges or other.potentials != first.potentials


def test_topology_seed_independent_of_model_seed_streams():
    # same seed must give the same graph whether or not tables are drawn
    a = build_family_graph("erdos_renyi", n=30, degree=2.5, seed=77)
    system = generate(GenSpec(family="erdos_renyi", n=30, degree=2.5,
                              model="random", coupling=1.0, field_strength=1.0, seed=77))
    assert system.graph.edges == a.edges


def test_ising_model_tables():
    system = generate(GenSpec(family="cycle", n=3, model="ising", coupling=0.2,
                              field_strength=0.1, seed=0))
    assert set(system.graph.edges) == {(1, 2), (1, 3), (2, 3)}
    for pot in system.potentials.values():
        assert (pot.pp, pot.pm, pot.mp, pot.mm) == (0.2, -0.2, -0.2, 0.2)
    for field in system.fields.values():
        assert (field.h_plus, field.h_minus) == (0.1, -0.1)


def test_random_model_respects_bounds():
    system = generate(GenSpec(family="complete", n=8, model="random", coupling=0.7,
                              field_strength=0.3, seed=9))
    for pot in system.potentials.values():
        for entry in (pot.pp, pot.pm, pot.mp, pot.mm):
            assert -0.7 <= entry <= 0.7
    for field in system.fields.values():
        assert -0.3 <= field.h_plus <= 0.3
        assert -0.3 <= field.h_minus <= 0.3


def test_attach_rejects_unknown_model_and_negative_bounds():
    graph = build_family_graph("path", n=3)
    with pytest.raises(ValueError):
        attach_spin_model(graph, "potts", 0.1, 0.1)
    with pytest.raises(ValueError):
        attach_spin_model(graph, "random", -0.5, 0.1)


def test_unknown_family():
    with pytest.raises(ValueError):
        build_family_graph("torus", n=5)


def test_serialize_parse_round_trip_is_exact():
    rng = np.random.default_rng(53)
    for _ in range(10):
        system = random_system(rng, int(rng.integers(1, 9)), edge_prob=0.5)
        text = serialize_system(system)
        back = parse_system(text)
        assert back.graph.edges == system.graph.edges
        assert back.potentials == system.potentials
        assert back.fields == system.fields
        assert serialize_system(back) == text
        # The same system listed in reverse, some edges written (v, u):
        # parsed into label order, so every sum over it has the same bits.
        back = parse_system(reversed_document(text))
        assert list(back.potentials) == list(back.graph.edges)
        assert list(back.fields) == list(range(1, system.n + 1))
        assert serialize_system(back) == text
        assert exact_log_partition(back).hex() == exact_log_partition(system).hex()


def test_parse_ising_shorthand_matches_generate():
    text = json.dumps({
        "schema_version": 1,
        "model": "ising",
        "J": 0.2,
        "B": 0.1,
        "vertices": [{"id": 1}, {"id": 2}, {"id": 3}],
        "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}, {"u": 1, "v": 3}],
    })
    system = parse_system(text)
    reference = generate(GenSpec(family="cycle", n=3, model="ising", coupling=0.2,
                                 field_strength=0.1, seed=0))
    assert system.potentials == reference.potentials
    assert system.fields == reference.fields
    assert exact_log_partition(system) == pytest.approx(
        exact_log_partition(reference), abs=1e-12
    )


def test_parse_explicit_beta_overrides_shorthand():
    text = json.dumps({
        "schema_version": 1,
        "model": "ising",
        "J": 0.2,
        "B": 0.0,
        "vertices": [{"id": 1}, {"id": 2, "h_plus": 0.5, "h_minus": -0.25}],
        "edges": [{"u": 2, "v": 1, "beta": {"pp": 1.0, "pm": 2.0, "mp": 3.0, "mm": 4.0}}],
    })
    system = parse_system(text)
    # table was given in orientation 2 -> 1, stored transposed under (1, 2)
    stored = system.potentials[(1, 2)]
    assert (stored.pp, stored.pm, stored.mp, stored.mm) == (1.0, 3.0, 2.0, 4.0)
    assert system.fields[2].h_plus == 0.5
    assert system.fields[1].h_plus == 0.0


def test_parse_rejects_malformed_files():
    good = {
        "schema_version": 1,
        "vertices": [{"id": 1, "h_plus": 0.0, "h_minus": 0.0},
                     {"id": 2, "h_plus": 0.0, "h_minus": 0.0}],
        "edges": [{"u": 1, "v": 2, "beta": {"pp": 0.1, "pm": -0.1, "mp": -0.1, "mm": 0.1}}],
    }

    with pytest.raises(GraphFileError):
        parse_system("not json at all {")
    with pytest.raises(GraphFileError):
        parse_system(json.dumps({**good, "schema_version": 2}))

    self_loop = json.loads(json.dumps(good))
    self_loop["edges"][0]["v"] = 1
    with pytest.raises(GraphFileError):
        parse_system(json.dumps(self_loop))

    duplicate = json.loads(json.dumps(good))
    duplicate["edges"].append(dict(duplicate["edges"][0], u=2, v=1))
    with pytest.raises(GraphFileError):
        parse_system(json.dumps(duplicate))

    gap = json.loads(json.dumps(good))
    gap["vertices"][1]["id"] = 3
    with pytest.raises(GraphFileError):
        parse_system(json.dumps(gap))

    repeat = json.loads(json.dumps(good))
    repeat["vertices"][1]["id"] = 1
    with pytest.raises(GraphFileError):
        parse_system(json.dumps(repeat))

    nonfinite = json.loads(json.dumps(good))
    nonfinite["vertices"][0]["h_plus"] = "Infinity"
    with pytest.raises(GraphFileError):
        parse_system(json.dumps(nonfinite))

    missing_beta = json.loads(json.dumps(good))
    del missing_beta["edges"][0]["beta"]
    with pytest.raises(GraphFileError):
        parse_system(json.dumps(missing_beta))


@pytest.mark.parametrize("edges,message", [
    ([(1, 2), (2, 2)], "edges[1]: self-loop at vertex 2"),
    ([(1, 2), (2, 3), (2, 1)], "edges[2]: duplicate edge (1, 2)"),
    ([(1, 2), (3, 4)], "edges[1]: unknown vertex label 4 (valid labels are 1..3)"),
], ids=["self-loop", "duplicate", "endpoint-out-of-range"])
def test_edge_errors_name_the_pair_by_position(edges, message):
    with pytest.raises(ValueError) as info:
        Graph.from_edges(3, edges)
    assert str(info.value) == message
    text = json.dumps({
        "schema_version": 1, "model": "ising", "J": 0.1, "B": 0.0,
        "vertices": [{"id": v} for v in (1, 2, 3)],
        "edges": [{"u": u, "v": v} for u, v in edges],
    })
    with pytest.raises(GraphFileError) as info:
        parse_system(text)
    assert str(info.value) == message


def test_edge_label_too_long_to_print_states_the_rule():
    # No file can hold this label: the decoder refuses the literal first.
    huge = 10**5000
    with pytest.raises(ValueError) as info:
        Graph.from_edges(3, [(1, huge)])
    assert str(info.value) == (
        f"edges[0]: unknown vertex label an int of {huge.bit_length()} bits (valid labels are 1..3)"
    )


def test_parse_reports_every_decode_failure_as_graph_file_error():
    # Nesting too deep for the decoder, and an int literal beyond the
    # int-to-str digit limit where the interpreter has one.
    for text in ("[" * 200_000, '{"schema_version": ' + "9" * 5000 + "}"):
        with pytest.raises(GraphFileError, match=r"^(invalid JSON: |schema_version: )"):
            parse_system(text)
    with pytest.raises(GraphFileError, match=r"^edges\[0\]\.beta\.mm must be finite, got 1000"):
        parse_system(json.dumps({
            "schema_version": 1, "vertices": [{"id": 1, "h_plus": 0, "h_minus": 0},
                                              {"id": 2, "h_plus": 0, "h_minus": 0}],
            "edges": [{"u": 1, "v": 2, "beta": {"pp": 0, "pm": 0, "mp": 0, "mm": 10**400}}],
        }))


def test_parse_minimal_single_vertex():
    system = parse_system(json.dumps({
        "schema_version": 1,
        "vertices": [{"id": 1, "h_plus": 0.3, "h_minus": 0.0}],
        "edges": [],
    }))
    assert system.n == 1
    assert system.fields[1].h_plus == 0.3


def test_save_load_round_trip(tmp_path):
    from spinz import load_system, save_system

    system = ising_system(build_family_graph("grid", rows=2, cols=2), 0.15, -0.05)
    path = tmp_path / "grid.json"
    save_system(system, path)
    back = load_system(path)
    assert back.potentials == system.potentials
    assert back.fields == system.fields
