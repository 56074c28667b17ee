from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from spinz import (
    DecayConditionError,
    EdgePotential,
    Graph,
    Spin,
    SpinSystem,
    VertexEstimate,
    VertexField,
    compile_system,
    critical_inverse_temperature,
    decay_condition_holds,
    decay_function,
    external_field,
    interaction_strength,
    ising_field,
    ising_potential,
    ising_system,
    fptas_log_partition,
    system_scalars,
    SystemScalars,
)

from .helpers import oriented


def test_spin_values():
    assert int(Spin.PLUS) == 1
    assert int(Spin.MINUS) == -1
    assert str(Spin.PLUS) == "+"
    assert str(Spin.MINUS) == "-"


def test_graph_construction_and_queries():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert g.n == 4
    assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert g.adjacency == ((2, 4), (1, 3), (2, 4), (1, 3))
    assert g.max_degree() == 2
    assert list(g.vertices()) == [1, 2, 3, 4]
    assert g.is_connected()


def test_graph_edge_normalization():
    # order within a pair and between pairs must not matter
    a = Graph.from_edges(3, [(2, 1), (3, 2)])
    b = Graph.from_edges(3, [(2, 3), (1, 2)])
    assert a.edges == b.edges == ((1, 2), (2, 3))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(True, 2)])
    with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got 3\.0$"):
        Graph.from_edges(3.0, [(1, 2)])


def test_graph_distances():
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)])
    d = g.distances_from(1)
    assert d == {1: 0, 2: 1, 3: 2, 4: 3}
    assert 5 not in d
    assert g.vertices_at_distance(1, 2) == (3,)
    assert g.vertices_at_distance(1, 9) == ()
    with pytest.raises(ValueError, match="^distance must be an integer >= 0, got -1$"):
        g.vertices_at_distance(1, -1)
    assert not g.is_connected()


def test_empty_and_single_vertex_graphs():
    empty = Graph.from_edges(0, [])
    assert empty.n == 0 and empty.edges == () and empty.is_connected()
    single = Graph.from_edges(1, [])
    assert single.max_degree() == 0 and single.is_connected()


def test_interaction_strength_examples():
    assert interaction_strength(ising_potential(0.3)) == pytest.approx(0.3, abs=1e-15)
    assert interaction_strength(EdgePotential(0, 0, 0, 0)) == 0.0
    assert interaction_strength(EdgePotential(1.0, 0.0, 0.0, 1.0)) == 0.5


def test_interaction_strength_transpose_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = EdgePotential(*rng.uniform(-3, 3, 4))
        swapped = EdgePotential(p.pp, p.mp, p.pm, p.mm)
        assert interaction_strength(swapped) == pytest.approx(
            interaction_strength(p), abs=1e-15
        )


def test_interaction_strength_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        entries = rng.uniform(-3, 3, 4)
        shift = float(rng.uniform(-5, 5))
        p = EdgePotential(*entries)
        q = EdgePotential(*(entries + shift))
        assert interaction_strength(q) == pytest.approx(interaction_strength(p), abs=1e-12)
        f = VertexField(entries[0], entries[1])
        g = VertexField(entries[0] + shift, entries[1] + shift)
        assert external_field(g) == pytest.approx(external_field(f), abs=1e-12)


def test_external_field_examples():
    assert external_field(VertexField(0.7, 0.7)) == 0.0
    assert external_field(VertexField(1.0, 0.0)) == 0.5
    assert external_field(VertexField(-0.2, 0.4)) == pytest.approx(-0.3, abs=1e-15)


def test_interaction_strength_is_finite_for_every_finite_table():
    # Quartering before summing: no finite table overflows.
    assert interaction_strength(EdgePotential(1e308, 1e308, 1e308, 1e308)) == 0.0
    assert interaction_strength(EdgePotential(1e308, -1e308, -1e308, 1e308)) == 1e308
    assert interaction_strength(EdgePotential(-1e308, 1e308, 1e308, -1e308)) == -1e308
    assert external_field(VertexField(1e308, -1e308)) == 1e308
    assert external_field(VertexField(-1e308, 1e308)) == -1e308


def test_interaction_strength_is_the_same_bits_for_either_orientation():
    rng = np.random.default_rng(27)
    tables = [EdgePotential(0.1, 0.1, 0.2, 0.3)]
    for scale in (1e-3, 1.0, 3.0, 1e300):
        tables += [EdgePotential(*rng.uniform(-scale, scale, 4)) for _ in range(50)]
    for p in tables:
        swapped = EdgePotential(p.pp, p.mp, p.pm, p.mm)
        assert interaction_strength(p).hex() == interaction_strength(swapped).hex(), p


def test_interaction_strength_is_zero_exactly_when_decoupled():
    # pp + mm == pm + mp makes the edge factor constant, so J is 0.0 itself,
    # not a rounding residue that would give the edge a frontier error.
    assert interaction_strength(EdgePotential(0.1, 0.1, 0.2, 0.2)) == 0.0
    assert interaction_strength(EdgePotential(0.1, 0.2, 0.1, 0.2)) == 0.0
    # Bit for bit the plain formula wherever it stays in the normal range.
    rng = np.random.default_rng(28)
    for _ in range(200):
        pp, pm, mp, mm = rng.uniform(-3, 3, 4)
        p = EdgePotential(pp, pm, mp, mm)
        assert interaction_strength(p) == ((pp + mm) - (pm + mp)) / 4.0
        assert external_field(VertexField(pp, pm)) == (pp - pm) / 2.0


def test_potential_field_values():
    p = EdgePotential(1.0, 2.0, 3.0, 4.0)
    assert p.value(Spin.PLUS, Spin.PLUS) == 1.0
    assert p.value(Spin.PLUS, Spin.MINUS) == 2.0
    assert p.value(Spin.MINUS, Spin.PLUS) == 3.0
    assert p.value(Spin.MINUS, Spin.MINUS) == 4.0
    f = VertexField(0.5, -0.25)
    assert f.value(Spin.PLUS) == 0.5
    assert f.value(Spin.MINUS) == -0.25


def test_potential_rejects_nonfinite():
    with pytest.raises(ValueError):
        EdgePotential(math.inf, 0, 0, 0)
    with pytest.raises(ValueError):
        VertexField(0.0, math.nan)


def test_critical_inverse_temperature_examples():
    assert critical_inverse_temperature(3) == pytest.approx(0.5493061443340549, abs=1e-15)
    assert critical_inverse_temperature(4) == pytest.approx(0.34657359027997264, abs=1e-15)
    assert critical_inverse_temperature(2) == math.inf
    assert critical_inverse_temperature(0) == math.inf
    for degree in (True, -1, 3.0):
        with pytest.raises(ValueError, match="^degree must be an integer >= 0, got "):
            critical_inverse_temperature(degree)


def test_critical_inverse_temperature_decreases():
    values = [critical_inverse_temperature(d) for d in range(3, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert critical_inverse_temperature(10**6) < 1e-5


def test_decay_function_examples():
    assert decay_function(1, 0.7, 5) == pytest.approx(4 * 0.7 * 5, abs=1e-12)
    assert decay_function(4, 0.0, 3) == 0.0
    assert decay_function(3, 0.3, 3) == pytest.approx(1.2220277496965393, abs=1e-12)
    # Rate 0 at degree 1: 0.0, though 4 * coupling overflows.
    assert decay_function(3, 1e308, 1) == 0.0
    for args, message in (
        ((0, 0.3, 3), "distance must be an integer >= 1, got 0"),
        ((1, -0.1, 3), "coupling must be a nonnegative finite number, got -0.1"),
        ((1, 0.3, 0), "degree must be an integer >= 1, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            decay_function(*args)


def test_decay_function_decreasing_when_subcritical():
    values = [decay_function(t, 0.4, 3) for t in range(1, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_system_scalars_decay_condition():
    g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    hold = system_scalars(ising_system(g, 0.5))
    assert hold.degree_bound == 3
    assert hold.contraction == pytest.approx(0.9242343145200195, abs=1e-15)
    assert decay_condition_holds(hold)

    broken = system_scalars(ising_system(g, 0.6))
    assert broken.contraction == pytest.approx(1.0740991339960706, abs=1e-15)
    assert not decay_condition_holds(broken)

    assert decay_condition_holds(system_scalars(ising_system(g, 0.0)))


def test_system_scalars_at_derives_the_rate_and_the_critical_coupling():
    scalars = SystemScalars.at(0.5, 3)
    assert scalars == SystemScalars(0.5, 3, critical_inverse_temperature(3), 2 * math.tanh(0.5))
    assert system_scalars(ising_system(Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]), 0.5)) == scalars
    # The rate is floored at 0: no edges, degree 1 or J = 0 contract fully.
    assert SystemScalars.at(0.0, 0).contraction == 0.0
    assert SystemScalars.at(0.7, 1).contraction == 0.0
    assert math.copysign(1.0, SystemScalars.at(0.0, 0).contraction) == 1.0


def test_decay_condition_error_takes_the_scalars():
    scalars = SystemScalars.at(0.6, 3)
    err = DecayConditionError(scalars)
    assert SystemScalars(err.max_coupling, err.degree_bound, err.critical_coupling, err.contraction) == scalars
    assert str(err) == (
        "decay condition violated: (degree_bound - 1) * tanh(max_coupling) = 1.0741 >= 1 "
        f"(max_coupling=0.6, critical_coupling={critical_inverse_temperature(3)}, degree_bound=3)"
    )


def test_decay_condition_error_survives_pickling():
    err = DecayConditionError(SystemScalars.at(0.6, 3))
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is DecayConditionError and str(copy) == str(err)
    fields = ("contraction", "max_coupling", "critical_coupling", "degree_bound")
    assert [getattr(copy, f) for f in fields] == [getattr(err, f) for f in fields]


def test_system_scalars_fields_and_couplings():
    g = Graph.from_edges(2, [(1, 2)])
    sys_ = SpinSystem(
        g,
        {(1, 2): EdgePotential(1.0, 0.0, 0.0, 1.0)},
        {1: VertexField(1.0, 0.0), 2: VertexField(0.0, 0.0)},
    )
    scalars = system_scalars(sys_)
    assert interaction_strength(sys_.potentials[(1, 2)]) == 0.5
    assert external_field(sys_.fields[1]) == 0.5
    assert external_field(sys_.fields[2]) == 0.0
    assert scalars.max_coupling == 0.5
    assert scalars.degree_bound == 1


def test_spin_system_validates_keys():
    g = Graph.from_edges(2, [(1, 2)])
    with pytest.raises(ValueError):
        SpinSystem(g, {}, {1: VertexField(0, 0), 2: VertexField(0, 0)})
    with pytest.raises(ValueError):
        SpinSystem(
            g,
            {(2, 1): ising_potential(0.1)},
            {1: VertexField(0, 0), 2: VertexField(0, 0)},
        )
    with pytest.raises(ValueError):
        SpinSystem(g, {(1, 2): ising_potential(0.1)}, {1: VertexField(0, 0)})
    # Keys of mixed types are listed by repr, since they do not compare.
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    p, f = ising_potential(0.1), VertexField(0, 0)
    with pytest.raises(ValueError) as info:
        SpinSystem(g, {(1, 2): p, "a": p, (5, 6): p}, {v: f for v in g.vertices()})
    assert str(info.value) == (
        "potential keys must be exactly the edge set keyed (u, v) with u < v; "
        "missing=[(3, 4)], unexpected=['a', (5, 6)]"
    )
    with pytest.raises(ValueError) as info:
        SpinSystem(g, {e: p for e in g.edges}, {v: f for v in (1, 2, "x", 7)})
    assert str(info.value) == (
        "field keys must be exactly the vertex set; missing=[3, 4], unexpected=['x', 7]"
    )


def test_compiled_rows_read_each_edge_both_ways():
    # compile_system is the one place a table is read against its key order:
    # row 1 holds the stored table read 1 -> 2, row 2 the same table read
    # 2 -> 1, with pm and mp swapped, and the test helper agrees with both.
    g = Graph.from_edges(2, [(1, 2)])
    sys_ = SpinSystem(
        g,
        {(1, 2): EdgePotential(1.0, 2.0, 3.0, 4.0)},
        {1: VertexField(0, 0), 2: VertexField(0, 0)},
    )
    compiled = compile_system(sys_)
    ((w_forward, forward, _),) = compiled.rows[1]
    ((w_backward, backward, _),) = compiled.rows[2]
    assert (w_forward, forward[2:6]) == (2, (1.0, 2.0, 3.0, 4.0))
    assert (w_backward, backward[2:6]) == (1, (1.0, 3.0, 2.0, 4.0))
    assert forward[:2] == (1.0 - 3.0, 2.0 - 4.0)
    assert backward[:2] == (1.0 - 2.0, 3.0 - 4.0)
    assert tuple(oriented(sys_, 1, 2)) == (1.0, 2.0, 3.0, 4.0)
    assert tuple(oriented(sys_, 2, 1)) == (1.0, 3.0, 2.0, 4.0)


RECORD_FIELDS = {
    "Graph": ("n", "edges", "adjacency"),
    "EdgePotential": ("pp", "pm", "mp", "mm"),
    "VertexField": ("h_plus", "h_minus"),
    "SpinSystem": ("graph", "potentials", "fields"),
    "SystemScalars": (
        "max_coupling", "degree_bound", "critical_coupling", "contraction",
    ),
    "CompiledSystem": (
        "n", "twice_field", "rows", "belows", "frontier", "errors", "spent", "settled",
    ),
    "VertexEstimate": ("vertex", "depth", "node_count", "p_hat", "allowance", "charge", "pinned"),
    "EstimateReport": (
        "log_z_hat", "eps", "log_weight_all_plus", "degree_bound", "max_coupling",
        "critical_coupling", "contraction", "truncation_depth", "vertices", "wall_time_s",
        "sweeps", "walked_nodes",
    ),
}


def test_records_are_immutable_values_of_their_own_class():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    system = SpinSystem(
        g, {e: ising_potential(0.2) for e in g.edges}, {v: ising_field(0.1) for v in g.vertices()}
    )
    report = fptas_log_partition(system, 0.1)
    records = [
        g, ising_potential(0.2), ising_field(0.1), system, system_scalars(system),
        compile_system(system), report.vertices[0], report,
    ]
    assert sorted(type(r).__name__ for r in records) == sorted(RECORD_FIELDS)
    for record in records:
        cls = type(record)
        assert record._fields == RECORD_FIELDS[cls.__name__]
        twin = cls(**dict(zip(record._fields, record)))
        assert twin == record and not twin != record
        assert record != tuple(record) and tuple(record) != record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert EdgePotential(1, 2, 3, 4) != EdgePotential(1, 2, 3, 5)
    assert hash(Graph.from_edges(2, [(2, 1)])) == hash(Graph.from_edges(2, [(1, 2)]))
    # Equal fields, different classes: unequal, as for dataclasses.
    assert EdgePotential(1, 2, 3, 4) != VertexEstimate(1, 2, 3, 4)
    assert ising_potential(0.2) == EdgePotential(pp=0.2, pm=-0.2, mp=-0.2, mm=0.2)
    entries = EdgePotential(1, np.float64(2.0), 3, 4) + VertexField(0, 1)
    assert [type(x) for x in entries] == [float] * 6


def test_int_beyond_float_range_is_not_finite():
    with pytest.raises(ValueError, match=r"^potential entry pp must be finite, got 1000"):
        EdgePotential(10**400, 0, 0, 0)
    with pytest.raises(ValueError, match=r"^field entry h_minus must be finite, got -1000"):
        VertexField(0, -(10**400))
    # Too many digits for repr: the message describes the int instead.
    with pytest.raises(ValueError, match=r"^potential entry pp must be finite, got an int of "):
        EdgePotential(10**5000, 0, 0, 0)
    assert EdgePotential(2**1023, 0, 0, 0).pp == 2.0**1023


def test_record_validation_messages():
    with pytest.raises(ValueError, match=r"^potential entry mp must be a number, got '1'$"):
        EdgePotential(0, 0, "1", 0)
    with pytest.raises(ValueError, match=r"^potential entry pp must be finite, got inf$"):
        EdgePotential(math.inf, 0, 0, 0)
    with pytest.raises(ValueError, match=r"^field entry h_plus must be a number, got True$"):
        VertexField(True, 0)
    with pytest.raises(ValueError, match=r"^field entry h_minus must be finite, got nan$"):
        VertexField(0.0, math.nan)
    g = Graph.from_edges(2, [(1, 2)])
    fields = {1: VertexField(0, 0), 2: VertexField(0, 0)}
    with pytest.raises(ValueError) as info:
        SpinSystem(g, {(2, 1): ising_potential(0.1)}, fields)
    assert str(info.value) == (
        "potential keys must be exactly the edge set keyed (u, v) with u < v; "
        "missing=[(1, 2)], unexpected=[(2, 1)]"
    )
    with pytest.raises(ValueError) as info:
        SpinSystem(g, {(1, 2): ising_potential(0.1)}, {1: fields[1], 3: fields[2]})
    assert str(info.value) == (
        "field keys must be exactly the vertex set; missing=[2], unexpected=[3]"
    )
