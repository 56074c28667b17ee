"""Every count and real-number argument that the library checks refuses a
malformed value with a ValueError that names the argument, and keeps
taking its boundary values with the results it always gave.

A count is an int of any size at or above its minimum; bools, floats,
strings and None are refused.  A real is an int or float that is finite
as a float, so an int beyond the float range is refused too.  The cases
(``ARGUMENTS``, ``CASES``) and their verdict (``refusal``) are plain data
and functions that touch neither numpy nor pytest, so a script can also run
them on an interpreter without those packages.
"""

from __future__ import annotations

import math
import re

import pytest

from spinz import Graph, critical_inverse_temperature, fptas_log_partition, truncation_depth
from spinz.families import build_family_graph, ising_system
from spinz.oracle import decay_function, exact_log_partition
from spinz.sawtree import build_saw_tree, conditional_marginal_estimate, frontier_count

HUGE = 10**400
CYCLE = ising_system(build_family_graph("cycle", n=5), 0.3, 0.1)
TREE = build_saw_tree(CYCLE, 1, 3)


def _graph(family, **kwargs):
    return build_family_graph(family, seed=1, **kwargs).edges


# id: (the argument's name, "count" or "real", the call with the value in
# the argument's place, ((boundary value, its result), ...)), pairs because
# 1 and 1.0 would be one dict key.  HUGE stays out of the counts that size
# an allocation, which would build that many lists.
ARGUMENTS = {
    "Graph.from_edges.n": ("n", "count", lambda v: Graph.from_edges(v).n, ((0, 0),)),
    "Graph.vertices_at_distance.distance": (
        "distance", "count", lambda v: CYCLE.graph.vertices_at_distance(1, v), ((0, (1,)), (HUGE, ())),
    ),
    "critical_inverse_temperature.degree": (
        "degree", "count", critical_inverse_temperature, ((0, math.inf), (HUGE, 0.0)),
    ),
    "fptas_log_partition.eps": (
        "eps", "real", lambda v: fptas_log_partition(CYCLE, v).log_z_hat.hex(),
        ((2.5, "0x1.eb05f26493e98p+1"), (3, "0x1.eb05f26493e98p+1")),
    ),
    "truncation_depth.n": ("n", "count", lambda v: truncation_depth(v, 0.3, 3, 0.1), ((1, 2),)),
    "truncation_depth.coupling": (
        "coupling", "real", lambda v: truncation_depth(5, v, 3, 0.1), ((0, 1), (0.0, 1), (1e-320, 1)),
    ),
    "truncation_depth.degree": ("degree", "count", lambda v: truncation_depth(5, 0.3, v, 0.1), ((0, 1),)),
    "truncation_depth.eps": ("eps", "real", lambda v: truncation_depth(5, 0.3, 3, v), ((2.5, 1),)),
    "build_saw_tree.depth_limit": (
        "depth_limit", "count", lambda v: build_saw_tree(CYCLE, 1, v).node_count, ((0, 1), (HUGE, 11)),
    ),
    "conditional_marginal_estimate.depth": (
        "depth", "count", lambda v: conditional_marginal_estimate(CYCLE, 1, depth=v).hex(),
        ((1, "0x1.27027cd30d4b2p-1"), (HUGE, "0x1.2dc9f28c74df4p-1")),
    ),
    "frontier_count.level": ("level", "count", lambda v: frontier_count(TREE, v), ((0, 1), (3, 2))),
    "decay_function.distance": (
        "distance", "count", lambda v: decay_function(v, 0.3, 3), ((1, 3.5999999999999996), (HUGE, 0.0)),
    ),
    "decay_function.coupling": (
        "coupling", "real", lambda v: decay_function(3, v, 3), ((0, 0.0), (2.5, 116.80893279802073)),
    ),
    "decay_function.degree": ("degree", "count", lambda v: decay_function(3, 0.3, v), ((1, 0.0),)),
    "path.n": ("n", "count", lambda v: _graph("path", n=v), ((1, ()),)),
    "cycle.n": ("n", "count", lambda v: _graph("cycle", n=v), ((3, ((1, 2), (1, 3), (2, 3))),)),
    "grid.rows": ("rows", "count", lambda v: _graph("grid", rows=v, cols=2), ((1, ((1, 2),)),)),
    "grid.cols": ("cols", "count", lambda v: _graph("grid", rows=2, cols=v), ((1, ((1, 2),)),)),
    "complete.n": ("n", "count", lambda v: _graph("complete", n=v), ((1, ()),)),
    "random_regular.n": ("n", "count", lambda v: _graph("random_regular", n=v, degree=0), ((1, ()),)),
    "random_regular.degree": (
        "degree", "count", lambda v: _graph("random_regular", n=4, degree=v),
        ((0, ()), (1, ((1, 3), (2, 4))), (1.0, ((1, 3), (2, 4)))),
    ),
    "erdos_renyi.n": ("n", "count", lambda v: _graph("erdos_renyi", n=v, degree=1.0), ((0, ()),)),
    "erdos_renyi.degree": (
        "degree", "real", lambda v: _graph("erdos_renyi", n=4, degree=v),
        ((0, ()), (2.5, ((1, 3), (2, 3), (2, 4)))),
    ),
}

MALFORMED = {"True": True, "'3'": "3", "nan": math.nan, "inf": math.inf, "None": None}
MALFORMED_COUNT = {**MALFORMED, "2.5": 2.5}
MALFORMED_REAL = {**MALFORMED, "10**400": HUGE}


def malformed_cases():
    """(id, argument, value) for every argument and each value malformed for its kind."""
    for argument, (_, kind, _, _) in ARGUMENTS.items():
        for label, value in (MALFORMED_COUNT if kind == "count" else MALFORMED_REAL).items():
            yield f"{argument}-{label}", argument, value


def refusal(argument, value) -> str | None:
    """Why the call is not refused as it should be; None when it ends in a
    ValueError whose message names the argument."""
    name, _, call, _ = ARGUMENTS[argument]
    try:
        result = call(value)
    except ValueError as err:
        return None if re.search(rf"\b{name}\b", str(err)) else f"message does not name {name}: {err}"
    except Exception as err:  # noqa: BLE001  (the failure is what the case reports)
        return f"{type(err).__name__}: {err}"
    return f"returned {result!r}"


CASES = list(malformed_cases())


@pytest.mark.parametrize("argument, value", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_malformed_argument_is_refused_by_name(argument, value):
    assert refusal(argument, value) is None


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_boundary_values_keep_their_results(argument):
    _, _, call, boundary = ARGUMENTS[argument]
    assert tuple((value, call(value)) for value, _ in boundary) == boundary


def test_counts_beyond_the_float_range_in_float_arithmetic():
    # The float-range answer where there is one, else a ValueError naming
    # the count; never an OverflowError.
    assert decay_function(HUGE, 0.3, 3) == 0.0  # rate 0.58 raised that high
    assert decay_function(HUGE, 0.0, 3) == 0.0
    assert decay_function(HUGE, 0.9, 5) == math.inf  # rate above 1
    assert decay_function(HUGE, 0.9, 1) == 0.0  # rate 0
    with pytest.raises(ValueError, match=r"^n \* degree must be finite, got 30{400}$"):
        truncation_depth(HUGE, 0.3, 3, 0.1)
    with pytest.raises(ValueError, match=r"^degree must be finite, got 10{400}$"):
        truncation_depth(5, 0.3, HUGE, 0.1)
    with pytest.raises(ValueError, match=r"^degree must be finite, got 10{400}$"):
        decay_function(3, 0.3, HUGE)
    assert truncation_depth(HUGE, 0.0, 3, 0.1) == 1  # zero coupling needs no product


@pytest.mark.parametrize("spin", [True, False, 1.0, -1.0, 2, 0])
def test_condition_spins_must_be_plus_or_minus_one(spin):
    with pytest.raises(ValueError, match=r"^\S+ is not a valid Spin$"):
        exact_log_partition(CYCLE, {1: spin})
