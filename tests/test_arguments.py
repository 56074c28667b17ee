"""Every count and real-number argument that the library checks refuses a
malformed value with a ValueError that names the argument, and keeps
taking its boundary values with the results it always gave.

A count is an int at or above its minimum; bools, floats, strings and None
are refused.  It may be of any size, unless it sizes an allocation: such a
count is refused above ``core.MAX_SIZE``, and so are the vertex pairs and
pairing stubs that a family builds from its counts.  A real is an int or
float that is finite as a float, so an int beyond the float range is
refused too.  The cases (``ARGUMENTS``, ``CASES``, ``SIZE_CASES``,
``PRODUCTS``) and their verdict (``refusal``) are plain data and functions
that touch neither numpy nor pytest, and loading this module loads no
numpy: the oversized counts are refused in a child process whose address
space is capped, so that a regression that allocates first fails in
seconds instead of exhausting the machine's memory.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

import spinz
from spinz import Graph, critical_inverse_temperature, fptas_log_partition, truncation_depth
from spinz.core import MAX_SIZE
from spinz.families import build_family_graph, ising_system
from spinz.sawtree import build_saw_tree, conditional_marginal_estimate, frontier_count

HUGE = 10**400
CYCLE = ising_system(build_family_graph("cycle", n=5), 0.3, 0.1)
TREE = build_saw_tree(CYCLE, 1, 3)


def _graph(family, **kwargs):
    return build_family_graph(family, seed=1, **kwargs).edges


# id: (the argument's name, "count", "size" (a count that sizes an
# allocation) or "real", the call with the value in the argument's place,
# ((boundary value, its result), ...)), pairs because 1 and 1.0 would be
# one dict key.  The oracle's decay_function is looked up when called.
ARGUMENTS = {
    "Graph.from_edges.n": ("n", "size", lambda v: Graph.from_edges(v).n, ((0, 0),)),
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
        "distance", "count", lambda v: spinz.decay_function(v, 0.3, 3),
        ((1, 3.5999999999999996), (HUGE, 0.0)),
    ),
    "decay_function.coupling": (
        "coupling", "real", lambda v: spinz.decay_function(3, v, 3), ((0, 0.0), (2.5, 116.80893279802073)),
    ),
    "decay_function.degree": ("degree", "count", lambda v: spinz.decay_function(3, 0.3, v), ((1, 0.0),)),
    "path.n": ("n", "size", lambda v: _graph("path", n=v), ((1, ()),)),
    "cycle.n": ("n", "size", lambda v: _graph("cycle", n=v), ((3, ((1, 2), (1, 3), (2, 3))),)),
    "grid.rows": ("rows", "size", lambda v: _graph("grid", rows=v, cols=2), ((1, ((1, 2),)),)),
    "grid.cols": ("cols", "size", lambda v: _graph("grid", rows=2, cols=v), ((1, ((1, 2),)),)),
    "complete.n": ("n", "size", lambda v: _graph("complete", n=v), ((1, ()),)),
    "random_regular.n": ("n", "size", lambda v: _graph("random_regular", n=v, degree=0), ((1, ()),)),
    "random_regular.degree": (
        "degree", "count", lambda v: _graph("random_regular", n=4, degree=v),
        ((0, ()), (1, ((1, 3), (2, 4))), (1.0, ((1, 3), (2, 4)))),
    ),
    "erdos_renyi.n": ("n", "size", lambda v: _graph("erdos_renyi", n=v, degree=1.0), ((0, ()),)),
    "erdos_renyi.degree": (
        "degree", "real", lambda v: _graph("erdos_renyi", n=4, degree=v),
        ((0, ()), (2.5, ((1, 3), (2, 3), (2, 4)))),
    ),
}

MALFORMED = {"True": True, "'3'": "3", "nan": math.nan, "inf": math.inf, "None": None}
MALFORMED_COUNT = {**MALFORMED, "2.5": 2.5}
MALFORMED_REAL = {**MALFORMED, "10**400": HUGE}
OVERSIZED = {"10**400": HUGE, "MAX_SIZE+1": MAX_SIZE + 1}
# id: (the argument the refusal names, the call): counts within the maximum
# whose pairs, stubs or rows * cols are not.
PRODUCTS = {
    "grid.rows*cols": ("rows", lambda: build_family_graph("grid", rows=1001, cols=1000)),
    "complete.pairs": ("n", lambda: build_family_graph("complete", n=1415)),
    "erdos_renyi.pairs": ("n", lambda: build_family_graph("erdos_renyi", n=1415, degree=1.0)),
    "random_regular.stubs": ("degree", lambda: build_family_graph("random_regular", n=500_001, degree=2)),
}


def malformed_cases(values):
    """(id, argument, value) for every argument and each value of ``values``
    (a kind's malformed values by name) for its kind."""
    for argument, (_, kind, _, _) in ARGUMENTS.items():
        for label, value in values(kind).items():
            yield f"{argument}-{label}", argument, value


def refused(name, call, *args) -> str | None:
    """Why ``call(*args)`` is not refused as it should be; None when it ends
    in a ValueError whose message names ``name``."""
    try:
        result = call(*args)
    except ValueError as err:
        return None if re.search(rf"\b{name}\b", str(err)) else f"message does not name {name}: {err}"
    except Exception as err:  # noqa: BLE001  (the failure is what the case reports)
        return f"{type(err).__name__}: {err}"
    return f"returned {result!r}"


def refusal(argument, value) -> str | None:
    """``refused`` for the argument's call with ``value`` in its place."""
    name, _, call, _ = ARGUMENTS[argument]
    return refused(name, call, value)


CASES = list(malformed_cases(lambda kind: MALFORMED_REAL if kind == "real" else MALFORMED_COUNT))
SIZE_CASES = list(malformed_cases(lambda kind: OVERSIZED if kind == "size" else {}))


def size_problems() -> list[str]:
    """"id: why" for each oversized count, and each product, not refused
    by name."""
    found = [(case_id, refusal(argument, value)) for case_id, argument, value in SIZE_CASES]
    found += [(case_id, refused(name, call)) for case_id, (name, call) in PRODUCTS.items()]
    return [f"{case_id}: {problem}" for case_id, problem in found if problem]


# Run by a fresh interpreter with two arguments: cap the address space at
# the first, in bytes, load this module from the second, and print whether
# numpy got loaded and the size problems.
_SIZE_CHILD = """
import importlib.util, json, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
spec = importlib.util.spec_from_file_location("arguments", sys.argv[2])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps({"numpy": "numpy" in sys.modules, "problems": module.size_problems()}))
"""


@pytest.mark.parametrize("argument, value", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_malformed_argument_is_refused_by_name(argument, value):
    assert refusal(argument, value) is None


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_boundary_values_keep_their_results(argument):
    _, _, call, boundary = ARGUMENTS[argument]
    assert tuple((value, call(value)) for value, _ in boundary) == boundary


def test_oversized_counts_are_refused_before_allocating():
    # 256 MB of address space fits this module and its imports (64 MB
    # does), but not a graph of MAX_SIZE vertices, which takes about 400
    # MB: a count refused only after its allocation raises MemoryError
    # within seconds.
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinz.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _SIZE_CHILD, str(256 << 20), __file__]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"numpy": False, "problems": []}


def test_counts_beyond_the_float_range_in_float_arithmetic():
    # The float-range answer where there is one, else a ValueError naming
    # the count; never an OverflowError.
    from spinz.oracle import decay_function

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
        spinz.exact_log_partition(CYCLE, {1: spin})
