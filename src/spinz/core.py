"""Core types for two-state spin systems on finite graphs.

A spin system attaches a 2x2 table of pair log-weights to every edge and a
2-entry log-weight table to every vertex.  The scalars derived from those
tables (per-edge interaction strength, per-vertex external field, and their
extremes) decide whether the correlation-decay machinery in the rest of the
package applies, and how fast it converges: ``interaction_strength`` owns
J, ``SystemScalars.at`` the rate and ``decay_condition_holds`` the verdict.
The decay envelope they give, ``oracle.decay_function``, lives with the
checks that measure it, off the estimate path.

Each fact is checked once, here, and the rest of the package shares the
checks: ``_finite`` every number (an int beyond the float range is not
finite) and ``_real`` every one with a sign rule, ``_count`` every count,
and every count that sizes an allocation against ``MAX_SIZE``,
``Graph.from_edges`` every edge's labels, self-loops and duplicates.

The records here are namedtuple subclasses rather than dataclasses: they
are defined on every import, and a namedtuple class costs a tenth of a
frozen dataclass to define.  Like frozen dataclasses they are immutable
and equal only to records of the same class with equal fields.
"""

from __future__ import annotations

import enum
import math
from collections import deque, namedtuple
from collections.abc import Iterable, Mapping

__all__ = [
    "Spin",
    "Graph",
    "EdgePotential",
    "VertexField",
    "SpinSystem",
    "SystemScalars",
    "DecayConditionError",
    "Condition",
    "checked_condition",
    "interaction_strength",
    "external_field",
    "critical_inverse_temperature",
    "system_scalars",
    "decay_condition_holds",
    "ising_potential",
    "ising_field",
]


class Spin(enum.IntEnum):
    """A two-valued spin, +1 or -1."""

    PLUS = 1
    MINUS = -1

    def __str__(self) -> str:
        return "+" if self is Spin.PLUS else "-"


class DecayConditionError(Exception):
    """The couplings are too strong for the contraction guarantee.

    Raised instead of silently producing an estimate without an accuracy
    guarantee.  Takes the ``SystemScalars`` that fail the condition and
    keeps their four fields as attributes.
    """

    def __init__(self, scalars: "SystemScalars"):
        self.contraction = scalars.contraction
        self.max_coupling = scalars.max_coupling
        self.critical_coupling = scalars.critical_coupling
        self.degree_bound = scalars.degree_bound
        super().__init__(
            f"decay condition violated: (degree_bound - 1) * tanh(max_coupling) = "
            f"{self.contraction:.6g} >= 1 (max_coupling={self.max_coupling}, "
            f"critical_coupling={self.critical_coupling}, degree_bound={self.degree_bound})"
        )

    def __reduce__(self):  # pickle rebuilds the error from its scalars, not its message
        fields = self.max_coupling, self.degree_bound, self.critical_coupling, self.contraction
        return type(self), (SystemScalars(*fields),)


def _shown(value) -> str:
    """``repr(value)`` for an error message, or a description of an int with
    more digits than str conversion allows."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def _check_label(v, n: int) -> None:
    if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= n:
        raise ValueError(f"unknown vertex label {_shown(v)} (valid labels are 1..{n})")


Condition = dict[int, Spin]
"""A partial assignment of spins to vertex labels; empty means unconditioned.
Functions that take one check it with ``checked_condition``."""


def checked_condition(n: int, root, condition: Mapping[int, Spin] | None) -> Condition:
    """Validate a condition, and a walk's root label unless ``root`` is None,
    against a graph on n vertices.

    Every label must be an int in 1..n (bools are refused), and the root
    must be free: a conditioned root has a pinned marginal.  Returns the
    condition as a new dict whose values are ``Spin``.
    """
    if root is not None:
        _check_label(root, n)
    cond: Condition = {}
    for vertex, spin in (condition or {}).items():
        if isinstance(vertex, bool) or not isinstance(vertex, int) or vertex < 1:
            raise ValueError(f"vertex label must be a positive integer, got {_shown(vertex)}")
        if vertex > n:
            raise ValueError(
                f"conditioned vertex {_shown(vertex)} is not in the graph (valid labels are 1..{n})"
            )
        if isinstance(spin, (bool, float)):  # Spin(True) and Spin(1.0) would be Spin.PLUS
            raise ValueError(f"{spin!r} is not a valid Spin")
        cond[vertex] = Spin(spin)
    if root in cond:
        raise ValueError(f"vertex {root} is conditioned; its marginal is pinned")
    return cond


class Record:
    """Base of the package's records, placed before a namedtuple in the bases.

    A record equals only another record of the same class with equal fields,
    never a plain tuple, and it takes no attributes beyond its fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        # False, not NotImplemented, or the tuple's own __eq__ would be tried.
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__


def _finite(value, where: str, index: int = 0) -> float:
    """``value`` as a finite float.  ``where`` names the value in the error,
    with ``{}`` standing for ``index``; it is formatted only on failure.  An
    int beyond the float range is not finite."""
    if type(value) is float and value - value == 0.0:  # finite: inf - inf and nan are nan
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where.format(index)} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if number - number != 0.0:
        raise ValueError(f"{where.format(index)} must be finite, got {_shown(value)}")
    return number


def _real(value, where: str, positive: bool = False):
    """``value``, unchanged, if ``_finite`` takes it and it is at least 0 (above
    0 when ``positive``); otherwise a ValueError that names it as ``where``."""
    try:
        number = _finite(value, where)
    except ValueError:
        number = math.nan
    if not (number > 0.0 if positive else number >= 0.0):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{where} must be a {sign} finite number, got {_shown(value)}")
    return value


MAX_SIZE = 10**6
"""The most vertices, vertex pairs or pairing stubs a graph is built from:
``_count`` refuses a larger count that sizes an allocation before it is made."""


def _count(value, where: str, minimum: int = 0, maximum: float = math.inf) -> int:
    """``value`` if it is an int in ``minimum``..``maximum``, of any size by
    default; else a ValueError that names it as ``where``.  Bools are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{where} must be an integer >= {minimum}, got {_shown(value)}")
    if value > maximum:
        raise ValueError(f"{where} must be at most {maximum}, got {_shown(value)}")
    return value


class Graph(Record, namedtuple("Graph", "n edges adjacency")):
    """Simple undirected graph on vertices labeled 1..n.

    Labels are contiguous and meaningful: the cycle-closing rule of the walk
    tree and the vertex sweep of the partition estimator both read them.
    Neighbor lists are kept sorted so that constructions iterating over them
    are deterministic.  ``edges`` holds (u, v) pairs with u < v in sorted
    order, and ``adjacency[v - 1]`` the sorted neighbours of v.
    """

    __slots__ = ()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Build and validate a graph from (u, v) pairs in either orientation.

        Rejects n above ``MAX_SIZE``, labels outside 1..n, self-loops and
        duplicates, naming the offending pair (``edges[3]: self-loop at vertex 2``).
        """
        _count(n, "n", maximum=MAX_SIZE)
        adjacency: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for i, (u, v) in enumerate(edges):
            try:
                _check_label(u, n)
                _check_label(v, n)
            except ValueError as exc:
                raise ValueError(f"edges[{i}]: {exc}") from None
            if u == v:
                raise ValueError(f"edges[{i}]: self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"edges[{i}]: duplicate edge {key}")
            seen.add(key)
            adjacency[u - 1].append(v)
            adjacency[v - 1].append(u)
        return cls(n, tuple(sorted(seen)), tuple(tuple(sorted(nbrs)) for nbrs in adjacency))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def distances_from(self, v: int) -> dict[int, int]:
        """Breadth-first distances from v; unreachable vertices are absent."""
        _check_label(v, self.n)
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u - 1]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def vertices_at_distance(self, v: int, distance: int) -> tuple[int, ...]:
        """Sorted labels of vertices at graph distance exactly `distance` from v."""
        _count(distance, "distance")
        dist = self.distances_from(v)
        return tuple(sorted(u for u, d in dist.items() if d == distance))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return len(self.distances_from(1)) == self.n


class EdgePotential(Record, namedtuple("EdgePotential", "pp pm mp mm")):
    """Log-weights of the four spin pairs across an edge.

    Entries are read in a fixed orientation (first endpoint, second endpoint):
    pp is (+, +), pm is (+, -), mp is (-, +), mm is (-, -).  Read from the
    second endpoint, the same edge swaps pm and mp.  All entries must be
    finite; hard constraints are out of scope.  They are stored as floats.
    """

    __slots__ = ()

    def __new__(cls, pp: float, pm: float, mp: float, mm: float):
        return super().__new__(
            cls,
            _finite(pp, "potential entry pp"),
            _finite(pm, "potential entry pm"),
            _finite(mp, "potential entry mp"),
            _finite(mm, "potential entry mm"),
        )

    def value(self, first: Spin, second: Spin) -> float:
        first = Spin(first)
        second = Spin(second)
        if first is Spin.PLUS:
            return self.pp if second is Spin.PLUS else self.pm
        return self.mp if second is Spin.PLUS else self.mm


class VertexField(Record, namedtuple("VertexField", "h_plus h_minus")):
    """Log-weights of the two spins at a vertex, finite and stored as floats."""

    __slots__ = ()

    def __new__(cls, h_plus: float, h_minus: float):
        return super().__new__(
            cls, _finite(h_plus, "field entry h_plus"), _finite(h_minus, "field entry h_minus")
        )

    def value(self, spin: Spin) -> float:
        return self.h_plus if Spin(spin) is Spin.PLUS else self.h_minus


def _keyed(keys, given: Mapping, what: str) -> dict:
    """``given`` copied into a new dict in the order of ``keys``, or a
    ValueError that begins with ``what`` unless its keys are exactly ``keys``."""
    given = dict(given)  # first, or a defaultdict's lookup would add a missing key
    try:
        ordered = {key: given[key] for key in keys}
        if len(ordered) == len(given):
            return ordered
    except KeyError:
        pass
    expected, got = set(keys), set(given)
    raise ValueError(
        f"{what}; missing={_listed(expected - got)}, unexpected={_listed(got - expected)}"
    )


def _listed(keys: set) -> list:
    """``keys`` sorted for an error message; by repr where they do not compare."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=repr)


class SpinSystem(Record, namedtuple("SpinSystem", "graph potentials fields")):
    """A graph plus one potential per edge and one field per vertex.

    Potentials are keyed by (u, v) with u < v and read in that orientation;
    ``marginal.compile_system`` makes the reverse reading.  The two
    mappings are copied into new dicts in label order: potentials in the
    order of ``graph.edges``, fields 1..n.  Every sum over the tables runs
    in that order, so equal systems give equal reports, whatever order
    their mappings or files listed the tables in.
    """

    __slots__ = ()

    def __new__(
        cls,
        graph: Graph,
        potentials: Mapping[tuple[int, int], EdgePotential],
        fields: Mapping[int, VertexField],
    ):
        potentials = _keyed(
            graph.edges, potentials,
            "potential keys must be exactly the edge set keyed (u, v) with u < v",
        )
        fields = _keyed(graph.vertices(), fields, "field keys must be exactly the vertex set")
        return super().__new__(cls, graph, potentials, fields)

    @property
    def n(self) -> int:
        return self.graph.n


def interaction_strength(potential: EdgePotential) -> float:
    """Quarter alternating sum of the table entries.

    Zero means the edge factor is constant; the sign distinguishes
    aligning from anti-aligning edges.  Adding a constant to every entry
    leaves it unchanged.  Quartered first, so no finite table overflows,
    and symmetric in pm and mp, so a table and its transpose give one
    value, exactly 0.0 when pp + mm == pm + mp.
    """
    return (potential.pp / 4.0 + potential.mm / 4.0) - (potential.pm / 4.0 + potential.mp / 4.0)


def external_field(field: VertexField) -> float:
    """Half the spread between the two vertex log-weights, halved first
    so that no finite field overflows."""
    return field.h_plus / 2.0 - field.h_minus / 2.0


def critical_inverse_temperature(degree: int) -> float:
    """Coupling threshold for a given degree: 0.5 * log(degree / (degree - 2)).

    Below this value the per-edge contraction factor (degree - 1) * tanh(J)
    stays under 1.  Degrees 2 and below never contract away, so the
    threshold is +inf there.
    """
    if _count(degree, "degree") <= 2:
        return math.inf
    return 0.5 * math.log(degree / (degree - 2))


class SystemScalars(
    Record,
    namedtuple(
        "SystemScalars",
        "max_coupling degree_bound critical_coupling contraction",
    ),
):
    """Derived scalars of a system: ``max_coupling``, the largest
    ``|interaction_strength|`` of an edge (0 without edges), ``degree_bound``,
    the graph's maximum degree d, and ``contraction``,
    (d - 1) * tanh(max_coupling) floored at 0."""

    __slots__ = ()

    @classmethod
    def at(cls, max_coupling: float, degree_bound: int) -> "SystemScalars":
        """The scalars at a coupling and a degree bound, with the rate."""
        contraction = (_finite(degree_bound, "degree") - 1.0) * math.tanh(max_coupling)
        if contraction <= 0.0:
            contraction = 0.0
        return cls(max_coupling, degree_bound, critical_inverse_temperature(degree_bound), contraction)


def system_scalars(system: SpinSystem) -> SystemScalars:
    """The largest coupling of the system and the contraction factor at d,
    the maximum degree of its graph."""
    couplings = (abs(interaction_strength(p)) for p in system.potentials.values())
    return SystemScalars.at(max(couplings, default=0.0), system.graph.max_degree())


def decay_condition_holds(scalars: SystemScalars) -> bool:
    """Whether the contraction factor is strictly below 1."""
    return scalars.contraction < 1.0


def ising_potential(coupling: float) -> EdgePotential:
    """Symmetric pair table coupling * s1 * s2."""
    return EdgePotential(coupling, -coupling, -coupling, coupling)


def ising_field(strength: float) -> VertexField:
    """Vertex table strength * s."""
    return VertexField(strength, -strength)
