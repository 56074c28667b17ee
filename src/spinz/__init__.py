"""Deterministic approximation of two-state spin-system partition functions.

The estimator runs a telescoping product of conditional marginals, each
computed on a truncated self-avoiding-walk tree; when the interaction is
weak relative to the graph's maximum degree, truncation error decays
geometrically with depth and the total log Z error is certified below eps.
An exact brute-force oracle and a set of property checks back every claim
at small scale.

The package re-exports each submodule's ``__all__``.  Importing it loads
``core``, ``marginal``, ``partition`` and ``graphfile``, which are all the
estimate path needs, and only standard-library modules beside them.  The
names of ``sawtree``, ``families`` and ``oracle`` are exported lazily
(PEP 562): each of those modules loads the first time one of its names, or
the module itself, is looked up on the package.  So the walk-tree builder,
the generators with dataclasses and numpy, and the oracle stay off the
estimate path, and so does every function it never calls: one edge factor
and one conditional marginal live in ``sawtree``, the file writer in
``families``, the decay envelope in ``oracle``, and the command-line
parser and commands in ``commands``, which ``cli.main`` loads when it runs.
"""

import importlib

from . import core, graphfile, marginal, partition
from .core import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .partition import *  # noqa: F401,F403
from .graphfile import *  # noqa: F401,F403

__version__ = "0.1.0"

# The __all__ of each lazily loaded submodule.  It is kept here so that the
# names can be exported without importing the module, and each of those
# modules takes its __all__ from this table.
_LAZY_ALL = {
    "sawtree": (
        "SawNode",
        "SawTree",
        "edge_factor_log",
        "build_saw_tree",
        "tree_log_ratio",
        "conditional_marginal_estimate",
        "frontier_count",
        "format_saw_tree",
    ),
    "families": (
        "GenSpec",
        "generate",
        "build_family_graph",
        "attach_spin_model",
        "ising_system",
        "serialize_system",
        "save_system",
    ),
    "oracle": (
        "CheckReport",
        "exact_log_partition",
        "exact_conditional_marginal",
        "check_saw_identity",
        "check_contraction",
        "check_edge_factor_lipschitz",
        "decay_function",
        "measure_decay",
        "max_boundary_gap",
        "check_decay_geometric",
        "check_saw_identity_exhaustive",
        "check_saw_identity_random",
        "check_telescoping",
        "connected_graphs",
    ),
}

__all__ = [
    *core.__all__,
    *marginal.__all__,
    *partition.__all__,
    *graphfile.__all__,
    *(name for names in _LAZY_ALL.values() for name in names),
    "__version__",
]


def __getattr__(name: str):
    for module, names in _LAZY_ALL.items():
        if name == module or name in names:
            # Importing a submodule also binds it here, under its own name.
            loaded = importlib.import_module(f"{__name__}.{module}")
            globals().update((key, getattr(loaded, key)) for key in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
