"""Deterministic approximation of two-state spin-system partition functions.

The estimator runs a telescoping product of conditional marginals, each
computed on a truncated self-avoiding-walk tree; when the interaction is
weak relative to the degree bound, truncation error decays geometrically
with depth and the total log Z error is certified below eps.  An exact
brute-force oracle and a set of property checks back every claim at small
scale.

The package re-exports each submodule's ``__all__``.  Importing it loads
only the standard library: the oracle's names are exported lazily
(PEP 562), so ``spinz.oracle`` and numpy load the first time one of them is
used.
"""

from . import core, marginal, partition, sawtree
from . import generate as _generate
from .core import *  # noqa: F401,F403
from .sawtree import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .partition import *  # noqa: F401,F403
# Last, so that ``spinz.generate`` is the function, not the module.
from .generate import *  # noqa: F401,F403

__version__ = "0.1.0"

# spinz.oracle's __all__, kept here so the names can be exported without
# importing it.
_ORACLE_ALL = (
    "CheckReport",
    "exact_log_partition",
    "exact_conditional_marginal",
    "check_saw_identity",
    "check_contraction",
    "check_edge_factor_lipschitz",
    "check_decay_bound",
    "max_boundary_gap",
    "check_decay_geometric",
    "check_saw_identity_exhaustive",
    "check_saw_identity_random",
    "check_telescoping",
    "connected_graphs",
)

__all__ = [
    *core.__all__,
    *sawtree.__all__,
    *marginal.__all__,
    *partition.__all__,
    *_generate.__all__,
    *_ORACLE_ALL,
    "__version__",
]


def __getattr__(name: str):
    if name in _ORACLE_ALL:
        from . import oracle

        globals().update((key, getattr(oracle, key)) for key in _ORACLE_ALL)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
