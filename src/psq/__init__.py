"""Power-sum quotient optimization and cubic-form positivity certificates.

The quotient

    Q(x, y) = (M1(x) - M1(y)) * (M2(y) - M2(x)) / (M3(x) + M3(y))

over pairs of positive vectors grows linearly with dimension at the
sharp rate c* = (7 sqrt 7 - 17)/27, and its suprema over balanced
splits decide membership of the equal-off-diagonal family in the cone
of cubic forms that are nonnegative on the positive orthant under
every sign pattern.

The package exports each module's __all__.  Importing it leaves numpy
unloaded: the oracle, which needs numpy, loads on first use of its
names, and the other modules import numpy inside the functions that
work on arrays.
"""

from . import cone as _cone, power_sums as _power_sums, structured as _structured, tables as _tables
from .cone import *  # noqa: F403
from .power_sums import *  # noqa: F403
from .structured import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"

_ORACLE = ("OracleResult", "brute_force_sup", "check_structured_shape")

__all__ = [
    "__version__",
    *_power_sums.__all__,
    *_structured.__all__,
    *_cone.__all__,
    *_ORACLE,
    *_tables.__all__,
]


def __getattr__(name):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ORACLE))
