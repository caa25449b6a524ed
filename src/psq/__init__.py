"""Power-sum quotient optimization and cubic-form positivity certificates.

The quotient

    Q(x, y) = (M1(x) - M1(y)) * (M2(y) - M2(x)) / (M3(x) + M3(y))

over pairs of positive vectors grows linearly with dimension at the
sharp rate c* = (7 sqrt 7 - 17)/27, and its suprema over balanced
splits decide membership of the equal-off-diagonal family in the cone
of cubic forms that are nonnegative on the positive orthant under
every sign pattern.

The package exports each module's __all__.  Importing it loads
power_sums alone, which every routine needs; every other public name
loads its module (structured, cone, oracle or tables) on first use, and
that module's names are then bound here, so later lookups are plain
attribute reads.  numpy stays unloaded until an array routine needs
it.
"""

from importlib import import_module

from . import power_sums as _power_sums
from .power_sums import *  # noqa: F403

__version__ = "0.1.0"

# The public names of each lazy module, in order; the modules read their __all__ from here.
_LAZY = {
    "structured": "SQRT7 C_STAR P_STAR GAMMA_STAR C_T P_T GAMMA_T ALPHA_T StructuredConfig SupQResult reduced_objective solve_reduced sup_q growth_blocks witness_vectors positivity_witness".split(),
    "cone": "MatrixSpec PsiWitness MembershipReport GeneralReport BdReport psi psi_over_patterns enumerate_sign_patterns reduced_sign_pattern all_split_threshold membership_equal_offdiag certify_general sample_membership_general compute_bd growth_lower_bound b3_radical".split(),
    "oracle": "OracleResult brute_force_sup check_structured_shape".split(),
    "tables": "Table1Row Table2Row truncate3 table1_rows table2_rows DEFAULT_TABLE2_DIMS TABLE1_DIMS".split(),
}
_OWNER = {name: mod for mod, names in _LAZY.items() for name in names}

__all__ = ["__version__", *_power_sums.__all__, *_OWNER]


def __getattr__(name):
    mod = _OWNER.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{mod}", __name__)
    globals().update((n, getattr(module, n)) for n in _LAZY[mod])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
