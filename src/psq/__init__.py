"""Power-sum quotient optimization and cubic-form positivity certificates.

The quotient

    Q(x, y) = (M1(x) - M1(y)) * (M2(y) - M2(x)) / (M3(x) + M3(y))

over pairs of positive vectors grows linearly with dimension at the
sharp rate c* = (7 sqrt 7 - 17)/27, and its suprema over balanced
splits decide membership of the equal-off-diagonal family in the cone
of cubic forms that are nonnegative on the positive orthant under
every sign pattern.
"""

from .cone import (
    BdReport,
    GeneralReport,
    MatrixSpec,
    MembershipReport,
    PsiWitness,
    all_split_threshold,
    b3_quartic_root,
    b3_radical,
    certify_general,
    check_diagonal_dominance,
    compute_bd,
    enumerate_sign_patterns,
    growth_lower_bound,
    membership_equal_offdiag,
    psi,
    psi_over_patterns,
    reduced_sign_pattern,
    sample_membership_general,
)
from .oracle import OracleResult, brute_force_sup, check_structured_shape
from .power_sums import (
    PowerSumTriple,
    QuotientValue,
    power_sums,
    q_ordered_nonpositive,
    quotient_q,
    quotient_q_batch,
    validate_positive_vector,
)
from .structured import (
    C_STAR,
    CONSTANTS,
    GAMMA_STAR,
    P_STAR,
    SQRT7,
    Constants,
    StructuredConfig,
    SupQResult,
    positivity_witness,
    reduced_objective,
    solve_reduced,
    sup_q,
    witness_vectors,
)
from .tables import (
    DEFAULT_TABLE2_DIMS,
    Table1Row,
    Table2Row,
    table1_rows,
    table2_rows,
    truncate3,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PowerSumTriple",
    "QuotientValue",
    "power_sums",
    "quotient_q",
    "quotient_q_batch",
    "q_ordered_nonpositive",
    "validate_positive_vector",
    "Constants",
    "CONSTANTS",
    "SQRT7",
    "C_STAR",
    "P_STAR",
    "GAMMA_STAR",
    "StructuredConfig",
    "SupQResult",
    "reduced_objective",
    "solve_reduced",
    "sup_q",
    "witness_vectors",
    "positivity_witness",
    "MatrixSpec",
    "PsiWitness",
    "MembershipReport",
    "GeneralReport",
    "BdReport",
    "psi",
    "psi_over_patterns",
    "enumerate_sign_patterns",
    "reduced_sign_pattern",
    "check_diagonal_dominance",
    "all_split_threshold",
    "membership_equal_offdiag",
    "certify_general",
    "sample_membership_general",
    "compute_bd",
    "growth_lower_bound",
    "b3_radical",
    "b3_quartic_root",
    "OracleResult",
    "brute_force_sup",
    "check_structured_shape",
    "Table1Row",
    "Table2Row",
    "truncate3",
    "table1_rows",
    "table2_rows",
    "DEFAULT_TABLE2_DIMS",
]
