"""The result types: immutable NamedTuples whose JSON layout is pinned."""

import pytest

from psq import (
    MatrixSpec,
    brute_force_sup,
    certify_general,
    compute_bd,
    membership_equal_offdiag,
    power_sums,
    quotient_q,
    sup_q,
    table1_rows,
    table2_rows,
)

_M4 = [[1.0 if i == j else 0.3 for j in range(4)] for i in range(4)]

# Each type with one instance and the keys of its to_json_dict(), in the
# order the CLI prints them, or of _asdict() for a type with no JSON form.
RESULTS = {
    "PowerSumTriple": (lambda: power_sums([1, 2]), ["m1", "m2", "m3"]),
    "QuotientValue": (lambda: quotient_q([1, 2], [3]), ["value", "s1", "s2", "s3"]),
    "StructuredConfig": (lambda: sup_q(3, 3).maximizing_config, ["i", "m", "gamma", "side", "q_value"]),
    "SupQResult": (lambda: sup_q(3, 3), ["n_x", "n_y", "sup_value", "maximizing_config", "attained"]),
    "MatrixSpec": (lambda: MatrixSpec(4, 0.3), ["d", "b"]),
    "PsiWitness": (lambda: membership_equal_offdiag(4, 0.99).witness, ["z", "s", "psi"]),
    "MembershipReport": (
        lambda: membership_equal_offdiag(4, 0.99),
        ["d", "b", "b_d", "verdict", "margin", "witness"],
    ),
    "GeneralReport": (
        lambda: certify_general(_M4),
        ["d", "verdict", "method", "n_evaluated", "witness", "diagnostics"],
    ),
    "BdReport": (
        lambda: compute_bd(5),
        ["d", "b_d", "sup_value", "split", "lower_bound", "asymptotic", "witness_upper", "exact"],
    ),
    "Table1Row": (lambda: table1_rows()[0], ["d", "lower_bound", "b_d"]),
    "Table2Row": (lambda: table2_rows([50])[0], ["d", "lower_bound", "witness_upper", "asymptotic"]),
    "OracleResult": (
        lambda: brute_force_sup(2, 1, n_starts=8),
        ["n_x", "n_y", "best_value", "best_x", "best_y", "n_starts", "converged_fraction", "fd_grad_sup"],
    ),
}


def _scribble(value):
    """Mutate every list and dict nested in value, in place."""
    if isinstance(value, dict):
        for v in value.values():
            _scribble(v)
        value["scribbled"] = True
    elif isinstance(value, list):
        for v in value:
            _scribble(v)
        value.append("scribbled")


@pytest.mark.parametrize("name", RESULTS)
def test_result_type(name):
    make, keys = RESULTS[name]
    res = make()
    assert type(res).__name__ == name
    with pytest.raises(AttributeError):
        setattr(res, res._fields[0], None)
    with pytest.raises(AttributeError):
        res.unknown_field = None
    to_dict = getattr(res, "to_json_dict", res._asdict)
    doc = to_dict()
    assert list(doc) == keys
    before, text = repr(res), repr(doc)
    _scribble(doc)
    assert repr(res) == before and repr(to_dict()) == text


def test_general_report_diagnostics_are_copied():
    rep = certify_general(_M4)
    assert rep.method == "perturbation"
    rep.to_json_dict()["diagnostics"]["b"] = None
    assert rep.diagnostics["b"] is not None
