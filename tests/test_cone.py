import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psq import all_split_threshold
from psq.cone import (
    MatrixSpec,
    _growth_estimates,
    b3_quartic_root,
    b3_radical,
    certify_general,
    check_diagonal_dominance,
    compute_bd,
    enumerate_sign_patterns,
    membership_equal_offdiag,
    psi,
    psi_over_patterns,
    reduced_sign_pattern,
    sample_membership_general,
)
from psq.power_sums import quotient_q
from psq.structured import C_STAR, GAMMA_STAR, P_STAR, sup_q, witness_vectors

# Thresholds frozen from an independent run of the structured maximizer.
FROZEN_BD = {
    2: 1.0,
    3: 0.9623649861142065,
    4: 0.9623649861142065,
    5: 0.9026013310604213,
    6: 0.9026013310604213,
    7: 0.8469643269912074,
    8: 0.8469643269912074,
    9: 0.7988694414707767,
    10: 0.7988694414707767,
    11: 0.7576561737215454,
    12: 0.7576561737215454,
}


class TestMatrixSpec:
    def test_equal_offdiag_dense(self):
        m = MatrixSpec.equal_off_diagonal(3, 0.5).dense()
        assert np.array_equal(m, np.array([[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]))

    def test_rejects_bad_b_and_d(self):
        for d, b in ((1, 0.5), (3, -0.1), (3, 1.5), (3, float("nan"))):
            with pytest.raises(ValueError):
                MatrixSpec.equal_off_diagonal(d, b)

    def test_general_validation(self):
        with pytest.raises(ValueError):
            MatrixSpec.general([[1.0, 2.0]])
        with pytest.raises(ValueError):
            MatrixSpec.general([[1.0]])
        with pytest.raises(ValueError):
            MatrixSpec.general([[1.0, float("inf")], [0.0, 1.0]])

    def test_json_round_trip(self):
        a = MatrixSpec.equal_off_diagonal(4, 0.9)
        assert MatrixSpec.from_json_dict(a.to_json_dict()) == a
        b = MatrixSpec.general([[2.0, 0.1], [0.3, 2.0]])
        assert MatrixSpec.from_json_dict(b.to_json_dict()) == b
        assert json.loads(json.dumps(b.to_json_dict())) == b.to_json_dict()

    def test_from_json_rejects_garbage(self):
        for bad in ({}, {"d": 3}, {"b": 0.5}, {"d": 3, "entries": [[1.0, 0], [0, 1.0]]}, []):
            with pytest.raises(ValueError):
                MatrixSpec.from_json_dict(bad)


class TestSignPatterns:
    def test_counts_and_canonical_form(self):
        for d in (2, 3, 5, 8):
            pats = enumerate_sign_patterns(d)
            assert pats.shape == (2 ** (d - 1) - 1, d)
            assert np.all(pats[:, 0] == -1)
            assert not np.any(np.all(pats == -1, axis=1))
            assert len({tuple(p) for p in pats}) == pats.shape[0]

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_sign_patterns(25)

    def test_reduced_pattern(self):
        assert reduced_sign_pattern(4) == (-1, -1, 1, 1)
        assert reduced_sign_pattern(5) == (-1, -1, -1, 1, 1)
        assert reduced_sign_pattern(2) == (-1, 1)
        with pytest.raises(ValueError):
            reduced_sign_pattern(1)


class TestPsi:
    def test_m2_exact_line(self):
        for b in (0.0, 0.25, 0.5, 0.9, 1.0):
            m = MatrixSpec.equal_off_diagonal(2, b).dense()
            assert psi(m, [1.0, 1.0], [-1, 1]) == 2.0 - 2.0 * b

    def test_split_identity_equal_offdiag(self):
        # Psi_{M_d(b)}(z, s) = (M3(x)+M3(y)) * (1 - b(1+Q(x,y))) where x
        # is the minus block of z and y the plus block.
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(2, 9))
            a = int(rng.integers(1, d))
            b = float(rng.uniform(0, 1))
            z = 10.0 ** rng.uniform(-2, 2, size=d)
            s = [-1] * a + [1] * (d - a)
            v1 = psi(MatrixSpec.equal_off_diagonal(d, b).dense(), z, s)
            r = quotient_q(list(z[:a]), list(z[a:]))
            v2 = float(r.s3) * (1.0 - b * (1.0 + float(r.value)))
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)

    def test_sign_flip_invariance(self):
        m = np.array([[1.0, 0.3, -0.2], [0.6, 2.0, 0.1], [0.0, -0.5, 1.5]])
        z = [0.7, 1.3, 2.1]
        s = [-1, 1, -1]
        assert psi(m, z, s) == pytest.approx(
            psi(m, z, [-v for v in s]), rel=1e-15
        )

    def test_general_asymmetric_matrix_by_hand(self):
        # 2x2: psi = m00 z0^3 + m11 z1^3 + s0 s1 (m01 z0 z1^2 + m10 z1 z0^2)
        m = np.array([[2.0, 3.0], [5.0, 7.0]])
        z = [2.0, 1.0]
        assert psi(m, z, [-1, 1]) == 2 * 8 + 7 * 1 - (3 * 2 * 1 + 5 * 1 * 4)

    def test_over_patterns_matches_scalar(self):
        m = np.array([[1.0, 0.8, 0.2, -0.1], [0.5, 1.2, 0.4, 0.3],
                      [0.1, -0.2, 0.9, 0.6], [0.7, 0.2, 0.5, 1.1]])
        z = [0.5, 1.0, 2.0, 0.25]
        pats = enumerate_sign_patterns(4)
        vals = psi_over_patterns(m, z, pats)
        for k in range(pats.shape[0]):
            assert vals[k] == pytest.approx(psi(m, z, pats[k]), rel=1e-13, abs=1e-13)

    def test_input_validation(self):
        m = np.eye(2)
        with pytest.raises(ValueError):
            psi(m, [1.0], [-1, 1])
        with pytest.raises(ValueError):
            psi(m, [1.0, -1.0], [-1, 1])
        with pytest.raises(ValueError):
            psi(m, [1.0, 1.0], [-1, 2])
        # numpy reads True and "1" as 1; neither is a sign.
        for s in ([True, -1], [1, "1"], ["-1", "1"], np.array([True, True])):
            with pytest.raises(ValueError, match="must be -1 or \\+1"):
                psi(m, [1.0, 1.0], s)
        with pytest.raises(ValueError):
            psi(np.ones((2, 3)), [1.0, 1.0], [-1, 1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_matrix(self, bad):
        m = [[1.0, bad], [0.5, 1.0]]
        for call in (
            lambda: psi(m, [1.0, 1.0], [-1, 1]),
            lambda: psi_over_patterns(m, [1.0, 1.0], [[-1, 1]]),
            lambda: check_diagonal_dominance(m),
            lambda: certify_general(m),
        ):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                call()


class TestDiagonalDominance:
    def test_hits_and_misses(self):
        assert check_diagonal_dominance(np.eye(3))
        assert check_diagonal_dominance([[5.0, 0.5, 0.5], [0.5, 5.0, 0.5], [0.5, 0.5, 5.0]])
        # row-wise dominant but not whole-matrix dominant
        m = np.full((4, 4), 0.4)
        np.fill_diagonal(m, 2.0)
        assert not check_diagonal_dominance(m)

    def test_dominant_matrix_has_no_violation(self):
        m = np.array([[5.0, 0.5, 0.5], [0.5, 5.0, 0.5], [0.5, 0.5, 5.0]])
        rep = sample_membership_general(m, n_samples=100, seed=1)
        assert rep.verdict == "inconclusive"
        assert certify_general(m).verdict == "member_certified"


class TestB3ClosedForm:
    def test_radical_equals_quartic_root(self):
        assert abs(b3_radical() - b3_quartic_root()) <= 1e-12
        assert b3_radical() == pytest.approx(0.962, abs=5e-4)

    def test_quartic_value_is_a_root(self):
        x = b3_quartic_root()
        assert 20 * x ** 4 + 60 * x ** 3 + 9 * x ** 2 - 54 * x - 27 == pytest.approx(
            0.0, abs=1e-10
        )


class TestComputeBd:
    @pytest.mark.parametrize("d", sorted(FROZEN_BD))
    def test_frozen_values(self, d):
        rep = compute_bd(d)
        assert rep.b_d == pytest.approx(FROZEN_BD[d], abs=1e-12)

    def test_monotone_nonincreasing(self):
        vals = [compute_bd(d).b_d for d in range(2, 13)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_exact_fields(self):
        assert compute_bd(2).exact == 1.0
        assert compute_bd(3).exact == pytest.approx(b3_radical(), abs=1e-15)
        assert compute_bd(4).exact == pytest.approx(b3_radical(), abs=1e-15)
        assert compute_bd(5).exact is None

    def test_b3_matches_closed_form(self):
        assert compute_bd(3).b_d == pytest.approx(b3_radical(), abs=1e-6)

    def test_bracket_for_five_and_six(self):
        for d in (5, 6):
            rep = compute_bd(d)
            lo, hi = rep.bracket
            assert lo <= rep.b_d <= hi
        assert compute_bd(4).bracket is None

    def test_ordering_where_the_bound_is_valid(self):
        # The floor-form growth bound is a true lower bound for even d
        # and for d <= 6; odd d >= 7 reports the ceil form instead
        # (the floor form gave 0.4153 > b_51 = 0.4065).
        for d in range(2, 2001):
            rep = compute_bd(d)
            assert rep.lower_bound <= rep.b_d <= 1.0
            if rep.witness_upper is not None:
                assert rep.b_d <= rep.witness_upper
            if d % 2 == 1 and d >= 7:
                assert rep.lower_bound == 1.0 / (1.0 + C_STAR * ((d + 1) // 2))

    def test_witness_upper_presence(self):
        assert compute_bd(12).witness_upper is None
        rep = compute_bd(20)
        assert rep.witness_upper is not None
        assert rep.b_d <= rep.witness_upper

    def test_asymptotic_field(self):
        rep = compute_bd(100)
        assert rep.asymptotic == pytest.approx(2.0 / (C_STAR * 100), abs=1e-15)

    def test_json_dict(self):
        doc = compute_bd(5).to_json_dict()
        assert doc["d"] == 5
        assert doc["bracket"] == pytest.approx([1.0 / 1.1080, 1.0 / 1.1079], rel=1e-14)
        json.dumps(doc)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compute_bd(1)

    def test_growth_estimate_matches_reference_routes(self):
        def by_lists(d):
            xg, _ = witness_vectors(d - d // 2)
            _, yg = witness_vectors(d // 2)
            return float(quotient_q(xg, yg).value), 2.0 / (C_STAR * d)

        def by_fractions(d):
            # Each entry's float powers summed exactly and rounded once,
            # as math.fsum does on the lists.
            def sums(blocks):
                powers = (lambda v: v, lambda v: v * v, lambda v: pow(v, 3.0))
                return [float(sum(c * Fraction(f(v)) for v, c in blocks)) for f in powers]

            n_x, n_y = d - d // 2, d // 2
            i = int(P_STAR * n_x)
            x1, x2, x3 = sums([(1.0, i), (1.0 / n_x, n_x - i)])
            y1, y2, y3 = sums([(GAMMA_STAR, n_y)])
            return (x1 - y1) * (y2 - x2) / (x3 + y3), 2.0 / (C_STAR * d)

        rng = np.random.default_rng(8)
        large = [int(d) for d in rng.integers(10**4, 2 * 10**6, size=6)]
        for d in [*range(2, 3001), *large]:
            assert _growth_estimates(d) == by_lists(d), d
        # Beyond any list size.
        for d in (10**20, 10**100, 10**150):
            assert _growth_estimates(d) == by_fractions(d), d

    @pytest.mark.parametrize("d", [10**20, 10**100, 10**150], ids=["1e20", "1e100", "1e150"])
    def test_compute_bd_beyond_list_sizes(self, d):
        # Q of the pair trails the balanced sup by a relative 16/d or
        # so, far below float resolution here.
        rep = compute_bd(d)
        assert rep.witness_upper == pytest.approx(rep.b_d, rel=1e-12)
        assert 0.0 < rep.b_d < rep.asymptotic * (1.0 + 1e-12)

    @pytest.mark.parametrize("d", [10**160, 10**300, 10**400], ids=["1e160", "1e300", "1e400"])
    def test_huge_d_is_a_value_error(self, d):
        with pytest.raises(ValueError, match="too large"):
            compute_bd(d)
        with pytest.raises(ValueError, match="too large"):
            _growth_estimates(d)


class TestMembership:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_flip_at_threshold(self, d):
        # The flip is pinned to the computed threshold; frozen-value
        # agreement is covered separately at 1e-12, which is wider than
        # the fixed 1e-8 margin probed here.
        margin = 1e-8
        bd = compute_bd(d).b_d
        lo = membership_equal_offdiag(d, max(bd - margin, 0.0))
        assert lo.verdict == "member_certified" and lo.witness is None
        mid = membership_equal_offdiag(d, bd)
        assert mid.verdict == "inconclusive"
        if bd + margin <= 1.0:
            hi = membership_equal_offdiag(d, bd + margin)
            assert hi.verdict == "nonmember"
            assert hi.witness is not None and hi.witness.psi_value < 0

    def test_witness_reevaluates(self):
        rep = membership_equal_offdiag(6, 0.95)
        m = MatrixSpec.equal_off_diagonal(6, 0.95).dense()
        w = rep.witness
        assert psi(m, w.z, w.s) == w.psi_value
        assert w.s == reduced_sign_pattern(6)

    def test_far_sides(self):
        assert membership_equal_offdiag(4, 0.1).verdict == "member_certified"
        assert membership_equal_offdiag(4, 1.0).verdict == "nonmember"
        assert membership_equal_offdiag(2, 1.0).verdict == "inconclusive"

    def test_report_json(self):
        doc = membership_equal_offdiag(5, 0.99).to_json_dict()
        assert doc["verdict"] == "nonmember" and doc["witness"]["psi"] < 0
        json.dumps(doc)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            membership_equal_offdiag(1, 0.5)
        with pytest.raises(ValueError):
            membership_equal_offdiag(4, 1.2)


class TestSampler:
    def test_finds_violation_above_threshold(self):
        m = MatrixSpec.equal_off_diagonal(5, 0.95).dense()
        rep = sample_membership_general(m, n_samples=100, seed=0)
        assert rep.verdict == "nonmember"
        assert rep.witness.psi_value < 0
        assert psi(m, rep.witness.z, rep.witness.s) == rep.witness.psi_value

    def test_finds_unbalanced_violation_below_balanced_threshold(self):
        # The balanced-split criterion certifies M_4(0.95) (b_4 = 0.962),
        # but the (1,3)-split pattern still violates positivity: the
        # balanced pattern is not sufficient at d >= 4.
        m = MatrixSpec.equal_off_diagonal(4, 0.95).dense()
        assert membership_equal_offdiag(4, 0.95).verdict == "member_certified"
        rep = sample_membership_general(m, n_samples=200, seed=0)
        assert rep.verdict == "nonmember"
        assert sum(1 for v in rep.witness.s if v < 0) in (1, 3)

    def test_deterministic(self):
        m = MatrixSpec.equal_off_diagonal(6, 0.97).dense()
        a = sample_membership_general(m, n_samples=50, seed=42)
        b = sample_membership_general(m, n_samples=50, seed=42)
        assert a == b

    def test_clean_matrix_inconclusive(self):
        rep = sample_membership_general(np.eye(4), n_samples=50, seed=0)
        assert rep.verdict == "inconclusive" and rep.witness is None
        assert rep.n_evaluated > 0

    def test_large_d_sampled_patterns(self):
        m = MatrixSpec.equal_off_diagonal(30, 0.99).dense()
        rep = sample_membership_general(m, n_samples=10, seed=0, cap=24)
        assert rep.verdict == "nonmember"

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            sample_membership_general(np.eye(3), n_samples=-1)


class TestCertifyGeneral:
    def test_dominance_short_circuit(self):
        rep = certify_general(np.diag([3.0, 4.0, 5.0]))
        assert rep.verdict == "member_certified"
        assert rep.method == "diagonal_dominance"

    def test_falls_back_to_sampling(self):
        m = MatrixSpec.equal_off_diagonal(4, 0.99).dense()
        rep = certify_general(m, n_samples=50, seed=0)
        assert rep.method == "sampling" and rep.verdict == "nonmember"
        json.dumps(rep.to_json_dict())

    def test_one_by_one(self):
        assert certify_general(np.array([[2.0]])).method == "diagonal_dominance"
        assert certify_general(np.array([[-1.0]])).verdict == "inconclusive"


def _exact_min_psi(entries, z):
    """Sign of min over all sign patterns of the exact Psi_M(z, s).

    Every term m_lk z_l z_k^2 is a dyadic rational, so all of them are
    integers over one common denominator and each pattern is an exact
    integer sum; the returned integer has the sign of the minimum.
    """
    d = len(entries)
    zf = [Fraction(v) for v in z]
    terms = {(l, k): Fraction(entries[l][k]) * zf[l] * zf[k] ** 2 for l in range(d) for k in range(d)}
    den = math.lcm(*(t.denominator for t in terms.values()))
    n = {key: t.numerator * (den // t.denominator) for key, t in terms.items()}
    diag = sum(n[l, l] for l in range(d))
    pairs = [(l, k, n[l, k] + n[k, l]) for l in range(d) for k in range(l + 1, d)]
    return min(
        diag + sum(p if s[l] == s[k] else -p for l, k, p in pairs)
        for s in ((-1,) + tail for tail in itertools.product((-1, 1), repeat=d - 1))
    )


def _exact_one_minus_psi(entries, gamma):
    """Exact Psi_M at z = (1, g, ..., g), s = (-1, +1, ..., +1)."""
    d = len(entries)
    m = [[Fraction(v) for v in row] for row in entries]
    rest = range(1, d)
    row0 = sum(m[0][k] for k in rest)
    col0 = sum(m[l][0] for l in rest)
    inner = sum(m[l][k] for l in rest for k in rest)
    return m[0][0] - gamma * col0 - gamma ** 2 * row0 + gamma ** 3 * inner


class TestPerturbationCertificate:
    def test_all_split_threshold_against_bd(self):
        for d in range(2, 201):
            t, bd = all_split_threshold(d), compute_bd(d).b_d
            if d <= 3:
                assert t == bd
            else:
                assert t < bd
        # Every split's own threshold is at least t, and one attains it.
        for d in (4, 7, 16, 33):
            per_split = [1.0 / (1.0 + max(0.0, sup_q(a, d - a).sup_value)) for a in range(1, d)]
            assert min(per_split) == all_split_threshold(d)
        assert all_split_threshold(4) == pytest.approx(0.9026013310604213, abs=1e-15)
        assert all_split_threshold(16) == pytest.approx(0.5499648909721311, abs=1e-15)

    def test_m16_is_certified(self):
        rep = certify_general(MatrixSpec.equal_off_diagonal(16, 0.3).dense())
        assert rep.verdict == "member_certified" and rep.method == "perturbation"
        diag = rep.diagnostics
        assert diag["threshold"] == all_split_threshold(16)
        assert diag["b"] == pytest.approx(0.3, abs=1e-9)
        assert diag["slack"] == pytest.approx(1.0 - 0.3 / diag["threshold"], abs=1e-9)
        assert json.loads(json.dumps(rep.to_json_dict()))["diagnostics"] == diag

    def test_threshold_is_tight(self):
        for d in range(3, 25):
            t = all_split_threshold(d)
            above = MatrixSpec.equal_off_diagonal(d, t * (1 + 1e-6)).dense()
            assert certify_general(above, n_samples=0, cap=2).verdict != "member_certified", d
            below = MatrixSpec.equal_off_diagonal(d, t * (1 - 1e-6)).dense()
            assert certify_general(below, n_samples=0, cap=2).method == "perturbation", d

    def test_slack_maximized_where_rows_cross(self):
        # Entries 0.3 in row and column 0, else 0: slack_0(b) = 0.4 + 2b
        # - b/t and slack_1(b) = slack_2(b) = 0.7 - b/t on [0, 0.3], so
        # the best b is their crossing 0.15, not a breakpoint (0 or 0.3).
        m = MatrixSpec.equal_off_diagonal(3, 0.0).dense()
        m[0, 1:] = m[1:, 0] = 0.3
        rep = certify_general(m, n_samples=0, cap=2)
        assert rep.method == "perturbation"
        t = all_split_threshold(3)
        assert rep.diagnostics["b"] == pytest.approx(0.15, abs=1e-9)
        assert rep.diagnostics["slack"] == pytest.approx(0.7 - 0.15 / t, abs=1e-9)
        assert rep.diagnostics["slack"] > max(0.4, 0.7 - 0.3 / t) + 0.1

    @given(
        d=st.integers(3, 10),
        frac=st.floats(0.0, 1.0),
        noise=st.floats(0.0, 0.05),
        bump_col=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        bump_row=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_certified_perturbations_are_members(self, d, frac, noise, bump_col, bump_row, seed):
        rng = np.random.default_rng(seed)
        b = frac * compute_bd(d).b_d
        m = MatrixSpec.equal_off_diagonal(d, b).dense() + rng.normal(0.0, noise, (d, d))
        m[1:, 0] += bump_col
        m[0, 1:] += bump_row
        if certify_general(m, n_samples=0, cap=2).verdict != "member_certified":
            return
        entries = m.tolist()
        for _ in range(3):
            z = (10.0 ** rng.uniform(-1.5, 1.5, d)).tolist()
            assert _exact_min_psi(entries, z) >= 0
        for k in range(1, 50):
            assert _exact_one_minus_psi(entries, Fraction(k, 50)) >= 0
