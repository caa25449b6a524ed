import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psq.power_sums import quotient_q
from psq.structured import (
    _g_config,
    _gamma_root,
    _reduced_value_dp,
    ALPHA_T,
    C_STAR,
    C_T,
    GAMMA_STAR,
    GAMMA_T,
    P_STAR,
    P_T,
    SQRT7,
    positivity_witness,
    reduced_objective,
    solve_reduced,
    sup_q,
    witness_vectors,
)

# Suprema frozen from an independent multistart run; see also the
# oracle agreement tests.
FROZEN_SUP = {
    (1, 1): 0.0,
    (2, 1): 0.039106798801725295,
    (2, 2): 0.039106798801725295,
    (3, 2): 0.10790884700463473,
    (3, 3): 0.10790884700463473,
    (4, 3): 0.18068727115396138,
    (4, 4): 0.18068727115396138,
    (5, 4): 0.2517689976461328,
    (5, 5): 0.2517689976461328,
    (6, 5): 0.31985989777933355,
    (6, 6): 0.31985989777933355,
}


def _q_exact_grouped(x, y):
    """Exact Q(x, y) in Fractions, summing each distinct entry once."""

    def sums(v):
        groups = [(Fraction(e), k) for e, k in Counter(v).items()]
        return [sum(k * f ** p for f, k in groups) for p in (1, 2, 3)]

    x1, x2, x3 = sums(x)
    y1, y2, y3 = sums(y)
    return (x1 - y1) * (y2 - x2) / (x3 + y3)


def _scan_sup(n_x, n_y):
    """Reference for sup_q: every block count on both sides at its root.

    Returns (value, side, i) of the first best configuration in sup_q's
    tie order, or None when no configuration has i < m (only (1, 1)).
    """
    best = None
    for side, (block_len, m) in (
        ("x_is_block", (n_x, n_y)),
        ("y_is_block", (n_y, n_x)),
    ):
        for i in range(1, min(block_len, m - 1) + 1):
            value = _g_config(i, m, _gamma_root(i, m))
            if best is None or value > best[0]:
                best = (value, side, i)
    return best


class TestConstants:
    def test_values(self):
        assert C_STAR == pytest.approx(0.05630589546119022, abs=1e-16)
        assert P_STAR == pytest.approx(0.1026386460991499, abs=1e-16)
        assert GAMMA_STAR == pytest.approx(0.21525043702153024, abs=1e-16)

    def test_radical_identities(self):
        # 27 c* + 17 = 7 sqrt 7, 27 p* = 16 - 5 sqrt 7, 3 gamma* + 2 = sqrt 7
        assert 27.0 * C_STAR + 17.0 == pytest.approx(7.0 * SQRT7, abs=1e-13)
        assert 27.0 * P_STAR == pytest.approx(16.0 - 5.0 * SQRT7, abs=1e-13)
        assert 3.0 * GAMMA_STAR + 2.0 == pytest.approx(SQRT7, abs=1e-15)
        assert SQRT7 * SQRT7 == pytest.approx(7.0, abs=1e-14)

    def test_exact_algebra_at_critical_point(self):
        # S1 = -2c*, S2 = -c*, S3 = 2c* at (p*, gamma*), so f = c*.
        s1 = P_STAR - GAMMA_STAR
        s2 = GAMMA_STAR ** 2 - P_STAR
        s3 = P_STAR + GAMMA_STAR ** 3
        assert s1 == pytest.approx(-2.0 * C_STAR, abs=1e-15)
        assert s2 == pytest.approx(-C_STAR, abs=1e-15)
        assert s3 == pytest.approx(2.0 * C_STAR, abs=1e-15)

    def test_all_split_constants(self):
        # As solve_reduced checks (p*, gamma*, c*): the root route at P_T gives
        # GAMMA_T, F'(p)(1 + p) - F(p) vanishes there, and F / (1 + p) is C_T.
        g = _gamma_root(P_T, 1.0)
        f, fp = _reduced_value_dp(P_T, g)
        assert abs(g - GAMMA_T) <= 1e-9
        assert abs(fp * (1.0 + P_T) - f) <= 1e-9
        assert abs(f / (1.0 + P_T) - C_T) <= 1e-9
        assert ALPHA_T == pytest.approx(P_T / (1.0 + P_T), rel=1e-15)
        u = GAMMA_T + 1.0 / GAMMA_T
        assert u * u - 4.0 * u - 8.0 == pytest.approx(0.0, abs=1e-12)
        assert (((P_T - 14.0) * P_T + 24.0) * P_T - 14.0) * P_T + 1.0 == pytest.approx(0.0, abs=1e-14)
        assert (27.0 * C_T + 18.0) * C_T - 1.0 == pytest.approx(0.0, abs=1e-15)
        assert C_STAR / 2.0 < C_T < C_STAR


class TestReduced:
    def test_objective_at_critical_point(self):
        assert reduced_objective(P_STAR, GAMMA_STAR) == pytest.approx(
            C_STAR, abs=1e-15
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reduced_objective(0.0, 0.5)
        with pytest.raises(ValueError):
            reduced_objective(0.1, -0.5)

    def test_solve_reduced_verifies(self):
        p, g, c = solve_reduced()
        assert (p, g, c) == (P_STAR, GAMMA_STAR, C_STAR)

    @given(
        p=st.floats(min_value=1e-4, max_value=1.0),
        g=st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_critical_point_is_global_max(self, p, g):
        assert reduced_objective(p, g) <= C_STAR + 1e-12


class TestSupQ:
    @pytest.mark.parametrize("dims,want", sorted(FROZEN_SUP.items()))
    def test_frozen_values(self, dims, want):
        res = sup_q(*dims)
        assert res.sup_value == pytest.approx(want, abs=1e-12)
        assert not res.attained

    def test_symmetric_in_dimensions(self):
        a = sup_q(3, 2)
        b = sup_q(2, 3)
        assert a.sup_value == pytest.approx(b.sup_value, abs=1e-14)

    def test_monotone_in_each_dimension(self):
        vals = [[sup_q(nx, ny).sup_value for ny in range(1, 7)] for nx in range(1, 7)]
        for i in range(6):
            for j in range(5):
                assert vals[i][j] <= vals[i][j + 1] + 1e-12
                assert vals[j][i] <= vals[j + 1][i] + 1e-12

    def test_linear_growth_bound(self):
        for n in range(1, 7):
            assert sup_q(n, n).sup_value < C_STAR * n

    def test_bracket_for_five_and_six(self):
        for dims in ((3, 2), (2, 3), (3, 3)):
            res = sup_q(*dims)
            assert res.bracket == (0.1079, 0.1080)
            assert 0.1079 <= res.sup_value <= 0.1080
        assert sup_q(2, 2).bracket is None

    def test_degenerate_pair(self):
        res = sup_q(1, 1)
        assert res.sup_value == 0.0
        c = res.maximizing_config
        assert (c.i, c.m, c.gamma) == (1, 1, 1.0)

    def test_maximizing_config_consistent(self):
        res = sup_q(4, 3)
        c = res.maximizing_config
        assert c.q_value == pytest.approx(res.sup_value, abs=1e-15)
        # the frozen maximizer location for this split
        assert c.gamma == pytest.approx(0.37314072700692086, abs=1e-8)

    def test_config_scaling_identity(self):
        # g_{li, lm}(gamma) = l * g_{i, m}(gamma)
        from psq.structured import _g_config

        for lam in (2, 3, 5):
            for gamma in (0.1, 0.4518639206635486, 0.8):
                assert _g_config(3 * lam, 4 * lam, gamma) == pytest.approx(
                    lam * _g_config(3, 4, gamma), rel=1e-14
                )

    def test_side_inversion_identity(self):
        # g_{i,k}(gamma) = g_{k,i}(1/gamma) after rescaling by gamma
        from psq.structured import _g_config

        for i, k, gamma in ((1, 3, 0.45), (2, 5, 0.3), (1, 2, 0.6)):
            lhs = _g_config(i, k, gamma)
            rhs = _g_config(k, i, 1.0 / gamma)
            # scale-invariance of Q maps one to the other exactly
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_witness_pair_converges_to_sup(self):
        res = sup_q(4, 3)
        prev_gap = None
        for eps in (1e-3, 1e-6, 1e-9):
            x, y = res.witness_pair(eps)
            assert len(x) == 4 and len(y) == 3
            q = float(quotient_q(x, y).value)
            gap = res.sup_value - q
            assert gap > 0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_witness_pair_rejects_bad_eps(self):
        for eps in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError):
                sup_q(2, 1).witness_pair(eps)

    def test_witness_pair_rejects_lengths_beyond_maxsize(self):
        # No list that long can exist; the check must fire before any allocation.
        with pytest.raises(ValueError, match="exceeds sys.maxsize"):
            sup_q(10**20, 10**20).witness_pair()

    def test_rejects_bad_dimensions(self):
        for bad in ((0, 1), (1, 0), (-2, 3), (1.5, 2)):
            with pytest.raises(ValueError):
                sup_q(*bad)

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (sup_q, (True, 3), "dimensions must be integers >= 1, got (True, 3)"),
            (sup_q, (3, False), "dimensions must be integers >= 1, got (3, False)"),
            (witness_vectors, (True,), "n must be an integer >= 1, got True"),
            (positivity_witness, (2, True), "dimensions must be integers >= 1, got (2, True)"),
        ],
        ids=["sup_q-n_x", "sup_q-n_y", "witness_vectors", "positivity_witness"],
    )
    def test_rejects_bool_dimensions(self, func, args, message):
        with pytest.raises(ValueError) as err:
            func(*args)
        assert str(err.value) == message


class TestClosedFormSupQ:
    def _agrees_with_scan(self, n_x, n_y):
        res = sup_q(n_x, n_y)
        want = _scan_sup(n_x, n_y)
        if want is None:
            assert (n_x, n_y) == (1, 1) and res.sup_value == 0.0
            return
        value, side, i = want
        assert abs(res.sup_value - value) <= 1e-12 * max(1.0, value)
        c = res.maximizing_config
        assert (c.side, c.i) == (side, i)

    def test_matches_full_scan_small(self):
        for n_x in range(1, 65):
            for n_y in range(1, 65):
                self._agrees_with_scan(n_x, n_y)

    def test_matches_full_scan_seeded(self):
        rng = random.Random(20240601)
        for _ in range(40):
            self._agrees_with_scan(rng.randint(1, 2000), rng.randint(1, 2000))
        self._agrees_with_scan(2000, 2000)
        self._agrees_with_scan(1, 2000)

    def test_root_lies_on_curve(self):
        for i, m in ((1, 2), (1, 3), (3, 4), (51, 500), (1, 10**6), (999, 1000)):
            g = _gamma_root(i, m)
            assert 0.0 < g < 1.0
            p = g * g * (g * g + 2.0 * g + 3.0) / (3.0 * g * g + 2.0 * g + 1.0)
            assert p == pytest.approx(i / m, rel=1e-13)

    def test_large_n_approaches_c_star(self):
        ratio = sup_q(10**6, 10**6).sup_value / 10**6
        assert C_STAR * (1.0 - 1e-9) <= ratio <= C_STAR


class TestWitnessVectors:
    def test_shapes(self):
        x, y = witness_vectors(25)
        assert len(x) == 25 and len(y) == 25
        assert x.count(1.0) == int(P_STAR * 25)
        assert set(y) == {GAMMA_STAR}
        x2, _ = witness_vectors(25, extra_component=True)
        assert len(x2) == 26

    def test_sign_change_at_ten(self):
        for n in range(1, 10):
            assert float(quotient_q(*witness_vectors(n)).value) < 0
        assert float(quotient_q(*witness_vectors(10)).value) > 0

    def test_rejects_bad_n(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError):
                witness_vectors(bad)

    def test_rejects_lengths_beyond_maxsize(self):
        for n, extra in ((10**20, False), (sys.maxsize, True)):
            with pytest.raises(ValueError, match="exceeds sys.maxsize"):
                witness_vectors(n, extra_component=extra)


class TestPositivityWitness:
    def test_one_one_has_none(self):
        assert positivity_witness(1, 1) is None

    @pytest.mark.parametrize("ny", range(1, 11))
    def test_positive_for_all_small_cases(self, ny):
        for nx in (ny, ny + 1):
            if (nx, ny) == (1, 1):
                continue
            x, y, q = positivity_witness(nx, ny)
            assert len(x) == nx and len(y) == ny
            assert q > 0
            assert float(quotient_q(x, y).value) == q

    def test_is_the_sup_q_maximizer_with_exact_positive_q(self):
        rng = random.Random(20261018)
        # Every (n, n) and (n + 1, n) up to n = 300 except (1, 1).
        shapes = [(n + k, n) for n in range(1, 301) for k in (0, 1)][1:]
        shapes += [(n + rng.randint(0, 1), n) for n in rng.sample(range(301, 3001), 20)]
        shapes.append((3001, 3000))
        for nx, ny in shapes:
            x, y, q = positivity_witness(nx, ny)
            assert (x, y) == sup_q(nx, ny).witness_pair(1e-6), (nx, ny)
            assert _q_exact_grouped(x, y) > 0, (nx, ny)

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            positivity_witness(5, 3)
        with pytest.raises(ValueError):
            positivity_witness(3, 4)
        with pytest.raises(ValueError):
            positivity_witness(2, 0)
