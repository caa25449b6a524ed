import importlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psq.cone import compute_bd, membership_equal_offdiag
from psq.power_sums import _block_power_sums, _quotient, quotient_q
from psq.structured import (
    _SUP_Q_SHAPES,
    _g_config,
    _gamma_root,
    _sup_q,
    _reduced_value_dp,
    ALPHA_T,
    C_STAR,
    C_T,
    GAMMA_STAR,
    GAMMA_T,
    P_STAR,
    P_T,
    SQRT7,
    growth_blocks,
    positivity_witness,
    reduced_objective,
    solve_reduced,
    sup_q,
    witness_vectors,
)

# The module itself; the package attribute psq.power_sums is the function.
ps = importlib.import_module("psq.power_sums")

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
        for p, g in ((math.nan, 1.0), (0.5, math.nan)):  # NaN compared false with <= 0
            with pytest.raises(ValueError):
                reduced_objective(p, g)

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

    def test_degenerate_pair(self):
        res = sup_q(1, 1)
        assert res.sup_value == 0.0
        c = res.maximizing_config
        assert (c.i, c.m, c.gamma) == (1, 1, 1.0)

    def test_positive_except_degenerate_pair(self):
        # compute_bd and all_split_threshold use sup_value unclamped: it is never negative.
        rng = random.Random(20261019)
        shapes = [(1, 2), (2, 1), (1, 10**150), (10**150, 1), (10**150, 10**150)]
        shapes += [tuple(rng.randint(1, 10 ** rng.randint(1, 150)) for _ in "xy") for _ in range(200)]
        for shape in shapes:
            assert sup_q(*shape).sup_value > 0.0, shape

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

    @pytest.mark.parametrize("eps", [True, "1e-6", "np.True_"])
    def test_witness_blocks_reject_bool_and_non_real_eps(self, eps):
        # 0 < True < inf holds, so a bare range check let True into the vectors.
        import numpy as np

        eps = np.bool_(True) if eps == "np.True_" else eps
        for method in (sup_q(3, 3).witness_blocks, sup_q(3, 3).witness_pair):
            with pytest.raises(ValueError) as exc:
                method(eps)
            assert str(exc.value) == f"eps must be positive and finite, got {eps!r}"

    def test_witness_blocks_accept_real_eps(self):
        import numpy as np

        want = sup_q(3, 3).witness_pair(1e-6)
        assert sup_q(3, 3).witness_pair(np.float64(1e-6)) == want
        assert sup_q(3, 3).witness_blocks(1)[0][1] == (1, 2)

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
            (sup_q, (True, 3), "n_x must be an integer >= 1, got True"),
            (sup_q, (3, False), "n_y must be an integer >= 1, got False"),
            (witness_vectors, (True,), "n must be an integer >= 1, got True"),
            (positivity_witness, (2, True), "n_y must be an integer >= 1, got True"),
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


def _block_q_hex(x_blocks, y_blocks):
    """Q of a block pair as positivity_witness computes it, as float.hex strings."""
    return _hex(_quotient(_block_power_sums(x_blocks), _block_power_sums(y_blocks)))


def _hex(q):
    return tuple(map(float.hex, tuple(q)))


# Every shape n <= 40, then seeded n up to 10**5; from 1024 entries on,
# quotient_q sums float lists in numpy when it is loaded.
_BLOCK_SIZES = [*range(1, 41), *random.Random(16).sample(range(41, 1024), 6)]
_BLOCK_SIZES += [*random.Random(17).sample(range(1024, 10**5), 3), 10**5]


class TestBlockQuotients:
    """Block quotients equal quotient_q on the expanded lists, bit for bit."""

    @pytest.fixture(params=["fsum", "numpy"])
    def route(self, request, monkeypatch):
        if request.param == "fsum":
            # quotient_q takes the numpy route only when numpy is already loaded.
            monkeypatch.delitem(sys.modules, "numpy", raising=False)
        else:
            pytest.importorskip("numpy")
        long_list_types = ps._validated([0.5] * 1024, "x")[1]
        assert (long_list_types is None) == (request.param == "numpy")
        return request.param

    def test_sup_q_witness_pairs(self, route):
        for n in _BLOCK_SIZES:
            for shape in ((n, n), (n + 1, n)):
                if shape == (1, 1):
                    continue
                res = sup_q(*shape)
                for eps in (1e-6, 1e-9, 1e-12):
                    want = quotient_q(*res.witness_pair(eps))
                    assert _block_q_hex(*res.witness_blocks(eps)) == _hex(want), (shape, eps)
                x, y, q = positivity_witness(*shape)
                assert q.hex() == quotient_q(x, y).value.hex(), shape

    def test_growth_pairs(self, route):
        for n in _BLOCK_SIZES:
            for extra in (False, True):
                want = quotient_q(*witness_vectors(n, extra))
                assert _block_q_hex(*growth_blocks(n, extra)) == _hex(want), (n, extra)

    def test_default_eps_is_positive_at_any_size(self):
        # positivity_witness tries only eps = 1e-6; its block Q stays
        # positive far beyond list sizes, checked on the blocks alone.
        for k in range(1, 16):
            n = 10**k
            for shape in ((n, n), (n + 1, n)):
                blocks = sup_q(*shape).witness_blocks()
                assert _quotient(*map(_block_power_sums, blocks)).value > 0.0, shape

    def test_blocks_expand_to_the_lists(self):
        for shape in ((2, 1), (7, 6), (6, 6), (3, 2)):
            res = sup_q(*shape)
            x_blocks, y_blocks = res.witness_blocks(1e-9)
            x, y = res.witness_pair(1e-9)
            assert x == [v for v, c in x_blocks for _ in range(c)]
            assert y == [v for v, c in y_blocks for _ in range(c)]
        assert growth_blocks(25, True) == (((1.0, 2), (0.04, 24)), ((GAMMA_STAR, 25),))


def _two_side_sup(n_x, n_y):
    """sup_q's closed form with both side assignments evaluated, square
    shapes included: (value, side, i, m, gamma) of the first best."""
    best = None
    for side, (block_len, m) in (("x_is_block", (n_x, n_y)), ("y_is_block", (n_y, n_x))):
        k = (16 * m - math.isqrt(175 * m * m) - 1) // 27  # floor(p* m), exactly
        for i in sorted({min(max(k, 1), block_len), min(k + 1, block_len)}):
            if i < m:
                gamma = _gamma_root(i, m)
                value = _g_config(i, m, gamma)
                if best is None or value > best[0]:
                    best = (value, side, i, m, gamma)
    return best


def _result_bits(res):
    c = res.maximizing_config
    return (type(res.n_x), type(res.n_y), res.n_x, res.n_y, res.sup_value.hex(),
            c.i, c.m, c.gamma.hex(), c.side, c.q_value.hex(), res.attained)


class TestSupQMemo:
    """sup_q solves a shape once; the memo sits behind its checks."""

    def test_validation_runs_before_the_memo(self):
        import numpy as np

        sup_q(1, 1), sup_q(2, 2)
        for bad in ((True, 1), (2.0, 2), (0, 3)):
            with pytest.raises(ValueError) as err:
                sup_q(*bad)
            assert str(err.value) == f"n_x must be an integer >= 1, got {bad[0]!r}"
        assert sup_q(np.int64(2), 2) is sup_q(2, 2)

    def test_int_subclass_gives_plain_ints(self):
        class Dim(int):
            pass

        res = sup_q(Dim(7), Dim(6))
        assert type(res.n_x) is int and type(res.n_y) is int
        assert res == sup_q(7, 6)

    def test_repeat_is_the_same_object_and_recompute_the_same_bits(self):
        rng = random.Random(18)
        ns = [*range(1, 30), *rng.sample(range(30, 10**6), 20), 10**15]
        shapes = [(n + k, n) for n in ns for k in (0, 1)]
        shapes += [(rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(40)]
        first = {shape: sup_q(*shape) for shape in shapes}
        for shape, res in first.items():
            assert sup_q(*shape) is res, shape
        _sup_q.cache_clear()
        for shape, res in first.items():
            again = sup_q(*shape)
            assert again is not res and _result_bits(again) == _result_bits(res), shape

    def test_size_is_bounded(self):
        for k in range(1, 10**4 + 1):
            sup_q(k, 3)
            assert _sup_q.cache_info().currsize <= _SUP_Q_SHAPES
        assert _sup_q.cache_info().currsize == _SUP_Q_SHAPES == 256

    def test_square_shapes_equal_two_sides(self):
        rng = random.Random(1818)
        for n in [*range(2, 2001), *(rng.randint(2001, 10**15) for _ in range(200)), 10**15]:
            value, side, i, m, gamma = _two_side_sup(n, n)
            c = sup_q(n, n).maximizing_config
            assert (c.q_value.hex(), c.side, c.i, c.m, c.gamma.hex()) == (value.hex(), side, i, m, gamma.hex()), n
        assert _two_side_sup(1, 1) is None and sup_q(1, 1).sup_value == 0.0

    def test_shapes_below_2_53_equal_two_sides(self):
        # Every shape up to 300 x 300, then seeded shapes per decade up to 2^53,
        # near-square and free: the shorter side alone gives the same bits.
        rng = random.Random(1819)
        shapes = [(a, b) for a in range(1, 301) for b in range(1, 301) if (a, b) != (1, 1)]
        for e in range(3, 16):
            for _ in range(100):
                n, k = rng.randint(10 ** (e - 1), 10 ** e), rng.randint(1, 1000)
                shapes += [(n + k, n), (n, n + k), (n, rng.randint(1, 2**53 - 1))]
        for shape in shapes:
            value, side, i, m, gamma = _two_side_sup(*shape)
            res = sup_q(*shape)
            c = res.maximizing_config
            assert (res.sup_value.hex(), c.side, c.i, c.m, c.gamma.hex(), c.q_value.hex()) == (
                value.hex(), side, i, m, gamma.hex(), value.hex()), shape

    def test_block_sits_on_the_shorter_vector_at_any_size(self):
        # Beyond 2^53 both sides' floats can tie or cross, but the longer constant
        # side is strictly better (sup_q's docstring), so it is always the constant one.
        rng = random.Random(1820)
        for e in range(17, 25):
            for _ in range(300):
                n, k = rng.randint(10**e, 10 ** (e + 1)), rng.randint(1, 1000)
                for n_x, n_y in ((n + k, n), (n, n + k), (n, n)):
                    c = sup_q(n_x, n_y).maximizing_config
                    assert c.m == max(n_x, n_y), (n_x, n_y)
                    assert c.side == ("x_is_block" if n_x <= n_y else "y_is_block"), (n_x, n_y)

    @pytest.mark.parametrize("d", [1000, 1001])
    def test_threshold_request_solves_two_shapes(self, d):
        # compute_bd, membership on both sides of b_d, and sup_q and
        # positivity_witness on (n, n) and (n + 1, n), n = d // 2.
        n = d // 2
        _sup_q.cache_clear()
        b_d = compute_bd(d).b_d
        for b in (b_d * 0.99, min(1.0, b_d * 1.01)):
            membership_equal_offdiag(d, b)
        for shape in ((n, n), (n + 1, n)):
            sup_q(*shape)
            positivity_witness(*shape)
        info = _sup_q.cache_info()
        assert (info.misses, info.hits) == (2, 5)


class TestExactWindow:
    """floor(p* m) = (16 m - isqrt(175 m^2) - 1) // 27, p* = (16 - sqrt 175) / 27."""

    @staticmethod
    def _seeded_m(n):
        rng = random.Random(150)
        return [*range(1, 2001), *(rng.randint(1, 10 ** rng.randint(1, 150)) for _ in range(n)), 10**150]

    def test_growth_blocks_count_against_integer_bounds(self):
        # k <= p* m iff sqrt(175) m <= 16 m - 27 k, and k + 1 > p* m iff
        # sqrt(175) m > 16 m - 27 k - 27; square both sides where they are >= 0.
        for m in self._seeded_m(3000):
            k = growth_blocks(m)[0][0][1]
            assert 16 * m - 27 * k > 0 and 175 * m * m <= (16 * m - 27 * k) ** 2, m
            t = 16 * m - 27 * k - 27
            assert t < 0 or 175 * m * m > t * t, m

    def test_sup_q_window(self):
        # A square shape evaluates only the x_is_block window {max(k, 1), k + 1}.
        for m in self._seeded_m(300)[1:]:
            k = growth_blocks(m)[0][0][1]
            assert sup_q(m, m).maximizing_config.i in {max(k, 1), k + 1}, m

    def test_float_window_below_2_40(self):
        # The window equals the float int(P_STAR * m) wherever that was
        # taken as exact, so no result below 2^40 moves.
        rng = random.Random(40)
        for m in [*range(1, 5001), *(rng.randint(1, 2**40) for _ in range(5000))]:
            assert growth_blocks(m)[0][0][1] == int(P_STAR * m), m
