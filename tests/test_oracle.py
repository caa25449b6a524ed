import math

import numpy as np
import pytest

from psq.oracle import OracleResult, _neg_q_and_grad, brute_force_sup, check_structured_shape
from psq.power_sums import quotient_q
from psq.structured import C_STAR, sup_q


class TestBruteForce:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_agrees_with_structured(self, dims):
        res = brute_force_sup(*dims, n_starts=40, seed=0)
        want = sup_q(*dims).sup_value
        assert abs(max(res.best_value, 0.0) - want) <= 1e-6

    def test_degenerate_pair_nonpositive(self):
        res = brute_force_sup(1, 1, n_starts=30, seed=0)
        assert res.best_value <= 0.0
        assert res.best_value == pytest.approx(0.0, abs=1e-9)

    def test_growth_bound_invariant(self):
        res = brute_force_sup(4, 4, n_starts=40, seed=0)
        assert res.best_value <= C_STAR * 4

    def test_best_value_reevaluates(self):
        res = brute_force_sup(3, 2, n_starts=40, seed=3)
        q = float(quotient_q(list(res.best_x), list(res.best_y)).value)
        assert abs(q - res.best_value) <= 1e-12

    def test_deterministic_across_jobs(self):
        a = brute_force_sup(3, 2, n_starts=30, seed=5, n_jobs=1)
        b = brute_force_sup(3, 2, n_starts=30, seed=5, n_jobs=4)
        assert a == b

    def test_result_bookkeeping(self):
        res = brute_force_sup(2, 2, n_starts=25, seed=0)
        assert res.n_starts >= 25
        assert 0.0 <= res.converged_fraction <= 1.0
        assert res.fd_grad_sup >= 0.0

    def test_rejects_bad_inputs(self):
        for bad in ((0, 1), (9, 2), (2, -1), (2.0, 2)):
            with pytest.raises(ValueError):
                brute_force_sup(*bad)
        with pytest.raises(ValueError):
            brute_force_sup(2, 2, n_starts=0)
        with pytest.raises(ValueError):
            brute_force_sup(2, 2, n_jobs=-1)


def _numpy_neg_q_and_grad(w, n_x):
    """Reference objective: the same formulas as numpy array operations."""
    x = np.exp(w[:n_x])
    y = np.exp(w[n_x:])
    s1 = x.sum() - y.sum()
    s2 = (y * y).sum() - (x * x).sum()
    s3 = (x ** 3).sum() + (y ** 3).sum()
    q = s1 * s2 / s3
    gx = x * ((s2 - 2.0 * x * s1 - 3.0 * x * x * q) / s3)
    gy = y * ((-s2 + 2.0 * y * s1 - 3.0 * y * y * q) / s3)
    return -q, -np.concatenate([gx, gy])


class TestObjective:
    def test_matches_numpy_reference(self):
        # Errors are measured against the size of the summed terms, the
        # scale at which rounding acts: where s1 or s2 nearly cancels, a
        # last-bit difference in exp or in the summation order is large
        # relative to the result itself.
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            n_x, n_y = (int(v) for v in rng.integers(1, 9, 2))
            w = rng.uniform(-3.0, 3.0, n_x + n_y) * math.log(10.0)
            val, grad = _neg_q_and_grad(w, n_x)
            ref_val, ref_grad = _numpy_neg_q_and_grad(w, n_x)
            assert isinstance(grad, np.ndarray) and grad.shape == ref_grad.shape
            z = np.exp(w)
            a1, a2, s3 = z.sum(), (z * z).sum(), (z ** 3).sum()
            x, y = z[:n_x], z[n_x:]
            s1 = abs(x.sum() - y.sum())
            s2 = abs((y * y).sum() - (x * x).sum())
            val_scale = (s2 * a1 + s1 * a2) / s3
            grad_scale = z * (a2 + 2.0 * z * a1 + 3.0 * z * z * val_scale) / s3
            assert abs(val - ref_val) <= 1e-13 * val_scale
            assert np.all(np.abs(grad - ref_grad) <= 1e-13 * grad_scale)


class TestStructuredShape:
    def test_maximizers_are_block_shaped(self):
        for dims in ((3, 3), (2, 3)):
            res = brute_force_sup(*dims, n_starts=40, seed=0)
            assert check_structured_shape(res, tol=1e-3)

    def test_non_block_point_fails(self):
        fake = OracleResult(
            n_x=3,
            n_y=3,
            best_value=0.05,
            best_x=(1.0, 0.6, 0.3),
            best_y=(0.5, 0.2, 0.9),
            n_starts=1,
            converged_fraction=1.0,
            fd_grad_sup=0.0,
        )
        assert not check_structured_shape(fake, tol=1e-3)

    def test_requires_positive_value(self):
        res = brute_force_sup(1, 1, n_starts=10, seed=0)
        with pytest.raises(ValueError):
            check_structured_shape(res)
