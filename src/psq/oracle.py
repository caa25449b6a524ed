"""Independent multistart maximization of Q for small dimensions.

Cross-checks the structured maximizer by brute force: L-BFGS-B in log
coordinates (so positivity is free and scaling is well conditioned)
with the analytic gradient, from a deterministic mix of structured and
random starting points.  Intended for n_x, n_y <= 8, where a few
hundred starts reliably find the global supremum.

In log coordinates u = log x, v = log y the gradient of Q is

    dQ/du_i = x_i * (s2 - 2 x_i s1 - 3 x_i^2 Q) / s3
    dQ/dv_j = y_j * (-s2 + 2 y_j s1 - 3 y_j^2 Q) / s3

with s1 = M1(x) - M1(y), s2 = M2(y) - M2(x), s3 = M3(x) + M3(y).
It vanishes at the box floor exp(-9 ln 10) ~ 1e-9, so optimizer
convergence is checkable by finite differences even though the true
maximizer has zero entries in its closure.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.optimize import minimize

__all__ = ["OracleResult", "brute_force_sup", "check_structured_shape"]

_LOG_LO = math.log(1e-9)
_LOG_HI = math.log(1e9)


@dataclass(frozen=True)
class OracleResult:
    """Best point found over all starts, with convergence diagnostics.

    converged_fraction is the share of starts whose terminal point
    meets the finite-difference gradient criterion (centered, step
    1e-7, sup norm < 1e-9 in log coordinates); fd_grad_sup is that
    measured sup norm at the best point.  The measurement rides on
    float noise of order 1e-8 for some configurations, so a fraction
    below 1 does not mean the search missed the optimum.
    """

    n_x: int
    n_y: int
    best_value: float
    best_x: Tuple[float, ...]
    best_y: Tuple[float, ...]
    n_starts: int
    converged_fraction: float
    fd_grad_sup: float


def _neg_q_and_grad(w: np.ndarray, n_x: int):
    # Plain floats: for at most 16 entries numpy's per-call overhead
    # costs about 4x the arithmetic.
    e = list(map(math.exp, w.tolist()))
    x, y = e[:n_x], e[n_x:]
    s1 = sum(x) - sum(y)
    s2 = sum([v * v for v in y]) - sum([v * v for v in x])
    s3 = sum([v ** 3 for v in x]) + sum([v ** 3 for v in y])
    q = s1 * s2 / s3
    g = [-v * ((s2 - 2.0 * v * s1 - 3.0 * v * v * q) / s3) for v in x]
    g += [-v * ((-s2 + 2.0 * v * s1 - 3.0 * v * v * q) / s3) for v in y]
    return -q, np.array(g)


def _neg_q(w: np.ndarray, n_x: int) -> float:
    return _neg_q_and_grad(w, n_x)[0]


def _structured_starts(n_x: int, n_y: int) -> List[np.ndarray]:
    starts = []
    for side in ("x", "y"):
        block_len, const_len = (n_x, n_y) if side == "x" else (n_y, n_x)
        for i in range(1, block_len + 1):
            for gamma in (0.1, 0.2, 0.3):
                block = [1.0] * i + [1e-6] * (block_len - i)
                const = [gamma] * const_len
                x0, y0 = (block, const) if side == "x" else (const, block)
                starts.append(np.log(np.array(x0 + y0)))
    return starts


def _fd_grad_sup(w: np.ndarray, n_x: int, step: float = 1e-7) -> float:
    worst = 0.0
    for j in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[j] += step
        wm[j] -= step
        d = (_neg_q(wp, n_x) - _neg_q(wm, n_x)) / (2.0 * step)
        worst = max(worst, abs(d))
    return worst


def brute_force_sup(
    n_x: int,
    n_y: int,
    n_starts: int = 200,
    seed: int = 0,
    n_jobs: int = 1,
) -> OracleResult:
    """Maximize Q over (0, inf)^n_x x (0, inf)^n_y by multistart L-BFGS-B.

    Starts are the structured block configurations (both sides, every
    block count, three gamma levels, zeros floored at 1e-6) topped up
    with random log-uniform points on [1e-3, 1e3]^n to n_starts total.
    Ties in the best value resolve to the earliest start, so the result
    is deterministic for a fixed seed regardless of n_jobs.
    """
    for name, n in (("n_x", n_x), ("n_y", n_y)):
        if not isinstance(n, int) or not 1 <= n <= 8:
            raise ValueError(f"{name} must be an integer in [1, 8], got {n!r}")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0 (0 means all cores)")
    if n_jobs == 0:
        n_jobs = os.cpu_count() or 1

    starts = _structured_starts(n_x, n_y)
    rng = np.random.default_rng(seed)
    n_dim = n_x + n_y
    for _ in range(max(0, n_starts - len(starts))):
        z = rng.uniform(-3.0, 3.0, size=n_dim)
        starts.append(z * math.log(10.0))

    bounds = [(_LOG_LO, _LOG_HI)] * n_dim

    def solve(w0: np.ndarray):
        # Default L-BFGS-B tolerances stop with gradients around 1e-8;
        # the finite-difference convergence check needs better.
        res = minimize(
            _neg_q_and_grad,
            w0,
            args=(n_x,),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500},
        )
        return -float(res.fun), res.x, _fd_grad_sup(res.x, n_x)

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(solve, starts))
    else:
        outcomes = [solve(w0) for w0 in starts]

    best_val, best_w, best_fd = -math.inf, starts[0], math.inf
    n_converged = 0
    for val, w, fd in outcomes:
        n_converged += fd < 1e-9
        if val > best_val:
            best_val, best_w, best_fd = val, w, fd

    x = np.exp(best_w[:n_x])
    y = np.exp(best_w[n_x:])
    return OracleResult(
        n_x=n_x,
        n_y=n_y,
        best_value=best_val,
        best_x=tuple(float(v) for v in x),
        best_y=tuple(float(v) for v in y),
        n_starts=len(starts),
        converged_fraction=n_converged / len(starts),
        fd_grad_sup=best_fd,
    )


def check_structured_shape(result: OracleResult, tol: float = 1e-3) -> bool:
    """True when the oracle's best point has block structure.

    One side must be constant (after scaling by the block maximum) and
    the other must consist of entries near the maximum or near zero,
    with at least one of each kind of block entry check passing.  Only
    meaningful for a positive best value.
    """
    if result.best_value <= 0.0:
        raise ValueError("shape check requires a positive best value")
    x = np.array(result.best_x)
    y = np.array(result.best_y)
    for block, const in ((x, y), (y, x)):
        scale = float(block.max())
        b = block / scale
        c = const / scale
        gamma = float(np.median(c))
        const_ok = bool(np.all(np.abs(c - gamma) <= tol * max(1.0, gamma)))
        near_one = np.abs(b - 1.0) <= tol
        near_zero = b <= tol
        block_ok = bool(np.all(near_one | near_zero)) and bool(near_one.any())
        if const_ok and block_ok:
            return True
    return False
