"""Independent multistart maximization of Q for small dimensions.

Cross-checks the structured maximizer by brute force: damped Newton
ascent in log coordinates w (so positivity is free and scaling is well
conditioned) from a deterministic mix of structured and random starts,
all advanced together as one (starts, n) array.  Intended for
n_x, n_y <= 8.  With z = exp(w), sigma = +1 on x and -1 on y,

    s1 = sum sigma z,  s2 = -sum sigma z^2,  s3 = sum z^3,  Q = s1 s2 / s3,
    a = sigma z,  b = -2 sigma z^2,  c = 3 z^3  (the gradients of s1, s2, s3),
    g = (s2 a + s1 b - Q c) / s3,
    H = (a b^T + b a^T - g c^T - c g^T + diag(s2 a + 2 s1 b - 3 Q c)) / s3.

A step solves (lam I - H) d = g per start and projects w + d onto the
box [log 1e-9, log 1e9]^n; it is kept when Q does not drop, and then
lam /= 3, else lam *= 4.  g vanishes at the box floor, so convergence
is checkable by finite differences although the true maximizer has
zero entries in its closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .power_sums import _integer

__all__ = ["OracleResult", "brute_force_sup", "check_structured_shape"]

_LOG_LO = math.log(1e-9)
_LOG_HI = math.log(1e9)
# Fixed step count: for n_x, n_y <= 4, 40 steps from random starts alone
# already agree with sup_q to 1e-9; the rest is margin for larger shapes.
_STEPS = 100
# Q is constant along w + t (1, ..., 1), so H is singular; the damping
# floor keeps lam I - H invertible.
_LAM_MIN = 1e-9


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


def _q(w: np.ndarray, n_x: int) -> np.ndarray:
    """Q at each point w[..., :] (log coordinates, x entries first)."""
    z = np.exp(w)
    x, y = z[..., :n_x], z[..., n_x:]
    return (x.sum(-1) - y.sum(-1)) * ((y * y).sum(-1) - (x * x).sum(-1)) / (z ** 3).sum(-1)


def _q_grad_hess(w: np.ndarray, n_x: int):
    """Q, its gradient and its Hessian in log coordinates, per row of w."""
    z = np.exp(w)
    a = np.where(np.arange(w.shape[1]) < n_x, z, -z)
    b, c = -2.0 * a * z, 3.0 * z ** 3
    s1, s2, s3 = a.sum(1)[:, None], 0.5 * b.sum(1)[:, None], (z ** 3).sum(1)[:, None]
    q = s1 * s2 / s3
    g = (s2 * a + s1 * b - q * c) / s3
    ab = a[:, :, None] * b[:, None, :]
    gc = g[:, :, None] * c[:, None, :]
    h = ab + ab.transpose(0, 2, 1) - gc - gc.transpose(0, 2, 1)
    diag = np.arange(w.shape[1])
    h[:, diag, diag] += s2 * a + 2.0 * s1 * b - 3.0 * q * c
    return q[:, 0], g, h / s3[:, :, None]


def _ascend(w: np.ndarray, n_x: int):
    """Damped Newton ascent of every row of w; returns (Q, terminal w)."""
    w = np.clip(w, _LOG_LO, _LOG_HI)
    q, g, h = _q_grad_hess(w, n_x)
    lam = np.ones(len(w))
    eye = np.eye(w.shape[1])
    for _ in range(_STEPS):
        d = np.linalg.solve(lam[:, None, None] * eye - h, g[:, :, None])[:, :, 0]
        w_new = np.clip(w + d, _LOG_LO, _LOG_HI)
        q_new, g_new, h_new = _q_grad_hess(w_new, n_x)
        # NaN compares false, so a failed solve is simply rejected.
        ok = q_new >= q
        w[ok], q[ok], g[ok], h[ok] = w_new[ok], q_new[ok], g_new[ok], h_new[ok]
        lam = np.where(ok, np.maximum(lam / 3.0, _LAM_MIN), lam * 4.0)
    return q, w


def _structured_starts(n_x: int, n_y: int) -> np.ndarray:
    starts = []
    for side in ("x", "y"):
        block_len, const_len = (n_x, n_y) if side == "x" else (n_y, n_x)
        for i in range(1, block_len + 1):
            for gamma in (0.1, 0.2, 0.3):
                block = [1.0] * i + [1e-6] * (block_len - i)
                const = [gamma] * const_len
                x0, y0 = (block, const) if side == "x" else (const, block)
                starts.append(x0 + y0)
    return np.log(starts)


def _fd_grad_sup(w: np.ndarray, n_x: int, step: float = 1e-7) -> np.ndarray:
    """Sup norm of the centered-difference gradient of Q, per row of w."""
    shift = step * np.eye(w.shape[1])
    fd = (_q(w[:, None, :] + shift, n_x) - _q(w[:, None, :] - shift, n_x)) / (2.0 * step)
    return np.abs(fd).max(axis=1)


def brute_force_sup(
    n_x: int,
    n_y: int,
    n_starts: int = 200,
    seed: int = 0,
    n_jobs: int = 1,
) -> OracleResult:
    """Maximize Q over (0, inf)^n_x x (0, inf)^n_y by multistart damped Newton.

    Starts are the structured block configurations (both sides, every
    block count, three gamma levels, zeros floored at 1e-6) topped up
    with random log-uniform points on [1e-3, 1e3]^n to n_starts total.
    All starts take the same fixed number of damped Newton steps on the
    box [1e-9, 1e9]^n in log coordinates (see the module docstring).
    Ties in the best value resolve to the earliest start.  n_jobs is
    validated (>= 0) but has no effect: the starts advance together as
    one array, so there is nothing to spread over workers, and the
    result depends only on the arguments that remain.
    """
    n_x, n_y = _integer(n_x, "n_x", 1, 8), _integer(n_y, "n_y", 1, 8)
    n_starts, seed = _integer(n_starts, "n_starts", 1), _integer(seed, "seed", 0)
    _integer(n_jobs, "n_jobs", 0)

    starts = _structured_starts(n_x, n_y)
    n_random = max(0, n_starts - len(starts))
    random = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n_random, n_x + n_y))
    q, w = _ascend(np.concatenate([starts, random * math.log(10.0)]), n_x)
    fd = _fd_grad_sup(w, n_x)
    best = int(np.argmax(q))
    z = np.exp(w[best])
    return OracleResult(
        n_x=n_x,
        n_y=n_y,
        best_value=float(q[best]),
        best_x=tuple(z[:n_x].tolist()),
        best_y=tuple(z[n_x:].tolist()),
        n_starts=len(w),
        converged_fraction=float(np.mean(fd < 1e-9)),
        fd_grad_sup=float(fd[best]),
    )


def check_structured_shape(result: OracleResult) -> bool:
    """True when the oracle's best point has block structure.

    After scaling by the block maximum, one side must be constant and
    the other must consist of entries near 1 (at least one) or near 0,
    each within 1e-3.  Only meaningful for a positive best value.
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
        const_ok = bool(np.all(np.abs(c - gamma) <= 1e-3 * max(1.0, gamma)))
        near_one = np.abs(b - 1.0) <= 1e-3
        near_zero = b <= 1e-3
        block_ok = bool(np.all(near_one | near_zero)) and bool(near_one.any())
        if const_ok and block_ok:
            return True
    return False
