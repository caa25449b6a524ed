"""Sharp constants and structured maximization of the power-sum quotient.

Maximizers of Q over a pair of positive orthants degenerate to block
form: one side is a 0/1 block vector (i unit entries, the rest tending
to zero), the other side is a constant vector.  After scaling the block
value to 1, a configuration with i unit entries against m entries equal
to gamma has

    g_{i,m}(gamma) = (i - m*gamma) * (m*gamma**2 - i) / (i + m*gamma**3)

and the supremum of Q over R^{n_x} x R^{n_y} is the best such value
over both side assignments and all integer i.  The zeros are closure
limits, so the supremum is approached but never attained.

The continuous relaxation i = p*n collapses to the two-variable problem

    f(p, gamma) = (p - gamma) * (gamma**2 - p) / (p + gamma**3)

whose unique positive critical point is

    p*     = (16 - 5*sqrt(7)) / 27  ~ 0.102
    gamma* = (sqrt(7) - 2) / 3      ~ 0.215
    c*     = (7*sqrt(7) - 17) / 27  ~ 0.0563  (the value f(p*, gamma*))

c* governs the sharp linear growth sup Q < c* * n.

Homogeneity, g_{i,m}(gamma) = m * f(i/m, gamma), makes sup_q closed
form: the best gamma of a configuration is the single root in (0, 1)
of a quartic, max_gamma f(p, gamma) is unimodal in p with its peak at
p*, and the unit block belongs on the shorter vector, so only the block
counts floor(p* m) and ceil(p* m) against the longer length m are
evaluated.  The cost is O(1) in the dimensions; sup_q's docstring holds
the proofs and describes its memo.  Positive-quotient witnesses are that
maximizer materialized with eps = 1e-6 in place of the closure zeros.
Such a pair is kept as blocks ((value, count), ...) per vector, and its
Q comes from the blocks' exact sums in O(1), with the bits of quotient_q
on the lists, which are built only for output.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional

from . import _LAZY
from .power_sums import _block_power_sums, _integer, _is_real, _quotient

__all__ = _LAZY["structured"]

SQRT7 = math.sqrt(7.0)
C_STAR = (7.0 * SQRT7 - 17.0) / 27.0
P_STAR = (16.0 - 5.0 * SQRT7) / 27.0
GAMMA_STAR = (SQRT7 - 2.0) / 3.0

# Peak of F(p) / (1 + p), F(p) = max_gamma f(p, gamma) (see cone.all_split_threshold);
# P_T = (7 + 3 sqrt 3 - sqrt(72 + 42 sqrt 3)) / 2, written without the cancellation.
_SQRT3 = math.sqrt(3.0)
GAMMA_T = 1.0 + _SQRT3 - math.sqrt(3.0 + 2.0 * _SQRT3)
P_T = 2.0 / (7.0 + 3.0 * _SQRT3 + math.sqrt(72.0 + 42.0 * _SQRT3))
ALPHA_T = (3.0 - math.sqrt(3.0 + 2.0 * _SQRT3)) / 6.0
C_T = (2.0 * _SQRT3 - 3.0) / 9.0
_SUP_Q_SHAPES = 256  # how many recently used shapes keep their sup_q result

class StructuredConfig(NamedTuple):
    """One block configuration: i unit entries vs m constant entries.

    side says which vector carries the unit block: the shorter one, x on
    a tie.  The other vector is constant at gamma.  q_value =
    g_{i,m}(gamma), the configuration's Q (the same for either side).
    """

    i: int
    m: int
    gamma: float
    side: str  # "x_is_block" or "y_is_block"
    q_value: float


class SupQResult(NamedTuple):
    """Supremum of Q over positive orthants of dimensions (n_x, n_y).

    attained is always False: the supremum is approached through
    closure limits (block zeros, or x -> y in the degenerate case).
    """

    n_x: int
    n_y: int
    sup_value: float
    maximizing_config: StructuredConfig
    attained: bool = False

    def witness_blocks(self, eps: float = 1e-6):
        """The maximizing configuration as blocks ((value, count), ...) of
        x and y, with eps, a real in (0, inf) but no bool, for the closure
        zeros of the block side.  Q of the pair tends to sup_value as eps -> 0."""
        if not (_is_real(eps) and 0 < eps < math.inf):
            raise ValueError(f"eps must be positive and finite, got {eps!r}")
        c = self.maximizing_config  # the block is on the shorter vector
        block, const = ((1.0, c.i), (eps, min(self.n_x, self.n_y) - c.i)), ((c.gamma, c.m),)
        return (block, const) if c.side == "x_is_block" else (const, block)

    def witness_pair(self, eps: float = 1e-6):
        """witness_blocks(eps) as lists x, y; ValueError if they are too long to build (_expand)."""
        return _expand(*self.witness_blocks(eps))


def _expand(*vectors, kind=list):
    """Each vector's blocks as a kind, list or tuple; ValueError if one exceeds sys.maxsize or cannot be allocated."""
    n = max(sum(c for _, c in blocks) for blocks in vectors)
    if n > sys.maxsize:
        raise ValueError(f"vector length {n} exceeds sys.maxsize")
    try:
        return tuple(sum((kind((v,)) * c for v, c in blocks), kind()) for blocks in vectors)
    except MemoryError:
        raise ValueError(f"vector length {n} is too large to build") from None


def _lists_and_q(blocks):
    """A block pair as lists x, y, built first (_expand), and its Q from the blocks' exact sums."""
    return (*_expand(*blocks), _quotient(*map(_block_power_sums, blocks)).value)


def reduced_objective(p: float, gamma: float) -> float:
    """f(p, gamma) = (p - gamma)(gamma^2 - p)/(p + gamma^3), p, gamma > 0."""
    if not (p > 0 and gamma > 0):  # NaN fails too
        raise ValueError("p and gamma must be > 0")
    return (p - gamma) * (gamma * gamma - p) / (p + gamma ** 3)


def _reduced_value_dp(p: float, gamma: float):
    """f(p, gamma) and df/dp."""
    s1 = p - gamma
    s2 = gamma * gamma - p
    s3 = p + gamma ** 3
    f = s1 * s2 / s3
    return f, (s2 - s1 - f) / s3


def solve_reduced():
    """Closed-form maximizer (p*, gamma*, c*) of the reduced objective.

    The point is re-derived through the root route of sup_q: the root
    gamma of h(p*, .) must equal gamma* (that is, p(gamma*) = p*), f
    there must equal c*, and df/dp must vanish there (the envelope
    condition F'(p*) = 0), each within 1e-9, else RuntimeError.
    """
    g = _gamma_root(P_STAR, 1.0)
    f, fp = _reduced_value_dp(P_STAR, g)
    if abs(g - GAMMA_STAR) > 1e-9 or abs(f - C_STAR) > 1e-9 or abs(fp) > 1e-9:
        raise RuntimeError(
            f"root route disagrees with closed form: gamma {g!r}, "
            f"value {f!r}, df/dp {fp!r}"
        )
    return P_STAR, GAMMA_STAR, C_STAR


def _g_config(i: int, m: int, gamma: float) -> float:
    return (i - m * gamma) * (m * gamma * gamma - i) / (i + m * gamma ** 3)


def _quartic(i: int, m: int, gamma: float) -> float:
    """m * h(gamma) with p = i/m: m g^4 + 2m g^3 + 3(m - i) g^2 - 2i g - i."""
    return (((m * gamma + 2 * m) * gamma + 3 * (m - i)) * gamma - 2 * i) * gamma - i


def _gamma_root(i: int, m: int) -> float:
    """The root in (0, 1) of h for p = i/m < 1, by Newton from gamma = 1.

    h is strictly convex on [0, 1] (h'' = 12 g^2 + 12 g + 6(1 - p) > 0)
    with h(0) = -p < 0 < 6(1 - p) = h(1), so Newton steps from the right
    decrease monotonically to the root and never overshoot it; iterate
    until rounding stops the decrease.
    """
    g = 1.0
    while True:
        slope = ((4 * m * g + 6 * m) * g + 6 * (m - i)) * g - 2 * i
        nxt = g - _quartic(i, m, g) / slope
        if not nxt < g:
            return g
        g = nxt


def sup_q(n_x: int, n_y: int) -> SupQResult:
    """Supremum of Q over positive orthants of dimensions (n_x, n_y).

    Closed form, O(1) in the dimensions: the unit block sits on the
    shorter vector (x on a tie) against the full longer length m, and
    only the counts i in {floor(p* m), ceil(p* m)}, clipped to [1,
    shorter length], are evaluated, each at the single root gamma of a
    quartic.  The value is >= 0, with equality exactly for (1, 1),
    where the degenerate x = y limit (gamma -> 1) is reported.
    psq.oracle checks every block count for all dimensions up to 8.

    Why two candidates suffice.  By homogeneity g_{i,m}(gamma) =
    m f(p, gamma) with p = i/m, and three facts about f hold:

    1. One root per configuration.  df/dgamma has the sign of -h(gamma),
       h(gamma) = gamma^4 + 2 gamma^3 + 3(1 - p) gamma^2 - 2p gamma - p.
       The coefficients change sign once, so by Descartes' rule h has
       exactly one positive root; h(0) = -p < 0 and h(1) = 6(1 - p), so
       the root lies in (0, 1) iff p < 1, and it is the maximizer of
       f(p, .) there.  For p >= 1, f increases on (0, 1) and the value
       is the gamma -> 1 limit -(1 - p)^2 / (1 + p) <= 0.  Such
       configurations are skipped; only (1, 1) has no other kind.
    2. The root as an explicit curve.  h = 0 is equivalent to
       p(gamma) = gamma^2 (gamma^2 + 2 gamma + 3) / (3 gamma^2 + 2 gamma + 1),
       whose derivative has numerator 6 gamma (gamma + 1)^2 (gamma^2 + 1)
       > 0.  So the root gamma(p) is strictly increasing from 0 to 1
       as p runs over (0, 1), and h is convex there, so monotone
       Newton from gamma = 1 finds it (_gamma_root).
    3. F(p) = max_gamma f(p, gamma) is unimodal with its peak at p*.
       Along the curve, df/dp = -(1 - gamma)(3 gamma^2 + 4 gamma - 1)
       / (9 gamma (1 + gamma)(1 + gamma^2)), positive for gamma <
       gamma* = (sqrt 7 - 2)/3 (the root of 3 gamma^2 + 4 gamma - 1)
       and negative for gamma* < gamma < 1.  By the envelope theorem
       F'(p) = df/dp at (p, gamma(p)), and gamma(p) is increasing, so F
       increases for p < p* = p(gamma*) and decreases after it.  Hence
       m F(i/m) over integers i is largest at floor(p* m) or ceil(p* m),
       or at the block length when that is smaller.  That floor is exact:
       p* = (16 - sqrt 175) / 27, s = isqrt(175 m^2) < sqrt(175) m < s + 1
       (the root is irrational), so p* m lies in ((16 m - s - 1) / 27,
       (16 m - s) / 27), which holds no integer: floor(p* m) = (16 m - s - 1) // 27.

    Why the block sits on the shorter vector, against its full length.
    For 1 <= i < m, m F(i/m) rises strictly with m: one more y entry at
    0 next to the (i, m) maximizer (s1, s2 < 0) raises Q at the rate
    -s2/s3 > 0, and Q then peaks at a constant y of length m + 1
    (psq.oracle's fact 2).  So every count the longer side could take as
    the block is open to the shorter side too, against a larger m.  Ties
    resolve to the smaller i.  The winner must satisfy |h(gamma)| <=
    1e-12 p, else RuntimeError.  Dimensions whose float arithmetic
    overflows (from about 1e154) raise ValueError.  Results are memoized
    per shape, the _SUP_Q_SHAPES = 256 most recent, and shared by
    compute_bd, membership, all_split_threshold and positivity_witness;
    bad dimensions are rejected before the lookup.
    """
    return _sup_q(_integer(n_x, "n_x", 1), _integer(n_y, "n_y", 1))  # checked first: 2.0 and True hash like 2 and 1


def _floor_p_star(m: int) -> int:
    """floor(p* m), exactly in integers (sup_q's fact 3 proves it)."""
    return (16 * m - math.isqrt(175 * m * m) - 1) // 27


@functools.lru_cache(maxsize=_SUP_Q_SHAPES)
def _sup_q(n_x: int, n_y: int) -> SupQResult:
    side, block_len, m = ("x_is_block", n_x, n_y) if n_x <= n_y else ("y_is_block", n_y, n_x)
    best: Optional[StructuredConfig] = None
    try:
        k = _floor_p_star(m)
        for i in sorted({min(max(k, 1), block_len), min(k + 1, block_len)}):
            if i >= m:
                continue
            gamma = _gamma_root(i, m)
            value = _g_config(i, m, gamma)
            if best is None or value > best.q_value:
                best = StructuredConfig(i, m, gamma, side, value)
        if best is not None and not math.isfinite(best.q_value):
            raise OverflowError
    except OverflowError:
        raise ValueError("dimensions too large: the block arithmetic overflows float64") from None

    if best is None:
        # Only (1, 1): no configuration has p < 1; sup 0 is the x = y limit.
        best = StructuredConfig(1, 1, 1.0, "x_is_block", 0.0)
    elif abs(residual := _quartic(best.i, best.m, best.gamma)) > 1e-12 * best.i:
        raise RuntimeError(
            f"root check failed at config (i={best.i}, m={best.m}, "
            f"gamma={best.gamma!r}): m*h(gamma) = {residual!r}"
        )
    return SupQResult(n_x=n_x, n_y=n_y, sup_value=best.q_value, maximizing_config=best, attained=False)


def growth_blocks(n: int, extra_component: bool = False):
    """Near-optimal pair: floor(p*n) unit entries padded with 1/n, vs gamma*.

    x has floor(p*n) entries equal to 1 and 1/n elsewhere (length n);
    y is the constant vector gamma* of length n.  With
    extra_component=True, x gets one more 1/n entry (length n+1).
    Q of the pair is negative for n <= 9 and approaches c* * n from
    below as n grows; at n = 10**4 the ratio Q/n is within 1% of c*.
    Returns the blocks ((value, count), ...) of x and y.
    """
    n = _integer(n, "n", 1)
    try:
        i, inv = _floor_p_star(n), 1.0 / n
    except OverflowError:
        raise ValueError(f"n is too large for float64, got {n!r}") from None
    return ((1.0, i), (inv, n - i + bool(extra_component))), ((GAMMA_STAR, n),)


def witness_vectors(n: int, extra_component: bool = False):
    """growth_blocks(n, extra_component) as lists x, y; ValueError if they are too long to build (_expand)."""
    return _expand(*growth_blocks(n, extra_component))


def positivity_witness(n_x: int, n_y: int):
    """A pair with Q > 0 for dimensions (n_x, n_y), or None for (1, 1).

    Requires n_x == n_y or n_x == n_y + 1.  The pair is sup_q's
    maximizing configuration, witness_pair() with its eps = 1e-6 for the
    closure zeros, and its Q is computed from the blocks in O(1).
    Returns (x, y, q) with q = Q(x, y) > 0.

    One eps suffices.  Q is symmetric; with the unit block of length n
    on x, Q = (M1(x) - M1(y)) (M2(y) - M2(x)) / (M3(x) + M3(y)).  The
    maximizer has gamma^2 < i/m < gamma (the root curve of sup_q lies
    between them), so at eps = 0 both factors are negative: M1(x) = i <
    m gamma and M2(x) = i > m gamma^2.  The zeros only raise M2(x), and
    they add (n - i) 1e-6 to M1(x), far below m gamma - i = m (gamma - p),
    which is about 0.1 m or more.  RuntimeError if q is not positive all
    the same.
    """
    res = sup_q(n_x, n_y)  # checks that both are integers >= 1
    if n_x not in (n_y, n_y + 1):
        raise ValueError(f"need n_x == n_y or n_x == n_y + 1, got ({n_x}, {n_y})")
    if (n_x, n_y) == (1, 1):
        return None
    x, y, q = _lists_and_q(res.witness_blocks())
    if not q > 0.0:
        raise RuntimeError(f"no positive witness found for ({n_x}, {n_y})")
    return x, y, q
