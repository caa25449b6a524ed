"""Cubic forms on the positive orthant and the positivity cone.

A d x d coefficient matrix M defines, for z > 0 and a sign vector
s in {-1, +1}^d, the cubic form

    Psi_M(z, s) = sum_l m_ll z_l^3 + sum_l sum_{k != l} m_lk s_l z_l s_k z_k^2.

M belongs to the positivity cone when Psi_M(z, s) >= 0 for every z > 0
and every sign pattern.  Psi is invariant under flipping all signs, so
it suffices to check the 2^(d-1) canonical patterns (first entry -1).
The all-minus one is the one-sign pattern.  Dropping it, which leaves
2^(d-1) - 1 patterns, is valid for M_d(b) only, where it gives
Psi = (1 - b) M3 + b M1 M2 > 0; general matrices need it.

For the equal-off-diagonal family M_d(b) (unit diagonal, off-diagonal b)
the form collapses: grouping z into the minus block x and the plus
block y,

    Psi_{M_d(b)}(z, s) = (M_3(x) + M_3(y)) * (1 - b * (1 + Q(x, y))),

so M_d(b) passes the balanced pattern exactly for b <= b_d = 1 / (1 + S_d),
where S_d is the supremum of Q over the balanced split
(ceil(d/2), floor(d/2)).  b_2 = 1 and b_3 = b_4 have the closed form
(sqrt((3/5)(39 + 16 sqrt(6))) - 3) / 4.  Over every pattern the
threshold is all_split_threshold(d), below b_d for d >= 4.

General matrices get two sufficient certificates, diagonal dominance
and a perturbation bound around M_d(b), then a search of two-level
vectors for violating pairs (z, s) that can only certify non-membership.

numpy is imported inside the functions that work on explicit matrices,
not at module level, so the M_d(b) route (compute_bd, membership on
either side of b_d, psi on an M_d(b) spec by exact block sums, as psq
verify takes it, the tables) runs in a cold CLI process without loading
it.  Those functions stay in this module because perfbench's tracer
names the cone.* per-layer metrics after the module a function is in.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from . import _LAZY
from .power_sums import _block_power_sums, _integer, _integer_ratios, _is_real, _quotient, _real_array, _validated
from .structured import C_STAR, _expand, _gamma_root, growth_blocks, sup_q

if TYPE_CHECKING:
    import numpy as np

__all__ = _LAZY["cone"]

class MatrixSpec(namedtuple("MatrixSpec", "d b")):
    """M_d(b): unit diagonal, off-diagonal b.  MatrixSpec(d, b) checks d and b, as the removed
    equal_off_diagonal did, and so do _make, _replace and unpickling; b is stored as a float."""

    __slots__ = ()

    def __new__(cls, d: int, b: float) -> "MatrixSpec":
        d = _integer(d, "d", 2)
        if not (_is_real(b) and 0.0 <= b <= 1.0):  # NaN fails too
            raise ValueError(f"b must lie in [0, 1], got {b!r}")
        return super().__new__(cls, d, float(b))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make
    __reduce__ = lambda self: (MatrixSpec, tuple(self))  # every pickle protocol calls __new__

    def dense(self) -> np.ndarray:
        import numpy as np
        m = np.full((self.d, self.d), self.b, dtype=float)
        np.fill_diagonal(m, 1.0)
        return m

    def to_json_dict(self) -> dict:
        return {"d": self.d, "b": self.b}

    @staticmethod
    def from_json_dict(obj: dict) -> MatrixSpec | np.ndarray:
        """A matrix file's object, in one form only: {"d", "b"} gives a MatrixSpec, without numpy;
        {"entries"} or {"d", "entries"} gives _as_matrix's float array, checked against d."""
        if not isinstance(obj, dict):
            raise ValueError("matrix spec must be a JSON object")
        if set(obj) == {"d", "b"}:
            return MatrixSpec(obj["d"], obj["b"])
        if set(obj) not in ({"entries"}, {"d", "entries"}):
            keys = sorted(map(str, obj))
            raise ValueError(f"matrix spec must hold the keys 'd' and 'b', or 'entries' and an optional 'd'; got {keys}")
        m = _as_matrix(obj["entries"])
        if m.shape[0] < 2:
            raise ValueError("matrix must be at least 2 x 2")
        if "d" in obj and _integer(obj["d"], "d", 2) != m.shape[0]:
            raise ValueError(f"declared d={obj['d']} does not match entries of size {m.shape[0]}")
        return m


class PsiWitness(NamedTuple):
    """A (z, s) pair with Psi_M(z, s) < 0, certifying non-membership; psi_value is Psi correctly rounded (JSON null if -inf)."""

    z: Tuple[float, ...]
    s: Tuple[int, ...]
    psi_value: float

    def to_json_dict(self) -> dict:
        return {"z": list(self.z), "s": list(self.s), "psi": self.psi_value if self.psi_value > -math.inf else None}


class MembershipReport(NamedTuple):
    """Verdict for M_d(b): member_certified, nonmember, or inconclusive.

    margin is 1e-8 b_d, relative so that it stays above float resolution
    at every d; b inside it is reported inconclusive rather than resolved
    by a comparison below working precision.  The field only repeats that
    product; it stays because perfbench reads it from reports and from
    the CLI's JSON, until ROADMAP item 2 drops it there.
    """

    d: int
    b: float
    b_d: float
    verdict: str
    margin: float
    witness: Optional[PsiWitness] = None

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "witness": self.witness and self.witness.to_json_dict()}


class GeneralReport(NamedTuple):
    """Verdict for an explicit matrix: sufficient certificate or search.

    method is "diagonal_dominance" or "perturbation" when that
    certificate fired, otherwise "sampling", the two-level search, whose
    verdicts are nonmember or inconclusive and whose n_evaluated counts
    the cubics it screened (0 for a certificate).  Only "perturbation"
    sets diagnostics: {"b", "slack", "threshold", "evaluations"}, the
    last counting dense slack evaluations.
    """

    d: int
    verdict: str
    method: str
    n_evaluated: int
    witness: Optional[PsiWitness] = None
    diagnostics: Optional[dict] = None

    def to_json_dict(self) -> dict:
        diagnostics = None if self.diagnostics is None else dict(self.diagnostics)
        return {**self._asdict(), "witness": self.witness and self.witness.to_json_dict(), "diagnostics": diagnostics}


class BdReport(NamedTuple):
    """The threshold b_d with its companion estimates.

    lower_bound   = growth_lower_bound(d), a lower bound of b_d for every d.
    witness_upper = 1 / (1 + Q(x, y)) for the near-optimal growth pair
    on the balanced split; present only when that quotient is positive
    (which needs ceil(d/2) >= 10).  Rounded, it is not yet a bound: for
    d >= 10^18 it can fall one ulp below b_d (d = 10^18 gives
    3.552025917745213e-17 against b_d = 3.552025917745214e-17).
    asymptotic    = 2 / (c* d);
    exact         = closed-form value, available for d <= 4.
    """

    d: int
    b_d: float
    sup_value: float
    split: Tuple[int, int]
    lower_bound: float
    asymptotic: float
    witness_upper: Optional[float] = None
    exact: Optional[float] = None

    def to_json_dict(self) -> dict:
        return self._asdict()


def _as_matrix(matrix) -> np.ndarray:
    if isinstance(matrix, MatrixSpec):
        return matrix.dense()
    import numpy as np
    arr = _real_array(matrix, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"entries must be a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"matrix must not be empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def _signs(s, d: int) -> list:
    """One sign pattern as d ints, without numpy; True, "1" and None are no signs."""
    try:
        out = list(s)  # an ndarray row gives numpy scalars; np.bool_ is no numbers.Real
    except TypeError:
        out = [None]
    plain = set(map(type, out)) <= {int, float}  # no bool, str or None
    if not (set(out) <= {-1, 1} if plain else all(_is_real(e) and e in (-1, 1) for e in out)):
        raise ValueError("sign pattern entries must be -1 or +1")
    if len(out) != d:
        raise ValueError(f"sign pattern must have length {d}, got shape ({len(out)},)")
    return list(map(int, out))


def _positive_z(z, d: int) -> list:
    """z as d positive ints, floats and Fractions, each within float range."""
    values, types = _validated(z, "z")
    zs = values.tolist() if types is None else values
    if len(zs) != d:
        raise ValueError(f"z must have length {d}, got {len(zs)}")
    if types is not None and types != {float}:
        for i, e in enumerate(zs):
            try:
                f = float(e)
            except OverflowError:
                raise ValueError(f"z[{i}] lies beyond float range") from None
            zs[i] = operator.index(e) if isinstance(e, numbers.Integral) else e if isinstance(e, Fraction) else f
    return zs


def _diag_off(m: np.ndarray):
    """The diagonal of m, and a copy of m with a zero diagonal (same bits as
    m - np.diag(m.diagonal()) for finite m, with one d x d temporary)."""
    off = m.copy()
    off.flat[:: m.shape[0] + 1] = 0.0
    return m.diagonal(), off


def _unit_scaled(m: np.ndarray) -> Tuple[np.ndarray, int, float]:
    """(m 2^-k, k, max|m_ij| 2^-k in [1/2, 1)) (k = 0 for m = 0): exact unless an entry leaves the normal range."""
    import numpy as np
    top, k = math.frexp(float(abs(m).max()))
    return np.ldexp(m, -k), k, top


def _dyadic_matrix(m: np.ndarray) -> Tuple[np.ndarray, int]:
    """Python ints N (an object array) and D = 2^k with m = N / D exactly: np.frexp writes every
    float64, zeros and subnormals too, as a 53-bit integer times 2^e, shifted to 2^min(0, least e)."""
    import numpy as np
    f, e = np.frexp(m)
    lo = min(int(e.min()) - 53, 0)
    return np.ldexp(f, 53).astype(np.int64).astype(object) << (e - 53 - lo).astype(object), 1 << -lo


def _offdiag_psi(blocks, b: float) -> Tuple[int, int]:
    """Exact Psi = num / den, den > 0, of M_d(b) at the (z, s) holding c
    entries v of sign s for each (v, c, s) in blocks.  Psi = (1 - b) M3 +
    b S1 S2 with S_k = sum s z^k; over _integer_ratios' z = N / D and
    b = n_b / q_b, Psi D^3 q_b is the integer (q_b - n_b) N3 + n_b N1 N2."""
    vs, cs, ss = zip(*blocks)
    ns, den = _integer_ratios(vs)
    n1 = n2 = n3 = 0
    for n, c, s in zip(ns, cs, ss):
        n1, n2, n3 = n1 + c * s * n, n2 + c * s * n * n, n3 + c * n ** 3
    n_b, q_b = b.as_integer_ratio()
    return (q_b - n_b) * n3 + n_b * n1 * n2, q_b * den ** 3


def _psi(matrix, z, s) -> Tuple[int, int]:
    """Psi_M(z, s) = num / den exactly, den > 0; every Psi sign psq reports is num's.  An
    M_d(b) MatrixSpec groups z by (value, sign) into blocks for _offdiag_psi, in O(d) without
    numpy.  Any other matrix: Psi = u^T M v with u = s z and v = s z^2, as u_l v_l = z_l^3; over
    the _integer_ratios numerators of z and _dyadic_matrix's N it is u @ (N @ v) in Python ints."""
    if isinstance(matrix, MatrixSpec):
        zs, ss = _positive_z(z, matrix.d), _signs(s, matrix.d)
        return _offdiag_psi([(v, c, sg) for (v, sg), c in Counter(zip(zs, ss)).items()], matrix.b)
    import numpy as np
    m = _as_matrix(matrix)
    d = m.shape[0]
    (zn, zden), s = _integer_ratios(_positive_z(z, d)), np.array(_signs(s, d), dtype=object)
    (mn, mden), zn = _dyadic_matrix(m), np.array(zn, dtype=object)
    return int((s * zn) @ (mn @ (s * zn * zn))), mden * zden ** 3


def _rounded(num: int, den: int) -> float:
    """num / den correctly rounded (int true division), +-inf beyond float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def psi(matrix, z, s) -> float:
    """Psi_M(z, s) for one positive z (ints, floats, Fractions within float range) and one
    sign pattern: the exact value (_psi) correctly rounded, +-inf beyond float range,
    never NaN.  On an M_d(b) MatrixSpec it takes O(d) and loads no numpy."""
    return _rounded(*_psi(matrix, z, s))


def psi_over_patterns(matrix, z, patterns) -> np.ndarray:
    """Psi_M(z, s) in floats for one z and a stack of sign patterns (rows);
    a float screen, not rounded from the exact value."""
    import numpy as np
    m = _as_matrix(matrix)
    d = m.shape[0]
    zv = np.array(_positive_z(z, d), dtype=float)
    try:
        pats = _real_array(patterns, "s")  # True and "1" are no signs
    except ValueError:
        raise ValueError("sign pattern entries must be -1 or +1") from None
    if pats.ndim != 2 or pats.shape[-1] != d:
        raise ValueError(f"sign pattern must have shape (n, {d}), got shape {pats.shape}")
    if not (abs(pats) == 1).all():
        raise ValueError("sign pattern entries must be -1 or +1")
    diag, off = _diag_off(m)
    return float(diag @ zv ** 3) + (((pats * zv) @ off) * (pats * (zv * zv))).sum(axis=1)


def _sign_patterns(d: int) -> np.ndarray:
    """All 2^(d-1) canonical sign patterns, in index order, as int8 rows.

    Pattern index k encodes entries 2..d in its bits (bit set = -1) and
    entry 1 is always -1, so the last row is the all-minus pattern.
    Built by doubling: column c stacks [P, +1] over [P, -1].
    """
    import numpy as np
    pats = np.empty((1 << (d - 1), d), dtype=np.int8)
    pats[0, 0] = -1
    for c in range(1, d):
        n = 1 << (c - 1)
        pats[n : 2 * n, :c] = pats[:n, :c]
        pats[:n, c] = 1
        pats[n : 2 * n, c] = -1
    return pats


def enumerate_sign_patterns(d: int) -> np.ndarray:
    """All 2^(d-1) - 1 canonical sign patterns as an (n, d) int8 array.

    Canonical: first entry -1, all-minus excluded.  Refuses d > 24,
    since the count is exponential.
    """
    d = _integer(d, "d", 2, 24)
    return _sign_patterns(d)[:-1]


def reduced_sign_pattern(d: int) -> Tuple[int, ...]:
    """The balanced pattern: ceil(d/2) minuses followed by floor(d/2) pluses."""
    minus, plus = _balanced_split(_integer(d, "d", 2))
    return (-1,) * minus + (1,) * plus


def b3_radical() -> float:
    """Closed form shared by b_3 and b_4: (sqrt((3/5)(39 + 16 sqrt 6)) - 3)/4."""
    return (math.sqrt(0.6 * (39.0 + 16.0 * math.sqrt(6.0))) - 3.0) / 4.0


def _balanced_split(d: int) -> Tuple[int, int]:
    return (d - d // 2, d // 2)


def growth_lower_bound(d: int) -> float:
    """Lower bound on b_d from the linear growth bound sup Q < c* n.

    The balanced split has max(n_x, n_y) = ceil(d/2), so
    1 / (1 + c* ceil(d/2)) <= b_d always.  The sharper published form
    1 / (1 + c* floor(d/2)) coincides with it for even d, and for odd
    d <= 6 it still holds (sup Q = 0.0391 < c* for d = 3, and
    0.1079 < 2 c* for d = 5); for odd d >= 7 it exceeds b_d.
    ValueError unless d is an integer >= 2 whose half fits in a float.
    """
    d = _integer(d, "d", 2)
    half = d // 2 if d % 2 == 0 or d <= 6 else d - d // 2
    try:
        return 1.0 / (1.0 + C_STAR * half)
    except OverflowError:
        raise ValueError(f"d is too large for float64, got {d!r}") from None


def all_split_threshold(d: int) -> float:
    """t_d = 1 / (1 + max(0, max_{1 <= a <= d/2} sup_q(a, d - a))).

    M_d(b) is in the cone exactly for 0 <= b <= t_d: Q is symmetric, so
    these splits cover every pattern with both signs, and a one-sign
    pattern gives Psi = (1 - b) M3 + b M1 M2 >= 0.  Equal to b_d for
    d <= 3, below it for d >= 4, where an unbalanced split beats the
    balanced one.  O(1), and 1 / (1 + C_T d) < t_d, by two facts about
    phi(p) = F(p) / (1 + p), F(p) = max_gamma f(p, gamma):

    1. Only full short blocks count.  i units against m constants give
       m F(i/m), rising strictly in m (sup_q's shorter-vector proof).  A block
       on the short side has i <= a, m = d - a; on the long side i < m = a.
       Both have i <= d // 2 and m <= d - i, so the value is at most that of
       the full block of split (i, d - i), d phi(i / (d - i)) <= C_T d.
    2. phi peaks once, at P_T.  Along sup_q's root curve p(gamma),
       F'(p)(1 + p) - F(p) = (1 - gamma) q(gamma) / (9 gamma (1 + gamma)
       (1 + gamma^2)) with q / gamma^2 = u^2 - 4u - 8, u = gamma + 1/gamma,
       which falls once through 0, at GAMMA_T, as gamma rises on (0, 1).
       i / (d - i) <= P_T iff i <= ALPHA_T d = (3d - X) / 6, X = d sqrt(3 + 2 sqrt 3), so only
       the splits k = floor(ALPHA_T d) = (3d - floor(X) - 1) // 6 (X is irrational), floor(X) =
       isqrt(3d^2 + isqrt(12d^4)), and k + 1, within [1, d // 2], are evaluated.
    """
    d = _integer(d, "d", 1)
    k = (3 * d - math.isqrt(3 * d * d + math.isqrt(12 * d ** 4)) - 1) // 6
    sup = max((sup_q(a, d - a).sup_value for a in (k, k + 1) if 1 <= a <= d // 2), default=0.0)
    return 1.0 / (1.0 + sup)


def _bd_from_sup(d: int):
    res = sup_q(*_balanced_split(d))
    return 1.0 / (1.0 + res.sup_value), res


_RANDOM_PATTERNS = 512  # random rows of the sampler's pattern set, next to the d minus blocks
_SLICE_CUBICS = 1 << 16  # the search screens at most this many cubics (patterns x blocks) at once


def compute_bd(d: int) -> BdReport:
    """Threshold b_d = 1 / (1 + sup Q over the balanced split of d).

    Bundles the growth-bound lower estimate, the witness upper bound
    from the near-optimal growth pair (when its quotient is positive),
    the asymptotic 2 / (c* d) and the closed form for d <= 4.  The pair
    is growth_blocks(ceil(d/2))[0] against growth_blocks(floor(d/2))[1],
    Q of its blocks in O(1).  ValueError when d is too large for float64.
    """
    d = _integer(d, "d", 2)
    bd, res = _bd_from_sup(d)
    try:
        (x, _), (_, y) = map(growth_blocks, _balanced_split(d))
        qg = _quotient(_block_power_sums(x), _block_power_sums(y)).value
    except (OverflowError, ValueError):  # with d >= 2, only float64 overflows
        raise ValueError("d is too large: the growth-pair quotient overflows float64") from None
    return BdReport(
        d=d,
        b_d=bd,
        sup_value=res.sup_value,
        split=(res.n_x, res.n_y),
        lower_bound=growth_lower_bound(d),
        asymptotic=2.0 / (C_STAR * d),
        witness_upper=1.0 / (1.0 + qg) if qg > 0.0 else None,
        exact=1.0 if d == 2 else b3_radical() if d in (3, 4) else None,
    )


def membership_equal_offdiag(d: int, b: float) -> MembershipReport:
    """Decide M_d(b) against the threshold b_d with a margin of 1e-8 b_d.

    b <= b_d - margin: member_certified.  b >= b_d + margin: nonmember,
    with the witness z = (1^i, gamma^(d - i)), s = (-1^i, +1^(d - i)):
    the unit count i of the balanced maximizer as a full block against
    all d - i remaining entries, at gamma = the root for (i, d - i).  Its
    Q is at least the balanced sup, since the best value of an (i, m)
    configuration rises with m (sup_q), so Psi < 0 with no
    closure zeros.  Psi is decided exactly, in O(1) from the two blocks,
    and psi_value is it correctly rounded.  Inside the margin: inconclusive.
    """
    spec = MatrixSpec(d, b)
    d, bd, res = spec.d, *_bd_from_sup(spec.d)
    margin = 1e-8 * bd
    report = partial(MembershipReport, d=d, b=spec.b, b_d=bd, margin=margin)

    if spec.b <= bd - margin:
        return report(verdict="member_certified")
    if spec.b >= bd + margin:
        i = res.maximizing_config.i
        gamma = _gamma_root(i, d - i)
        num, den = _offdiag_psi([(1.0, i, -1), (gamma, d - i, 1)], spec.b)
        if num >= 0:
            raise RuntimeError(f"b={b!r} exceeds b_{d}={bd!r} but the block witness has Psi >= 0")
        z, s = _expand(((1.0, i), (gamma, d - i)), ((-1, i), (1, d - i)), kind=tuple)
        return report(verdict="nonmember", witness=PsiWitness(z=z, s=s, psi_value=num / den))
    return report(verdict="inconclusive")


def _sampled_patterns(d: int) -> np.ndarray:
    import numpy as np
    # Minus blocks of every length (a = ceil(d/2): balanced, a = d: one-sign), then random rows; repeats dropped.
    pats = [(-1,) * a + (1,) * (d - a) for a in range(1, d + 1)]
    rand = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=(_RANDOM_PATTERNS, d))
    rand[:, 0] = -1
    rows = dict.fromkeys(map(bytes, np.concatenate([np.array(pats, dtype=np.int8), rand], axis=0)))
    return np.frombuffer(b"".join(rows), dtype=np.int8).reshape(-1, d)


def _two_level(n: np.ndarray, pats: np.ndarray) -> tuple:
    """Per (pattern, block): (a0, a1, a2, a3), 3 candidates r, and which r > 0 screen negative.

    At u = (r on A, 1 off A), Psi_N(u, s) = a3 r^3 + a2 r^2 + a1 r + a0 sums S = N o s s^T over
    A x A, A^c x A, A x A^c and A^c x A^c.  Candidates, NaN where absent: the local minimum; min(1,
    |low| / (2 sum|a_i|)) if the lowest nonzero a_i is negative, max(1, 2 sum|a_i| / |high|) if the
    highest is, where that term outweighs the rest.  Screened: finite, and the float cubic < 0.
    """
    import numpy as np
    p = pats.astype(float)
    rows, cols = p * (p @ n.T), p * (p @ n)  # S's row and column sums
    grow = p * (p @ (np.tril(n) + np.tril(n.T, -1)).T)  # A x A gains as a prefix takes entry j
    a3 = np.concatenate([grow.cumsum(axis=1)[:, :-1], np.broadcast_to(n.diagonal(), p.shape)], axis=1)
    a1, a2 = (np.concatenate([x.cumsum(axis=1)[:, :-1], x], axis=1) - a3 for x in (rows, cols))
    a0 = rows.sum(axis=1, keepdims=True) - a1 - a2 - a3
    low, high, size = a3, a0, 2.0 * (abs(a0) + abs(a1) + abs(a2) + abs(a3))
    for lo, hi in ((a2, a1), (a1, a2), (a0, a3)):
        low, high = np.where(lo != 0.0, lo, low), np.where(hi != 0.0, hi, high)
    r = np.empty((3, *a0.shape))
    sq = np.sqrt(a2 * a2 - 3.0 * a3 * a1)  # the local minimum, in whichever form does not cancel;
    r[0] = np.where(a2 < 0.0, (sq - a2) / (3.0 * a3), -a1 / (a2 + sq))  # the second is stable as a3 -> 0
    r[1] = np.where(low < 0.0, np.minimum(1.0, -low / size), np.nan)
    r[2] = np.where(high < 0.0, np.maximum(1.0, size / -high), np.nan)
    neg = [(((a3 * x + a2) * x + a1) * x + a0 < 0.0) & (x > 0.0) & (x < math.inf) for x in r]
    return (a0, a1, a2, a3), r, np.stack(neg)


def sample_membership_general(matrix) -> GeneralReport:
    """Search two-level vectors for a violating (z, s) pair of an explicit matrix.

    With v_l = m_ll^(-1/3) where m_ll > 0, else 1, and N = 2^-k V M V^2 (from np.frexp parts, so
    |N| < 1 at any range of M), Psi_N(u, s) = 2^-k Psi_M(v o u, s), a cubic in r at u = (r on A, 1
    off A) (_two_level), for each block A (the d - 1 proper prefixes, then the d singletons) and each
    pattern s: all canonical ones while 2^(d-1) <= d + 512, else the d minus blocks and the distinct
    ones of 512 random rows drawn from default_rng(0) (both sets hold the one-sign pattern).
    n_evaluated counts the cubics, patterns x (2d - 1), screened in slices of consecutive patterns of
    at most _SLICE_CUBICS (one slice for d <= 16).  In pattern, then block order, the first candidate
    z = v o u (2^-j v o u beyond float max; Psi is cubic in z) with exact Psi on M (_psi) < 0 is the
    witness, psi_value that Psi correctly rounded; else inconclusive: the search never certifies.
    For d > 16 the float candidates, and so a witness's bits, can differ with the BLAS build: BLAS
    sums p @ n in an order that depends on the row count.  _psi keeps every verdict exact, and the
    slicing itself is a fixed function of d.

    The earlier fixed probes are covered.  For a constant diagonal, up to scale, the ones
    vector is r = 1 in any block, a spike 10^(+-3) a singleton at that r and the gamma grid
    prefixes at r = 1 / gamma; where one is negative, so is (exactly) a candidate of its cubic.
    The tests check the rest (other diagonals, split maximizers, random probes) on seeded sets.
    """
    import numpy as np
    m = _as_matrix(matrix)
    d = m.shape[0]
    pats = _sign_patterns(d) if 1 << (d - 1) <= d + _RANDOM_PATTERNS else _sampled_patterns(d)
    report = partial(GeneralReport, d, method="sampling", n_evaluated=len(pats) * (2 * d - 1))
    step = max(1, _SLICE_CUBICS // (2 * d - 1))
    with np.errstate(all="ignore"):  # overflow and 0/0 in the screen only give candidates it drops
        v = np.where(m.diagonal() > 0.0, m.diagonal(), 1.0) ** (-1.0 / 3.0)
        (fv, ev), (fm, em) = np.frexp(v), np.frexp(m)
        e = ev[:, None] + em + 2 * ev  # N's exponents: its mantissa products lie in [1/8, 1)
        n = np.ldexp(fv[:, None] * fm * (fv * fv), e - e[fm != 0.0].max(initial=0))
        for lo in range(0, len(pats), step):
            _, r, hits = _two_level(n, pats[lo : lo + step])
            for k, a, i in np.argwhere(hits.transpose(1, 2, 0)):
                u = np.ones(d)
                u[slice(a + 1) if a < d - 1 else a - d + 1] = r[i, k, a]
                z = v * u
                if not (z < math.inf).all():  # Psi is cubic in z, so 2^-j z keeps its sign
                    z = np.ldexp(v, -math.frexp(r[i, k, a])[1]) * u
                if (z > 0.0).all():
                    zt, st = tuple(z.tolist()), tuple(pats[lo + k].tolist())
                    num, den = _psi(m, zt, st)
                    if num < 0:
                        return report(verdict="nonmember", witness=PsiWitness(z=zt, s=st, psi_value=_rounded(num, den)))
    return report(verdict="inconclusive")


def certify_general(matrix) -> GeneralReport:
    """Three-stage check for an explicit matrix.

    Diagonal dominance, then the perturbation certificate (both sufficient, so a hit is
    member_certified), then the search of sample_membership_general.

    Perturbation certificate.  Let t = all_split_threshold(d), b >= 0 and E = M - M_d(b).  Every
    pattern splits z into blocks with 1 + Q <= 1/t, so Psi_{M_d(b)}(z, s) = M3(z) (1 - b (1 + Q))
    >= M3(z) (1 - b/t).  Weighted AM-GM, z_l z_k^2 <= (z_l^3 + 2 z_k^3)/3, bounds each
    off-diagonal term of Psi_E; collecting z_l^3 gives Psi_M(z, s) >= sum_l z_l^3 slack_l(b) with

        slack_l(b) = m_ll - b/t - sum_{k != l} (|m_lk - b| + 2 |m_kl - b|) / 3.

    f(b) = min_l slack_l(b) is concave and piecewise linear, bending only where b is an
    off-diagonal entry.  A binary search over 0, those entries and hi = max(t, max_{k != l} m_lk)
    (f falls beyond every entry, so t there needs no scaling) finds the last candidate where f's
    right slope (least among the minimizing rows) is positive; by concavity the maximum lies before
    the next candidate, where each row is a line, at the crossing of the lowest rising and falling
    lines.  M is certified when f there exceeds 1e-9 d max|m_ij|, far above the float error of t,
    the sums and a subnormal entry of the copy below.  Both certificates are linear in M: they run
    on M 2^-k (_unit_scaled), where no sum overflows, and b and the slack are scaled back.  The
    dominance test has no margin, so it certifies only where that copy is exact.
    """
    import numpy as np
    m = _as_matrix(matrix)
    d = m.shape[0]
    n, k, top = _unit_scaled(m)
    diag, off = _diag_off(n)
    if diag.min() > float(abs(off).sum()) and (np.ldexp(n, k) == m).all():
        return GeneralReport(d, "member_certified", "diagonal_dominance", 0)
    b, slack, t, evaluations = _best_perturbation_slack(n)
    if slack > 1e-9 * (d * top):
        diagnostics = {"b": math.ldexp(b, k), "slack": math.ldexp(slack, k), "threshold": t, "evaluations": evaluations}
        return GeneralReport(d, "member_certified", "perturbation", 0, diagnostics=diagnostics)
    del n, diag, off  # the search builds its own d x d arrays
    return sample_membership_general(m)


def _best_perturbation_slack(m: np.ndarray) -> Tuple[float, float, float, int]:
    """(b, min_l slack_l(b), t, dense slack evaluations) at the best b; certify_general passes M 2^-k."""
    import numpy as np
    d = m.shape[0]
    t = all_split_threshold(d)
    diag, off = m.diagonal(), ~np.eye(d, dtype=bool)
    evaluations = 0

    def slacks(b):
        nonlocal evaluations
        evaluations += 1
        a = abs(m - b)
        np.fill_diagonal(a, 0.0)
        rows = diag - b / t - (a.sum(axis=1) + 2.0 * a.sum(axis=0)) / 3.0
        # Right slopes: d|m - b|/db = +1 where m <= b, else -1; f's is the least over minimizing rows.
        le = (m <= b) & off
        slopes = -1.0 / t - (2 * (le.sum(axis=1) + 2 * le.sum(axis=0)) - 3 * (d - 1)) / 3.0
        return rows, slopes, slopes[rows == rows.min()].min()

    cands = np.sort(np.append(np.maximum(m[off], 0.0), (0.0, m[off].max(initial=t))))
    rows, slopes, rising = slacks(0.0)
    if rising <= 0.0:
        return 0.0, float(rows.min()), t, evaluations
    lo, hi = 0, len(cands) - 1  # f's right slope is > 0 at cands[lo], <= 0 at cands[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        r, s, rising = slacks(cands[mid])
        lo, hi, rows, slopes = (mid, hi, r, s) if rising > 0.0 else (lo, mid, rows, slopes)
    # On [cands[lo], cands[hi]] each slack_l is the line rows + slopes x; f peaks where the
    # lowest rising and falling lines meet, at min over falling q of q's last rising crossing.
    p, q = slopes > 0.0, slopes <= 0.0
    cross = (rows[q] - rows[p, None]) / (slopes[p, None] - slopes[q])
    x = cross.max(axis=0, initial=-np.inf).min(initial=np.inf)
    b = float(np.clip(cands[lo] + x, cands[lo], cands[hi]))
    return b, float(slacks(b)[0].min()), t, evaluations
