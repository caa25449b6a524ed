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
and a perturbation bound around M_d(b), then a randomized search for
violating pairs (z, s) that can only ever certify non-membership.

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
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Tuple

from .power_sums import _block_power_sums, _integer, _is_real, _quotient, _real_array, _validated
from .structured import ALPHA_T, C_STAR, _gamma_root, growth_blocks, sup_q

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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
]

class MatrixSpec(NamedTuple):
    """Coefficient matrix, either the M_d(b) family or explicit entries."""

    d: int
    b: Optional[float] = None
    entries: Optional[Tuple[Tuple[float, ...], ...]] = None

    @classmethod
    def equal_off_diagonal(cls, d: int, b: float) -> "MatrixSpec":
        d = _integer(d, "d", 2)
        if not (_is_real(b) and 0.0 <= b <= 1.0):  # NaN fails too
            raise ValueError(f"b must lie in [0, 1], got {b!r}")
        return cls(d=d, b=float(b))

    @classmethod
    def general(cls, entries) -> "MatrixSpec":
        arr = _as_matrix(entries)
        if arr.shape[0] < 2:
            raise ValueError("matrix must be at least 2 x 2")
        rows = tuple(tuple(float(v) for v in row) for row in arr)
        return cls(d=arr.shape[0], entries=rows)

    @property
    def kind(self) -> str:
        return "general" if self.entries is not None else "equal_off_diagonal"

    def dense(self) -> np.ndarray:
        import numpy as np
        if self.entries is not None:
            return np.array(self.entries, dtype=float)
        m = np.full((self.d, self.d), self.b, dtype=float)
        np.fill_diagonal(m, 1.0)
        return m

    def to_json_dict(self) -> dict:
        if self.entries is not None:
            return {"d": self.d, "entries": [list(row) for row in self.entries]}
        return {"d": self.d, "b": self.b}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MatrixSpec":
        if not isinstance(obj, dict):
            raise ValueError("matrix spec must be a JSON object")
        if "entries" in obj:
            spec = cls.general(obj["entries"])
            if "d" in obj and _integer(obj["d"], "d", 2) != spec.d:
                raise ValueError(
                    f"declared d={obj['d']} does not match entries of size {spec.d}"
                )
            return spec
        if "b" in obj:
            if "d" not in obj:
                raise ValueError("equal-off-diagonal spec needs both 'd' and 'b'")
            return cls.equal_off_diagonal(obj["d"], obj["b"])
        raise ValueError("matrix spec needs either 'entries' or ('d', 'b')")


class PsiWitness(NamedTuple):
    """A (z, s) pair with Psi_M(z, s) < 0, certifying non-membership; psi_value is Psi correctly rounded."""

    z: Tuple[float, ...]
    s: Tuple[int, ...]
    psi_value: float

    def to_json_dict(self) -> dict:
        return {"z": list(self.z), "s": list(self.s), "psi": self.psi_value}


class MembershipReport(NamedTuple):
    """Verdict for M_d(b): member_certified, nonmember, or inconclusive.

    margin is a fixed 1e-8 around the threshold b_d; b inside it is
    reported inconclusive rather than resolved by a comparison below
    working precision.  The field only repeats that constant; it stays
    because perfbench reads it from reports and from the CLI's JSON,
    until ROADMAP item 2 drops it there.
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
    certificate fired, otherwise "sampling"; sampling never certifies
    membership, so its verdicts are nonmember or inconclusive.  Only
    "perturbation" sets diagnostics: {"b", "slack", "threshold",
    "evaluations"}, the last counting dense slack evaluations.
    """

    d: int
    verdict: str
    method: str
    n_evaluated: int
    seed: Optional[int] = None
    witness: Optional[PsiWitness] = None
    diagnostics: Optional[dict] = None

    def to_json_dict(self) -> dict:
        diagnostics = None if self.diagnostics is None else dict(self.diagnostics)
        return {**self._asdict(), "witness": self.witness and self.witness.to_json_dict(), "diagnostics": diagnostics}


class BdReport(NamedTuple):
    """The threshold b_d with its companion estimates.

    lower_bound   = growth_lower_bound(d): 1 / (1 + c* floor(d/2)) for
    even d and for d <= 6, 1 / (1 + c* ceil(d/2)) for odd d >= 7, where
    the balanced supremum can exceed c* floor(d/2); a lower bound of
    b_d for every d.
    witness_upper = 1 / (1 + Q(x, y)) for the near-optimal growth pair
    on the balanced split; present only when that quotient is positive
    (which needs ceil(d/2) >= 10).
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


def _integer_ratios(xs):
    """Integers N_i and one D > 0 with x_i = N_i / D for the ints, floats and Fractions x_i."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*{q for _, q in ratios})
    return [n * (den // q) for n, q in ratios], den


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
    """Psi_M(z, s) = num / den exactly, den > 0; every Psi sign psq reports
    is num's.  An M_d(b) MatrixSpec groups z by (value, sign) into blocks
    for _offdiag_psi, in O(d) without numpy.  Any other matrix: Psi =
    u^T M v with u = s z and v = s z^2, as u_l v_l = z_l^3; over the
    _integer_ratios numerators of z and M that sum is an integer."""
    if isinstance(matrix, MatrixSpec) and matrix.entries is None:
        zs, ss = _positive_z(z, matrix.d), _signs(s, matrix.d)
        return _offdiag_psi([(v, c, sg) for (v, sg), c in Counter(zip(zs, ss)).items()], matrix.b)
    m = _as_matrix(matrix)
    d = m.shape[0]
    (zn, zden), (mn, mden) = _integer_ratios(_positive_z(z, d)), _integer_ratios(m.ravel().tolist())
    s = _signs(s, d)
    v = [sk * zk * zk for sk, zk in zip(s, zn)]
    rows = (sum(map(operator.mul, mn[l * d : (l + 1) * d], v)) for l in range(d))
    return sum(sl * zl * r for sl, zl, r in zip(s, zn, rows)), mden * zden ** 3


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


def _psi_chunk(diag_term: float, off: np.ndarray, z: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    u = patterns * z
    v = patterns * (z * z)
    return diag_term + ((u @ off) * v).sum(axis=1)


def psi_over_patterns(matrix, z, patterns) -> np.ndarray:
    """Psi_M(z, s) in floats for one z and a stack of sign patterns (rows);
    the sampler's screen, not rounded from the exact value."""
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
    return _psi_chunk(float(diag @ zv ** 3), off, zv, pats)


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
    d = _integer(d, "d", 2)
    h = d // 2
    return (-1,) * (d - h) + (1,) * h


def check_diagonal_dominance(matrix) -> bool:
    """Sufficient membership check: min diagonal exceeds the total
    off-diagonal absolute sum.  Then Psi >= (min_l m_ll - sum |m_lk|) *
    max_l z_l^3 > 0 for every z and s."""
    diag, off = _diag_off(_as_matrix(matrix))
    return bool(diag.min() > float(abs(off).sum()))


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
    ValueError unless d is an integer >= 2.
    """
    d = _integer(d, "d", 2)
    half = d // 2 if d % 2 == 0 or d <= 6 else d - d // 2
    return 1.0 / (1.0 + C_STAR * half)


def all_split_threshold(d: int) -> float:
    """t_d = 1 / (1 + max(0, max_{1 <= a <= d/2} sup_q(a, d - a))).

    M_d(b) is in the cone exactly for 0 <= b <= t_d: Q is symmetric, so
    these splits cover every pattern with both signs, and a one-sign
    pattern gives Psi = (1 - b) M3 + b M1 M2 >= 0.  Equal to b_d for
    d <= 3, below it for d >= 4, where an unbalanced split beats the
    balanced one.  O(1), and 1 / (1 + C_T d) < t_d, by two facts about
    phi(p) = F(p) / (1 + p), F(p) = max_gamma f(p, gamma):

    1. Only full short blocks count.  i units against m constants give
       m F(i/m), nondecreasing in m (sup_q).  A block on the short side
       has i <= a, m = d - a; on the long side i < m = a.  Both have
       i <= d // 2 and m <= d - i, so the value is at most that of the
       full block of split (i, d - i), d phi(i / (d - i)) <= C_T d.
    2. phi peaks once, at P_T.  Along sup_q's root curve p(gamma),
       F'(p)(1 + p) - F(p) = (1 - gamma) q(gamma) / (9 gamma (1 + gamma)
       (1 + gamma^2)) with q / gamma^2 = u^2 - 4u - 8, u = gamma + 1/gamma,
       which falls once through 0, at GAMMA_T, as gamma rises on (0, 1).
       i / (d - i) <= P_T iff i <= ALPHA_T d, so only the splits
       a = floor(ALPHA_T d) and a + 1, within [1, d // 2], are evaluated.
    """
    d = _integer(d, "d", 1)
    k = int(ALPHA_T * d)
    sup = max((sup_q(a, d - a).sup_value for a in (k, k + 1) if 1 <= a <= d // 2), default=0.0)
    return 1.0 / (1.0 + max(0.0, sup))


def _bd_from_sup(d: int):
    res = sup_q(*_balanced_split(d))
    return 1.0 / (1.0 + max(res.sup_value, 0.0)), res


_RANDOM_PATTERNS = 512  # random rows of the sampler's pattern set, next to the d minus blocks


def _growth_estimates(d: int) -> Tuple[float, float]:
    """Q of the near-optimal growth pair on the balanced split, and 2 / (c* d).

    The pair is growth_blocks(ceil(d/2))[0] against growth_blocks(floor(d/2))[1],
    Q of its blocks in O(1).  ValueError when d is too large for float64.
    """
    try:
        (x, _), (_, y) = map(growth_blocks, _balanced_split(d))
        return _quotient(_block_power_sums(x), _block_power_sums(y)).value, 2.0 / (C_STAR * d)
    except (OverflowError, ValueError):  # with d >= 2, only float64 overflows
        raise ValueError("d is too large: the growth-pair quotient overflows float64") from None


def compute_bd(d: int) -> BdReport:
    """Threshold b_d = 1 / (1 + sup Q over the balanced split of d).

    Bundles the growth-bound lower estimate, the witness upper bound
    from the near-optimal growth pair (when its quotient is positive),
    the asymptotic 2 / (c* d) and the closed form for d <= 4.
    """
    d = _integer(d, "d", 2)
    bd, res = _bd_from_sup(d)
    qg, asym = _growth_estimates(d)
    witness_upper = 1.0 / (1.0 + qg) if qg > 0.0 else None

    exact = 1.0 if d == 2 else b3_radical() if d in (3, 4) else None
    return BdReport(
        d=d,
        b_d=bd,
        sup_value=max(res.sup_value, 0.0),
        split=(res.n_x, res.n_y),
        lower_bound=growth_lower_bound(d),
        asymptotic=asym,
        witness_upper=witness_upper,
        exact=exact,
    )


def membership_equal_offdiag(d: int, b: float) -> MembershipReport:
    """Decide M_d(b) against the threshold b_d with a fixed 1e-8 margin.

    b <= b_d - margin: member_certified.  b >= b_d + margin: nonmember,
    with the witness z = (1^i, gamma^(d - i)), s = (-1^i, +1^(d - i)):
    the unit count i of the balanced maximizer as a full block against
    all d - i remaining entries, at gamma = the root for (i, d - i).  Its
    Q is at least the balanced sup, since the best value of an (i, m)
    configuration is nondecreasing in m (sup_q), so Psi < 0 with no
    closure zeros.  Psi is decided exactly, in O(1) from the two blocks,
    and psi_value is it correctly rounded.  Inside the margin: inconclusive.
    """
    spec = MatrixSpec.equal_off_diagonal(d, b)
    d, bd, res = spec.d, *_bd_from_sup(spec.d)
    margin = 1e-8
    report = partial(MembershipReport, d=d, b=spec.b, b_d=bd, margin=margin)

    if spec.b <= bd - margin:
        return report(verdict="member_certified")
    if spec.b >= bd + margin:
        i = res.maximizing_config.i
        gamma = _gamma_root(i, d - i)
        num, den = _offdiag_psi([(1.0, i, -1), (gamma, d - i, 1)], spec.b)
        if num >= 0:
            raise RuntimeError(f"b={b!r} exceeds b_{d}={bd!r} but the block witness has Psi >= 0")
        if d > sys.maxsize:
            raise ValueError(f"vector length {d} exceeds sys.maxsize")
        z, s = (1.0,) * i + (gamma,) * (d - i), (-1,) * i + (1,) * (d - i)
        return report(verdict="nonmember", witness=PsiWitness(z=z, s=s, psi_value=num / den))
    return report(verdict="inconclusive")


def _probe_vectors(d: int, n_samples: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    import numpy as np
    yield np.ones(d)
    for j in range(d):
        for t in (1e-3, 1e3):
            z = np.ones(d)
            z[j] = t
            yield z
    for a in range(1, d):
        for gamma in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            z = np.ones(d)
            z[a:] = gamma
            yield z
    for a in range(1, d):
        x, y = sup_q(a, d - a).witness_pair()
        yield np.array(x + y)
    for _ in range(n_samples):
        yield 10.0 ** rng.uniform(-3.0, 3.0, size=d)


def _sampled_patterns(d: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    # Minus blocks of every length (a = ceil(d/2): balanced, a = d: one-sign), then random.
    pats = [(-1,) * a + (1,) * (d - a) for a in range(1, d + 1)]
    rand = rng.choice(np.array([-1, 1], dtype=np.int8), size=(_RANDOM_PATTERNS, d))
    rand[:, 0] = -1
    return np.concatenate([np.array(pats, dtype=np.int8), rand], axis=0)


def sample_membership_general(matrix, n_samples: int = 200, seed: int = 0) -> GeneralReport:
    """Search for a violating (z, s) pair of an explicit matrix.

    Probes the ones vector, near-unit spikes, two-level blocks on a gamma
    grid, each split (a, d - a)'s sup_q maximizer (a minus entries first)
    and n_samples random log-uniform vectors on [1e-3, 1e3]^d, each in one
    pass over every canonical sign pattern while there are at most d + 512
    (d <= 10), else over the d minus blocks and 512 random ones; both sets
    hold the one-sign pattern.  The float pass only screens: a pair is
    accepted on the sign of its exact Psi (_psi), and its psi_value is that
    value correctly rounded.  Stops at the first such pair, which is
    deterministic for a fixed seed.  A clean pass is only ever inconclusive:
    sampling cannot certify membership.
    """
    import numpy as np
    m = _as_matrix(matrix)
    d = m.shape[0]
    n_samples, seed = _integer(n_samples, "n_samples", 0), _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)

    diag, off = _diag_off(m)
    pats = _sign_patterns(d) if 1 << (d - 1) <= d + _RANDOM_PATTERNS else _sampled_patterns(d, rng)
    signs = pats.astype(float)

    n_evaluated = 0
    for z in _probe_vectors(d, n_samples, rng):
        vals = _psi_chunk(float(diag @ z ** 3), off, z, signs)
        n_evaluated += vals.size
        for j in np.flatnonzero(vals < 0.0):
            zt, st = tuple(z.tolist()), tuple(pats[j].tolist())
            num, den = _psi(m, zt, st)
            if num < 0:
                witness = PsiWitness(z=zt, s=st, psi_value=_rounded(num, den))
                return GeneralReport(d, "nonmember", "sampling", n_evaluated, seed, witness)
    return GeneralReport(d, "inconclusive", "sampling", n_evaluated, seed)


def certify_general(matrix, n_samples: int = 200, seed: int = 0) -> GeneralReport:
    """Three-stage check for an explicit matrix.

    Diagonal dominance, then the perturbation certificate (both
    sufficient, so a hit is member_certified), then the randomized
    violation search of sample_membership_general (its arguments checked first).

    Perturbation certificate.  Let t = all_split_threshold(d), b >= 0
    and E = M - M_d(b).  Every pattern splits z into blocks with
    1 + Q <= 1/t, so Psi_{M_d(b)}(z, s) = M3(z) (1 - b (1 + Q)) >=
    M3(z) (1 - b/t).  Weighted AM-GM, z_l z_k^2 <= (z_l^3 + 2 z_k^3)/3,
    bounds each off-diagonal term of Psi_E; collecting z_l^3 gives
    Psi_M(z, s) >= sum_l z_l^3 slack_l(b) with

        slack_l(b) = m_ll - b/t - sum_{k != l} (|m_lk - b| + 2 |m_kl - b|) / 3.

    f(b) = min_l slack_l(b) is concave and piecewise linear, bending only
    where b is an off-diagonal entry.  A binary search over 0, those
    entries and hi = max(t, max_{k != l} m_lk) finds the last candidate
    where f's right slope (least among the minimizing rows) is positive;
    by concavity the maximum lies before the next candidate, where each
    row is a line, at the crossing of the lowest rising and falling lines.
    M is certified when f there exceeds 1e-9 max(1, d max|m_ij|), far
    above the float error of t and the sums.
    """
    m = _as_matrix(matrix)
    d = m.shape[0]
    n_samples, seed = _integer(n_samples, "n_samples", 0), _integer(seed, "seed", 0)
    if check_diagonal_dominance(m):
        return GeneralReport(d, "member_certified", "diagonal_dominance", 0)
    b, slack, t, evaluations = _best_perturbation_slack(m)
    if slack > 1e-9 * max(1.0, d * float(abs(m).max())):
        diagnostics = {"b": b, "slack": slack, "threshold": t, "evaluations": evaluations}
        return GeneralReport(d, "member_certified", "perturbation", 0, diagnostics=diagnostics)
    return sample_membership_general(m, n_samples=n_samples, seed=seed)


def _best_perturbation_slack(m: np.ndarray) -> Tuple[float, float, float, int]:
    """(b, min_l slack_l(b), t, dense slack evaluations) at the best b; see certify_general."""
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
