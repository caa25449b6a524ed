"""Power sums and the degree-zero quotient built from them.

For a vector x with strictly positive entries, write

    M_p(x) = sum_i x_i**p,   p = 1, 2, 3.

The central object is the quotient

    Q(x, y) = (M_1(x) - M_1(y)) * (M_2(y) - M_2(x)) / (M_3(x) + M_3(y)),

defined for any pair of positive vectors, including pairs of unequal
length.  Q is homogeneous of degree zero (Q(t*x, t*y) = Q(x, y) for
t > 0) and symmetric (Q(x, y) = Q(y, x), both numerator factors flip
sign).  The denominator is always positive.

Float inputs: each power is rounded once, as the IEEE products e * e
and (e * e) * e, then summed exactly and rounded once, the value
math.fsum returns, so results are deterministic and order-stable.
A 1-D float64 ndarray, or an all-float list or tuple of at least _ARRAY_MIN
entries once numpy is loaded (neither imports it), read into a float64 array,
is summed in numpy blocks of 2**16 entries: each of x, x * x and (x * x) * x
splits by bit mask into its top 26 significand bits and the exact remainder,
and np.bincount sums each half per binary exponent of the entry x, where every
partial sum is exact; math.fsum of those bucket sums is the correctly rounded
total (exponent-bucket summation, Demmel and Hida 2004).  Other float input
streams through math.fsum.  A float M_3 or Q that overflows, and a
float Q whose cubes all underflow to 0, raise ValueError.  All-exact
input (int or fractions.Fraction) stays exact: int sums for ints,
otherwise integer sums S_p over the least common denominator L,
M_p = S_p / L**p.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from operator import attrgetter, countOf, ge, index, le, mul
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    import numpy as np

Entry = Union[int, float, Fraction]

__all__ = [
    "PowerSumTriple",
    "QuotientValue",
    "power_sums",
    "quotient_q",
    "q_ordered_nonpositive",
    "quotient_q_batch",
    "validate_positive_vector",
]


class PowerSumTriple(NamedTuple):
    """First three power sums of a positive vector."""

    m1: Entry
    m2: Entry
    m3: Entry


class QuotientValue(NamedTuple):
    """Value of Q(x, y) together with its three building blocks.

    s1 = M_1(x) - M_1(y), s2 = M_2(y) - M_2(x), s3 = M_3(x) + M_3(y),
    value = s1 * s2 / s3.  s3 > 0 always.
    """

    value: Entry
    s1: Entry
    s2: Entry
    s3: Entry


def _integer(v, name: str, lo: int, hi=math.inf) -> int:
    """index(v) for an integer v in [lo, hi], numpy integers included but not
    bool or np.bool_ (which has no __index__); else ValueError naming it."""
    try:
        n = None if isinstance(v, bool) else index(v)
    except TypeError:
        n = None
    if n is None or not lo <= n <= hi:
        limits = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {limits}, got {v!r}")
    return n


def _is_real(v) -> bool:
    """v is a real number, not a bool (0 < True holds) nor np.bool_ (no numbers.Real);
    a float skips the ABC check.  Checked before float(v), which overflows on huge ints."""
    return isinstance(v, float) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def _real_array(a, name: str) -> np.ndarray:
    """a as a float ndarray, else ValueError.  A float cast reads True and "1"
    as 1 and None as NaN, and drops imaginary parts, so an ndarray needs a number
    dtype, and each entry of a list or object array ([[True, 1.0]] has dtype float)
    must be a numbers.Real within float range, not a bool; np.bool_ is no Real."""
    import numpy as np
    arr = np.asarray(a)
    if arr.dtype.kind not in "iufO":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    if arr.dtype.kind == "O" or not isinstance(a, np.ndarray):
        entries = np.asarray(a, dtype=object).ravel().tolist()
        bad = {t for t in set(map(type, entries)) if issubclass(t, bool) or not issubclass(t, numbers.Real)}
        if bad:
            e = next(e for e in entries if type(e) in bad)
            raise ValueError(f"{name} must hold real numbers, got entry {e!r}")
    try:
        return arr.astype(float, copy=False)
    except OverflowError:
        raise ValueError(f"{name} entries must be finite, got an integer beyond float range") from None


# Shortest all-float sequence summed by _array_sums when numpy is loaded.
# Warm, the routes break even at about 160 entries, but the first numpy
# call after a stretch of pure-Python work costs about 100 us more, which
# a quotient_q pair of lists repays only from about 750 entries each.
_ARRAY_MIN = 1024


def _validated(entries, name: str):
    """validate_positive_vector's checks, returning (values, types).

    A 1-D float64 ndarray that passes, or a long all-float sequence made
    one, comes back as an array with types None; anything else as a
    new list with the set of its entry types.
    """
    # An ndarray or numpy scalar exists only once numpy is loaded.
    np = sys.modules.get("numpy")
    seq = entries  # a list or tuple is read in place; the list route returns a copy
    if np is not None and isinstance(entries, np.ndarray):
        # C-level checks first; a NaN propagates through min and max.
        if type(entries) is np.ndarray and entries.dtype == np.float64 and entries.ndim == 1:
            if entries.size and 0.0 < entries.min() and entries.max() < math.inf:
                return entries, None
        seq = entries.tolist()  # a new list, or a scalar for a 0-d array
    if type(seq) not in (list, tuple):
        try:
            seq = list(seq)
        except TypeError:
            raise ValueError(f"{name} must be a sequence of numbers") from None
    if not seq:
        raise ValueError(f"{name} must be nonempty")
    # One exact-type pass (the test types == {float}) picks the array route.
    n = len(seq)
    if n >= _ARRAY_MIN and np is not None and type(seq[0]) is float and countOf(map(type, seq), float) == n:
        a = np.fromiter(seq, np.float64, n)
        if 0.0 < a.min() and a.max() < math.inf:
            return a, None
    types = set(map(type, seq))
    if types == {float}:  # min and max skip a NaN that is not first, hence the isnan pass
        ok = min(seq) > 0.0 and max(seq) < math.inf and not any(map(math.isnan, seq))
    else:  # a Fraction's denominator is positive, so its sign is its numerator's
        ok = types <= {int, Fraction} and min(map(attrgetter("numerator"), seq)) > 0
    if not ok:
        # isinstance accepts nested tuples, and () matches nothing.
        np_int, np_float = (np.integer, np.floating) if np is not None else ((), ())
        for idx, e in enumerate(seq):
            if isinstance(e, bool) or not isinstance(e, (int, float, Fraction, np_int, np_float)):
                raise ValueError(f"{name}[{idx}] = {e!r} is not a number")
            if isinstance(e, (float, np_float)) and not math.isfinite(e):
                raise ValueError(f"{name}[{idx}] = {e!r} is not finite")
            if e <= 0:
                raise ValueError(f"{name}[{idx}] = {e!r} is not > 0; all entries must be positive")
    return (list(seq) if seq is entries else seq), types


def validate_positive_vector(entries, name: str = "x") -> list:
    """Check entries are a nonempty sequence of finite, positive numbers.

    Returns the entries as a new plain list (Fractions preserved).  Raises
    ValueError naming the offending entry on the first violation.
    Subnormal floats are accepted; zero, negatives, NaN and inf are not.
    """
    values, types = _validated(entries, name)
    return values.tolist() if types is None else values


# Entries per numpy block, and the mask that keeps a float64's sign, exponent and top 26
# significand bits.  A block buckets x, x * x and (x * x) * x by the binade E of the entry x
# (subnormals in E = -1022).  A p-th power lies in binades pE to pE + p - 1 (p <= 3), so its top
# part is a multiple of 2**max(pE - 25, -1047) below 2**(pE + 3), and its remainder a multiple of
# 2**max(pE - 52, -1074) below 2**max(pE - 23, -1047): 2**16 of either sum exactly in float64.
_BLOCK = 1 << 16
_HI_MASK = -(1 << 27)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for float64 (_block_power_sums)


def _array_sums(a) -> tuple:
    """math.fsum of a, a * a and (a * a) * a for a 1-D float64 ndarray a >= 0.

    Raises OverflowError if a total overflows; a non-finite power gives
    an inf or NaN total.
    """
    import numpy as np
    parts = ([], [], [])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, a.size, _BLOCK):
            b = a[start:start + _BLOCK]
            e = b.view(np.int64) >> 52
            e -= e.min()
            sq = b * b
            for part, w in zip(parts, (b, sq, sq * b)):
                hi = (w.view(np.int64) & _HI_MASK).view(np.float64)
                part += np.bincount(e, weights=hi).tolist()
                # An infinite w gives inf - inf = NaN here, and a NaN total.
                part += np.bincount(e, weights=w - hi).tolist()
    return tuple(map(math.fsum, parts))


def _integer_ratios(xs):
    """Integers N_i and one D > 0 with x_i = N_i / D for the ints, floats and Fractions x_i."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*{q for _, q in ratios})
    return [n * (den // q) for n, q in ratios], den


def _sums(v, types, name: str) -> PowerSumTriple:
    """M_1, M_2, M_3 of values checked by _validated, with their types."""
    if types is not None and all(issubclass(t, (int, Fraction)) for t in types):
        ints = all(issubclass(t, int) for t in types)
        n, den = (v, 1) if ints else _integer_ratios(v)
        sq = list(map(mul, n, n))
        sums = sum(n), sum(sq), sum(map(mul, sq, n))
        return PowerSumTriple(*(s if ints else Fraction(s, den ** p) for p, s in enumerate(sums, 1)))
    try:
        if types is None:
            sums = _array_sums(v)
        else:
            fv = v if types == {float} else list(map(float, v))
            cubes = map(mul, map(mul, fv, fv), fv)
            sums = math.fsum(fv), math.fsum(map(mul, fv, fv)), math.fsum(cubes)
    except OverflowError:
        sums = (math.inf,)
    if not all(map(math.isfinite, sums)):
        raise ValueError(f"{name}: power sums overflow float64; pass exact integers or fractions")
    return PowerSumTriple(*sums)


def power_sums(entries, name: str = "x") -> PowerSumTriple:
    """M_1, M_2, M_3 of a positive vector.

    Example: (1, 1/2, 1/4) -> (7/4, 21/16, 73/64).
    """
    return _sums(*_validated(entries, name), name)


def _quotient(px: PowerSumTriple, py: PowerSumTriple) -> QuotientValue:
    try:
        s1, s2, s3 = px.m1 - py.m1, py.m2 - px.m2, px.m3 + py.m3
        # s3 is a float iff either vector took the float path.
        if isinstance(s3, float):
            value = s1 * s2 / s3
            if not math.isfinite(value):
                raise OverflowError
        else:
            value = Fraction(s1) * Fraction(s2) / Fraction(s3)
    except OverflowError:
        raise ValueError("Q(x, y) overflows float64; pass exact integers or fractions") from None
    except ZeroDivisionError:  # only a float s3 can be 0
        raise ValueError("Q(x, y) is undefined in float64: every cube underflows to 0") from None
    return QuotientValue(value=value, s1=s1, s2=s2, s3=s3)


def _block_power_sums(blocks) -> PowerSumTriple:
    """M_1, M_2, M_3 of c copies of each float v in blocks ((v, c), ...),
    bit-equal to power_sums on the entries, in O(1) per block.

    math.fsum of exact parts of each c * w, w = v, v * v, (v * v) * v:
    Veltkamp's split w = hi + lo, hi = a - (a - w), a = w * (2**27 + 1),
    leaves at most 27 significant bits in each, underflow included
    (Boldo 2006), so each times a 26-bit part of c is exact.  No product overflows
    while c < 2**1024 and c v**3 (2**27 + 1) < 2**1024, as for every structured
    block (v <= 1, c < 2**518); ValueError when a product or sum overflows.
    """
    t1, t2, t3 = [], [], []
    try:
        for v, c in blocks:
            sq, k = v * v, 0
            cube = sq * v
            a1, a2, a3 = v * _SPLIT, sq * _SPLIT, cube * _SPLIT
            h1, h2, h3 = a1 - (a1 - v), a2 - (a2 - sq), a3 - (a3 - cube)
            l1, l2, l3 = v - h1, sq - h2, cube - h3
            while c:
                p = float((c & 0x3FFFFFF) << k)
                t1 += p * h1, p * l1
                t2 += p * h2, p * l2
                t3 += p * h3, p * l3
                c, k = c >> 26, k + 26
        sums = math.fsum(t1), math.fsum(t2), math.fsum(t3)
    except (OverflowError, ValueError):  # a huge count, or fsum of inf and -inf parts
        sums = (math.inf,)
    if not all(map(math.isfinite, sums)):
        raise ValueError("block power sums overflow float64")
    return PowerSumTriple(*sums)


def quotient_q(x, y) -> QuotientValue:
    """Q(x, y) for positive vectors x, y; lengths may differ.

    Returns a QuotientValue carrying the three components.  Exact
    rational inputs give an exact rational result.
    """
    return _quotient(power_sums(x, "x"), power_sums(y, "y"))


def q_ordered_nonpositive(x, y) -> float:
    """Q(x, y) as a float for a componentwise comparable pair; always <= 0.

    Requires len(x) == len(y) and x_i >= y_i for all i, or <= for all i,
    else ValueError.  The sign is exact.  Two exact sides give the exact Q;
    otherwise an all-exact side is also converted to floats, and each M_p
    is the correctly rounded sum of the rounded powers e, e * e, (e * e) * e,
    all nondecreasing in e.  So x >= y gives M_1(x) >= M_1(y) and M_2(x) >=
    M_2(y), hence s1 >= 0 >= s2 and a rounded s1 * s2 / s3 <= 0.
    """
    vx, tx = _validated(x, "x")
    vy, ty = _validated(y, "y")
    if len(vx) != len(vy):
        raise ValueError(f"x and y must have equal length, got {len(vx)} and {len(vy)}")
    # An array's entries compare as Python floats, exactly; it is still
    # summed by the array path.
    lx, ly = (v.tolist() if t is None else v for v, t in ((vx, tx), (vy, ty)))
    if not (all(map(ge, lx, ly)) or all(map(le, lx, ly))):
        raise ValueError("x and y are not componentwise comparable")
    if not (tx and ty and tx | ty <= {int, Fraction}):  # unless both are exact, both sum as floats
        tx, ty = (t and t | {float} for t in (tx, ty))
    return float(_quotient(_sums(vx, tx, "x"), _sums(vy, ty, "y")).value)


def quotient_q_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized Q over row-paired batches (floats only).

    xs has shape (k, n_x) and ys shape (k, n_y); returns k quotients.
    Each row uses the rounded powers of quotient_q (x * x and
    x * x * x), summed by plain np.sum rather than exactly;
    cross-checked against quotient_q in the test suite, intended for
    sampling and bulk bound checks.  A row whose Q overflows float64
    raises ValueError.
    """
    import numpy as np
    xs, ys = _real_array(xs, "xs"), _real_array(ys, "ys")
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must be 2-D with matching row counts")
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be nonempty")
    if (xs <= 0).any() or (ys <= 0).any() or not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("all entries must be finite and > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = xs.sum(axis=1) - ys.sum(axis=1)
        s2 = (ys * ys).sum(axis=1) - (xs * xs).sum(axis=1)
        s3 = (xs * xs * xs).sum(axis=1) + (ys * ys * ys).sum(axis=1)
        q = s1 * s2 / s3
    if not np.isfinite(q).all():
        raise ValueError("Q overflows float64 in some row; use quotient_q on exact fractions")
    return q
