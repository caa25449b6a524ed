"""Power sums and the degree-zero quotient built from them.

For a vector x with strictly positive entries, write

    M_p(x) = sum_i x_i**p,   p = 1, 2, 3.

The central object is the quotient

    Q(x, y) = (M_1(x) - M_1(y)) * (M_2(y) - M_2(x)) / (M_3(x) + M_3(y)),

defined for any pair of positive vectors, including pairs of unequal
length.  Q is homogeneous of degree zero (Q(t*x, t*y) = Q(x, y) for
t > 0) and symmetric (Q(x, y) = Q(y, x), both numerator factors flip
sign).  The denominator is always positive.

Float inputs: each power is rounded once (e * e and pow(e, 3.0), as
e ** 3 computes it), then summed with math.fsum, exact up to the final
rounding, so results are deterministic and order-stable.  A float M_3
or Q that overflows raises ValueError.  All-exact input (int or
fractions.Fraction) stays exact: int sums for ints, otherwise integer
sums S_p over the least common denominator L, M_p = S_p / L**p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter, floordiv, ge, le, mul
from typing import Union

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


@dataclass(frozen=True)
class PowerSumTriple:
    """First three power sums of a positive vector."""

    m1: Entry
    m2: Entry
    m3: Entry


@dataclass(frozen=True)
class QuotientValue:
    """Value of Q(x, y) together with its three building blocks.

    s1 = M_1(x) - M_1(y), s2 = M_2(y) - M_2(x), s3 = M_3(x) + M_3(y),
    value = s1 * s2 / s3.  s3 > 0 always.
    """

    value: Entry
    s1: Entry
    s2: Entry
    s3: Entry


def validate_positive_vector(entries, name: str = "x") -> list:
    """Check entries are a nonempty sequence of finite, positive numbers.

    Returns the entries as a plain list (Fractions preserved).  Raises
    ValueError naming the offending entry on the first violation.
    Subnormal floats are accepted; zero, negatives, NaN and inf are not.
    """
    if isinstance(entries, np.ndarray):
        # C-level checks first; a NaN propagates through min and max.
        if type(entries) is np.ndarray and entries.dtype == np.float64 and entries.ndim == 1:
            if entries.size and 0.0 < entries.min() and entries.max() < math.inf:
                return entries.tolist()
        entries = entries.tolist()
    try:
        out = list(entries)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of numbers") from None
    if not out:
        raise ValueError(f"{name} must be nonempty")
    # min and max skip a NaN that is not first, hence the isnan pass.
    if set(map(type, out)) == {float} and min(out) > 0.0 and max(out) < math.inf:
        if not any(map(math.isnan, out)):
            return out
    for idx, e in enumerate(out):
        if isinstance(e, bool) or not isinstance(e, (int, float, Fraction, np.integer, np.floating)):
            raise ValueError(f"{name}[{idx}] = {e!r} is not a number")
        if isinstance(e, (float, np.floating)) and not math.isfinite(e):
            raise ValueError(f"{name}[{idx}] = {e!r} is not finite")
        if e <= 0:
            raise ValueError(f"{name}[{idx}] = {e!r} is not > 0; all entries must be positive")
    return out


def _sums(v: list, name: str) -> PowerSumTriple:
    """M_1, M_2, M_3 of a list already checked by validate_positive_vector."""
    types = set(map(type, v))
    if all(issubclass(t, int) for t in types):
        return PowerSumTriple(sum(v), sum(map(mul, v, v)), sum(map(pow, v, repeat(3))))
    if all(issubclass(t, (int, Fraction)) for t in types):
        den = math.lcm(*map(attrgetter("denominator"), v))
        scale = map(floordiv, repeat(den), map(attrgetter("denominator"), v))
        n = list(map(mul, map(attrgetter("numerator"), v), scale))
        sums = sum(n), sum(map(mul, n, n)), sum(map(pow, n, repeat(3)))
        return PowerSumTriple(*(Fraction(s, den ** p) for p, s in enumerate(sums, 1)))
    try:
        fv = v if types == {float} else list(map(float, v))
        sums = math.fsum(fv), math.fsum(map(mul, fv, fv)), math.fsum(map(pow, fv, repeat(3.0)))
    except OverflowError:
        sums = (math.inf,)
    if math.inf in sums:
        raise ValueError(f"{name}: power sums overflow float64; pass exact integers or fractions")
    return PowerSumTriple(*sums)


def power_sums(entries, name: str = "x") -> PowerSumTriple:
    """M_1, M_2, M_3 of a positive vector.

    Example: (1, 1/2, 1/4) -> (7/4, 21/16, 73/64).
    """
    return _sums(validate_positive_vector(entries, name), name)


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
    return QuotientValue(value=value, s1=s1, s2=s2, s3=s3)


def quotient_q(x, y) -> QuotientValue:
    """Q(x, y) for positive vectors x, y; lengths may differ.

    Returns a QuotientValue carrying the three components.  Exact
    rational inputs give an exact rational result.
    """
    return _quotient(power_sums(x, "x"), power_sums(y, "y"))


def q_ordered_nonpositive(x, y) -> float:
    """Q(x, y) for a componentwise comparable pair; asserts it is <= 0.

    Requires len(x) == len(y) and either x_i >= y_i for all i or
    x_i <= y_i for all i.  Non-comparable pairs are a precondition
    violation (ValueError), not a math failure.  A positive computed
    value beyond float roundoff raises AssertionError; the checked
    value is returned.
    """
    vx = validate_positive_vector(x, "x")
    vy = validate_positive_vector(y, "y")
    if len(vx) != len(vy):
        raise ValueError(f"x and y must have equal length, got {len(vx)} and {len(vy)}")
    if not (all(map(ge, vx, vy)) or all(map(le, vx, vy))):
        raise ValueError("x and y are not componentwise comparable")
    q = _quotient(_sums(vx, "x"), _sums(vy, "y"))
    value = float(q.value)
    # Exact arithmetic gives <= 0; float cancellation can leave a speck.
    if value > 1e-12 * max(1.0, abs(float(q.s1)), abs(float(q.s2))):
        raise AssertionError(f"ordered pair produced positive quotient {value!r}")
    return value


def quotient_q_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized Q over row-paired batches (floats only).

    xs has shape (k, n_x) and ys shape (k, n_y); returns k quotients.
    Plain np.sum accumulation; cross-checked against quotient_q in the
    test suite, intended for sampling and bulk bound checks.  A row
    whose Q overflows float64 raises ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must be 2-D with matching row counts")
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be nonempty")
    if (xs <= 0).any() or (ys <= 0).any() or not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("all entries must be finite and > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = xs.sum(axis=1) - ys.sum(axis=1)
        s2 = (ys * ys).sum(axis=1) - (xs * xs).sum(axis=1)
        s3 = (xs ** 3).sum(axis=1) + (ys ** 3).sum(axis=1)
        q = s1 * s2 / s3
    if not np.isfinite(q).all():
        raise ValueError("Q overflows float64 in some row; use quotient_q on exact fractions")
    return q
