"""Exact reference evaluators and the per-check tally.

Every check here tests an invariant that holds for the true answer, so
the benchmark does not trust the package it measures.  Witnesses are
re-evaluated in exact rational arithmetic: a float converts to
fractions.Fraction without rounding, so a sign found here is the sign of
the stored numbers, not of a rounded evaluation.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

# The growth constant c* = (7 sqrt 7 - 17) / 27, computed here, not taken from psq.
C_STAR = (7.0 * math.sqrt(7.0) - 17.0) / 27.0

# Rational grid for the one-minus split probe z = (1, g, ..., g).
GAMMA_GRID = tuple(Fraction(k, 50) for k in range(1, 50))

# Checks whose failures are known defects of the program, with the
# condition under which each is known to fail.  A failure of one of
# these checks under its condition still counts in fail_frac and in
# `failed`; only a failure outside this table makes a run incorrect.
KNOWN_DEFECTS = {
    "bd.lower_bound_le_bd": (
        "odd d >= 7: lower_bound uses c* floor(d/2), which exceeds the "
        "balanced supremum's growth bound (d = 51: 0.4153 > b_51 = 0.4065)"
    ),
    "member.one_minus_probe": (
        "d >= 4 (up to about d = 120): sup_q(1, d-1) exceeds the balanced "
        "sup_q, so b just below b_d is refuted by z = (1, g, ..., g), "
        "s = (-1, +1, ..., +1)"
    ),
}


def lower_bound_defect_applies(d: int) -> bool:
    return d >= 7 and d % 2 == 1


def one_minus_defect_applies(d: int) -> bool:
    return d >= 4


def _grouped_power_sums(values):
    m1 = m2 = m3 = Fraction(0)
    for v, k in Counter(values).items():
        f = Fraction(v)
        m1 += k * f
        m2 += k * f * f
        m3 += k * f * f * f
    return m1, m2, m3


def q_exact_grouped(x, y) -> Fraction:
    """Exact Q(x, y), grouping equal entries; cheap for block vectors."""
    x1, x2, x3 = _grouped_power_sums(x)
    y1, y2, y3 = _grouped_power_sums(y)
    return (x1 - y1) * (y2 - x2) / (x3 + y3)


def psi_exact_offdiag(b, z, s) -> Fraction:
    """Exact Psi of M_d(b) (unit diagonal, off-diagonal b) at (z, s).

    Uses Psi = sum_l z_l^3 + b sum_l s_l z_l (S - s_l z_l^2) with
    S = sum_k s_k z_k^2, summed over groups of equal (z_l, s_l).
    """
    b = Fraction(b)
    groups = Counter(zip(z, s))
    total_s = sum(k * int(sg) * Fraction(zv) ** 2 for (zv, sg), k in groups.items())
    out = Fraction(0)
    for (zv, sg), k in groups.items():
        zf = Fraction(zv)
        sg = int(sg)
        out += k * (zf ** 3 + b * sg * zf * (total_s - sg * zf * zf))
    return out


def psi_exact(entries, z, s) -> Fraction:
    """Exact Psi of an explicit matrix at (z, s), straight from the definition."""
    d = len(entries)
    zf = [Fraction(v) for v in z]
    sg = [int(v) for v in s]
    out = Fraction(0)
    for l in range(d):
        row = entries[l]
        out += Fraction(row[l]) * zf[l] ** 3
        cross = sum(Fraction(row[k]) * sg[k] * zf[k] ** 2 for k in range(d) if k != l)
        out += sg[l] * zf[l] * cross
    return out


def one_minus_witness(d: int, b):
    """First gamma on the grid with Psi_{M_d(b)}((1, g..g), (-1, +1..+1)) < 0.

    Returns (gamma, psi) or None when the probe finds nothing.
    """
    for g in GAMMA_GRID:
        val = psi_exact_offdiag(b, (1,) + (g,) * (d - 1), (-1,) + (1,) * (d - 1))
        if val < 0:
            return g, val
    return None


def one_minus_threshold(d: int) -> Fraction:
    """Smallest b refuted by the one-minus probe on the grid (exact).

    Psi is affine in b, Psi = A + b B; a grid point refutes every
    b > -A / B when B < 0.
    """
    best = None
    z_s = lambda g: ((1,) + (g,) * (d - 1), (-1,) + (1,) * (d - 1))
    for g in GAMMA_GRID:
        a = psi_exact_offdiag(0, *z_s(g))
        slope = psi_exact_offdiag(1, *z_s(g)) - a
        if slope < 0:
            t = -a / slope
            best = t if best is None or t < best else best
    return best


class Tally:
    """Per-check pass and fail counts, grouped into operations.

    An operation fails when any of its checks fails or it raises.  A
    check failure is `known` when the caller marks it as an instance of
    a KNOWN_DEFECTS entry; any other failure makes the run incorrect.
    """

    def __init__(self):
        self.passed = Counter()
        self.failed = Counter()
        self.known = Counter()
        self.examples = {}
        self.unexpected = 0
        self._op_failed = False

    def start_op(self) -> None:
        self._op_failed = False

    def end_op(self) -> bool:
        return self._op_failed

    def check(self, name: str, ok: bool, detail: str = "", known: bool = False) -> bool:
        if ok:
            self.passed[name] += 1
            return True
        if known and name not in KNOWN_DEFECTS:
            raise KeyError(f"{name} is not a registered known defect")
        self.failed[name] += 1
        if known:
            self.known[name] += 1
        else:
            self.unexpected += 1
        self.examples.setdefault(name, detail)
        self._op_failed = True
        return False

    def summary(self) -> dict:
        names = sorted(set(self.passed) | set(self.failed))
        return {
            n: {
                "passed": self.passed[n],
                "failed": self.failed[n],
                "known_defect": self.known[n],
                "example": self.examples.get(n),
            }
            for n in names
        }
