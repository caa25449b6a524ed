"""End-to-end acceptance checks.

One test per shipped guarantee, each asserting both the numerical
statement and its runtime budget.  Run with -v for a one-line verdict
per criterion; the captured stdout carries the measured runtimes.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from psq import (
    C_STAR,
    MatrixSpec,
    b3_radical,
    brute_force_sup,
    check_structured_shape,
    compute_bd,
    enumerate_sign_patterns,
    membership_equal_offdiag,
    psi,
    psi_over_patterns,
    q_ordered_nonpositive,
    quotient_q,
    quotient_q_batch,
    reduced_sign_pattern,
    solve_reduced,
    sup_q,
    table1_rows,
    table2_rows,
    witness_vectors,
)

TABLE1_LOWER = (0.946, 0.946, 0.898, 0.898, 0.855)
TABLE1_BD = (1.0, 0.962, 0.962, 0.902, 0.902)
TABLE2_CELLS = [
    (50, 0.415, 0.510, 0.710),
    (100, 0.262, 0.295, 0.355),
    (150, 0.191, 0.210, 0.236),
    (200, 0.150, 0.161, 0.177),
    (300, 0.105, 0.111, 0.118),
    (400, 0.081, 0.084, 0.088),
    (500, 0.066, 0.068, 0.071),
]


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"{name}: {dt:.2f}s (budget {seconds:g}s)")
    assert dt < seconds, f"{name} took {dt:.2f}s, budget {seconds:g}s"


def b3_quartic_root():
    """Root of 20 x^4 + 60 x^3 + 9 x^2 - 54 x - 27 on [0.9, 1.0] by
    bisection: a route to b_3 independent of psq's b3_radical."""

    def poly(x):
        return ((((20.0 * x + 60.0) * x) + 9.0) * x - 54.0) * x - 27.0

    lo, hi = 0.9, 1.0  # poly(0.9) < 0 < poly(1.0)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trunc3(x):
    return math.floor(x * 1000) / 1000


def _psi_exact_offdiag(b, z, s):
    """Exact Psi of M_d(b) at (z, s), summed over groups of equal (z_l, s_l):
    sum_l z_l^3 + b sum_l s_l z_l (S - s_l z_l^2) with S = sum_k s_k z_k^2."""
    b = Fraction(b)
    groups = [(Fraction(v), sg, k) for (v, sg), k in Counter(zip(z, s)).items()]
    total = sum(k * sg * v * v for v, sg, k in groups)
    return sum(k * (v ** 3 + b * sg * v * (total - sg * v * v)) for v, sg, k in groups)


def test_criterion_1_constants():
    # Closed-form constants agree with the root route of the reduced
    # objective to 1e-9 (solve_reduced raises otherwise).
    with budget("criterion 1 (constants)", 1.0):
        p, g, c = solve_reduced()
        assert c == pytest.approx((7.0 * math.sqrt(7.0) - 17.0) / 27.0, abs=1e-15)
        assert trunc3(p) == 0.102
        assert trunc3(g) == 0.215


def test_criterion_2_b3_dual_provenance():
    with budget("criterion 2 (b3 dual provenance)", 1.0):
        radical = b3_radical()
        root = b3_quartic_root()
        assert abs(radical - root) < 1e-12
        assert trunc3(radical) == 0.962


def test_criterion_3_table1():
    with budget("criterion 3 (table 1)", 30.0):
        rows = table1_rows()
        assert tuple(r.lower_bound for r in rows) == TABLE1_LOWER
        assert tuple(r.b_d for r in rows) == TABLE1_BD
        for d in (5, 6):
            rep = compute_bd(d)
            assert 0.1079 <= rep.sup_value <= 0.1080


def test_criterion_4_table2():
    with budget("criterion 4 (table 2)", 10.0):
        rows = table2_rows()
        got = [(r.d, r.lower_bound, r.witness_upper, r.asymptotic) for r in rows]
        assert got == TABLE2_CELLS


def test_criterion_5_bound_property():
    with budget("criterion 5 (bound property)", 60.0):
        rng = np.random.default_rng(20260817)
        k = 5000  # per n: k equal-length pairs plus k (n+1, n) pairs
        for n in range(1, 65):
            xs = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, n))
            ys = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, n))
            q = quotient_q_batch(xs, ys)
            assert (q < C_STAR * n).all()

            # Symmetry: swapping the arguments preserves Q.
            assert np.all(
                np.abs(quotient_q_batch(ys, xs) - q)
                <= 1e-12 * np.maximum(1.0, np.abs(q))
            )

            # Homogeneity: Q is invariant under joint positive scaling.
            lam = 10.0 ** rng.uniform(-6.0, 6.0, size=(k, 1))
            qh = quotient_q_batch(xs * lam, ys * lam)
            assert np.all(np.abs(qh - q) <= 1e-12 * np.maximum(1.0, np.abs(q)))

            xs_long = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, n + 1))
            q_long = quotient_q_batch(xs_long, ys)
            assert (q_long < C_STAR * (n + 1)).all()

        # Componentwise-ordered pairs never produce a positive quotient.
        for n in (1, 2, 5, 16, 64):
            base = 10.0 ** rng.uniform(-3.0, 3.0, size=(200, n))
            lifted = base * (1.0 + rng.uniform(0.0, 2.0, size=base.shape))
            assert (quotient_q_batch(lifted, base) <= 1e-12).all()
            assert (quotient_q_batch(base, lifted) <= 1e-12).all()
            for row_x, row_y in zip(lifted[:20], base[:20]):
                assert q_ordered_nonpositive(list(row_x), list(row_y)) <= 1e-12


def test_criterion_6_asymptotic_sharpness():
    with budget("criterion 6 (asymptotic sharpness)", 5.0):
        n = 10**4
        x, y = witness_vectors(n)
        ratio = float(quotient_q(x, y).value) / n
        assert abs(ratio - C_STAR) <= 0.01 * C_STAR
        for m in range(1, 10):
            xm, ym = witness_vectors(m)
            assert float(quotient_q(xm, ym).value) < 0.0


def test_criterion_7_oracle_equivalence():
    with budget("criterion 7 (oracle equivalence)", 300.0):
        for n_x in range(1, 5):
            for n_y in range(1, 5):
                res = brute_force_sup(n_x, n_y, n_starts=64, seed=7, n_jobs=0)
                ref = sup_q(n_x, n_y).sup_value
                assert abs(res.best_value - ref) <= 1e-5
                if res.best_value > 0.0:
                    assert check_structured_shape(res)


def test_criterion_8_cone_consistency():
    with budget("criterion 8 (cone consistency)", 120.0):
        rng = np.random.default_rng(42)

        # Value of Psi at the reduced pattern equals the split identity.
        for _ in range(100):
            d = int(rng.integers(2, 11))
            b = float(rng.uniform(0.0, 1.0))
            z = 10.0 ** rng.uniform(-2.0, 2.0, size=d)
            a = d - d // 2  # minus-block length of the reduced pattern
            v_direct = psi(
                MatrixSpec(d, b).dense(),
                z,
                reduced_sign_pattern(d),
            )
            r = quotient_q(list(z[:a]), list(z[a:]))
            v_split = float(r.s3) * (1.0 - b * (1.0 + float(r.value)))
            assert v_direct == pytest.approx(v_split, rel=1e-10, abs=1e-10)

        # At the materialized worst-case z and b = b_d, no sign pattern
        # goes lower than the reduced one (up to the eps regularization).
        for d in range(2, 11):
            rep = compute_bd(d)
            x, y = sup_q(d - d // 2, d // 2).witness_pair(eps=1e-9)
            z = np.array(x + y)
            m = MatrixSpec(d, rep.b_d).dense()
            pats = enumerate_sign_patterns(d)
            vals = psi_over_patterns(m, z, pats)
            red = np.asarray(reduced_sign_pattern(d))
            idx = np.flatnonzero((pats == red).all(axis=1))
            assert idx.size == 1
            assert vals[idx[0]] <= vals.min() + 1e-6

        # Thresholds are nonincreasing in d, with the d = 3, 4 tie.
        bds = [compute_bd(d).b_d for d in range(2, 13)]
        for earlier, later in zip(bds, bds[1:]):
            assert later <= earlier + 1e-12
        assert abs(bds[1] - bds[2]) < 1e-6


def test_criterion_9_certification_roundtrip():
    with budget("criterion 9 (certification round-trip)", 60.0):
        margin = 1e-8
        for d in range(2, 13):
            bd = compute_bd(d).b_d

            low = membership_equal_offdiag(d, max(bd - margin, 0.0))
            assert low.verdict == "member_certified"

            mid = membership_equal_offdiag(d, bd)
            assert mid.verdict == "inconclusive"

            if bd + margin <= 1.0:
                high = membership_equal_offdiag(d, bd + margin)
                assert high.verdict == "nonmember"
                w = high.witness
                assert w is not None
                # psi_value is the exact Psi of the stored floats, correctly
                # rounded, as psi (psq verify) gives it on the spec and the dense matrix.
                assert w.psi_value == float(_psi_exact_offdiag(high.b, w.z, w.s))
                spec = MatrixSpec(d, high.b)
                assert psi(spec, w.z, w.s) == psi(spec.dense(), w.z, w.s) == w.psi_value
