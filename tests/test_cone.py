import itertools
import json
import math
import pickle
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psq.cone
from psq import all_split_threshold
from psq.cone import (
    MatrixSpec,
    _best_perturbation_slack,
    _dyadic_matrix,
    _psi,
    _sampled_patterns,
    _sign_patterns,
    _two_level,
    b3_radical,
    certify_general,
    check_diagonal_dominance,
    compute_bd,
    enumerate_sign_patterns,
    growth_lower_bound,
    membership_equal_offdiag,
    psi,
    psi_over_patterns,
    reduced_sign_pattern,
    sample_membership_general,
)
from psq.power_sums import quotient_q
from psq.structured import ALPHA_T, C_STAR, C_T, GAMMA_STAR, P_STAR, _gamma_root, sup_q, witness_vectors

# Thresholds frozen from an independent run of the structured maximizer.
FROZEN_BD = {
    2: 1.0,
    3: 0.9623649861142065,
    4: 0.9623649861142065,
    5: 0.9026013310604213,
    6: 0.9026013310604213,
    7: 0.8469643269912074,
    8: 0.8469643269912074,
    9: 0.7988694414707767,
    10: 0.7988694414707767,
    11: 0.7576561737215454,
    12: 0.7576561737215454,
}


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


class TestMatrixSpec:
    def test_equal_offdiag_dense(self):
        m = MatrixSpec(3, 0.5).dense()
        assert np.array_equal(m, np.array([[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]))

    def test_rejects_bad_b_and_d(self):
        for d, b in ((1, 0.5), (3, -0.1), (3, 1.5), (3, float("nan"))):
            with pytest.raises(ValueError):
                MatrixSpec(d, b)

    def test_every_construction_checks_d_and_b(self):
        forged = pickle.dumps(MatrixSpec(3, 0.5), protocol=0).replace(b"0.5", b"2.5")
        for make, message in (
            (lambda: MatrixSpec(3, "0.5"), "b must lie in [0, 1], got '0.5'"),
            (lambda: MatrixSpec(3, True), "b must lie in [0, 1], got True"),
            (lambda: MatrixSpec(3, float("nan")), "b must lie in [0, 1], got nan"),
            (lambda: MatrixSpec(3, 1.5), "b must lie in [0, 1], got 1.5"),
            (lambda: MatrixSpec(1, 0.5), "d must be an integer >= 2, got 1"),
            (lambda: MatrixSpec(2.5, 0.5), "d must be an integer >= 2, got 2.5"),
            (lambda: MatrixSpec(d=3, b=None), "b must lie in [0, 1], got None"),
            (lambda: MatrixSpec(4, 0.3)._replace(b=2.0), "b must lie in [0, 1], got 2.0"),
            (lambda: MatrixSpec(4, 0.3)._replace(d=True), "d must be an integer >= 2, got True"),
            (lambda: MatrixSpec._make([4, -0.5]), "b must lie in [0, 1], got -0.5"),
            (lambda: pickle.loads(forged), "b must lie in [0, 1], got 2.5"),
            (lambda: MatrixSpec.from_json_dict({"d": 3, "b": "0.5"}), "b must lie in [0, 1], got '0.5'"),
        ):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message

    def test_b_is_stored_as_a_float(self):
        # Psi of a spec is that of the rounded b, however b was given.
        spec = MatrixSpec(np.int64(3), Fraction(1, 3))
        assert type(spec.d) is int and type(spec.b) is float and spec.b == 1 / 3
        z, s = [1, Fraction(1, 3), 2], [-1, 1, 1]
        assert _psi(spec, z, s) == _psi(MatrixSpec(3, 1 / 3), z, s) == _psi(spec.dense(), z, s)
        assert MatrixSpec(2, 1) == (2, 1.0) and type(MatrixSpec(2, 1).b) is float

    @given(
        st.integers(2, 10**40),
        st.one_of(st.floats(0.0, 1.0), st.fractions(0, 1), st.integers(0, 1), st.floats(0.0, 1.0).map(np.float32)),
    )
    def test_round_trips(self, d, b):
        spec = MatrixSpec(d, b)
        assert type(spec) is MatrixSpec and spec == (d, float(b))
        copies = [
            MatrixSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))),
            spec._replace(),
            spec._replace(d=d, b=spec.b),
            MatrixSpec._make(spec),
            *(pickle.loads(pickle.dumps(spec, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        ]
        for copy in copies:
            assert type(copy) is MatrixSpec and copy.d == d and copy.b.hex() == spec.b.hex()

    def test_general_validation(self):
        for entries, message in (
            ([[1.0, 2.0]], "entries must be a square matrix, got shape (1, 2)"),
            ([[1.0]], "matrix must be at least 2 x 2"),
            ([[1.0, float("inf")], [0.0, 1.0]], "matrix entries must be finite"),
            ([[True, 0.1], [0.1, True]], "matrix must hold real numbers, got entry True"),
            ([["1", "0.1"], ["0.1", "1"]], "matrix must hold real numbers, got dtype <U3"),
            ([[1.0, None], [0.0, 1.0]], "matrix must hold real numbers, got entry None"),
            ([[1.0, {}], [0.0, 1.0]], "matrix must hold real numbers, got entry {}"),
            ([[1, 10**400], [0, 1]], "matrix entries must be finite, got an integer beyond float range"),
        ):
            with pytest.raises(ValueError) as err:
                MatrixSpec.from_json_dict({"entries": entries})
            assert str(err.value) == message
        # An empty matrix gets psq's message from every function on explicit matrices.
        for func in (certify_general, check_diagonal_dominance, sample_membership_general, lambda m: psi(m, [], [])):
            with pytest.raises(ValueError) as err:
                func(np.zeros((0, 0)))
            assert str(err.value) == "matrix must not be empty, got shape (0, 0)"

    def test_json_round_trip(self):
        # An M_d(b) file gives the spec back; an entries file gives the float array.
        a = MatrixSpec(4, 0.9)
        assert MatrixSpec.from_json_dict(a.to_json_dict()) == a
        assert json.loads(json.dumps(a.to_json_dict())) == a.to_json_dict()
        entries = [[2, 0.1], [0.3, 2.0]]
        for doc in ({"entries": entries}, {"d": 2, "entries": entries}):
            m = MatrixSpec.from_json_dict(doc)
            assert m.dtype == float and m.tolist() == [[2.0, 0.1], [0.3, 2.0]]

    def test_from_json_rejects_garbage(self):
        for bad in ({}, {"d": 3}, {"b": 0.5}, {"d": 3, "entries": [[1.0, 0], [0, 1.0]]}, []):
            with pytest.raises(ValueError):
                MatrixSpec.from_json_dict(bad)
        # One schema per file: both forms at once, or an unknown key, name the keys.
        for bad, keys in (
            ({"d": 2, "b": 0.9, "entries": [[1, 0], [0, 1]]}, "['b', 'd', 'entries']"),
            ({"d": 3, "b": 0.5, "bee": 1}, "['b', 'bee', 'd']"),
        ):
            with pytest.raises(ValueError, match="matrix spec must hold the keys") as err:
                MatrixSpec.from_json_dict(bad)
            assert str(err.value).endswith(f"got {keys}")


class TestSignPatterns:
    def test_counts_and_canonical_form(self):
        for d in (2, 3, 5, 8):
            pats = enumerate_sign_patterns(d)
            assert pats.shape == (2 ** (d - 1) - 1, d)
            assert np.all(pats[:, 0] == -1)
            assert not np.any(np.all(pats == -1, axis=1))
            assert len({tuple(p) for p in pats}) == pats.shape[0]

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_sign_patterns(25)

    def test_doubling_matches_bit_shift_reference(self):
        from psq.cone import _sign_patterns

        for d in range(2, 17):
            # Reference: index k sets entry j + 1 to -1 when bit j of k is set.
            idx = np.arange(1 << (d - 1), dtype=np.int64)
            ref = np.empty((idx.size, d), dtype=np.int8)
            ref[:, 0] = -1
            ref[:, 1:] = 1 - 2 * ((idx[:, None] >> np.arange(d - 1)) & 1)
            got = _sign_patterns(d)
            assert got.dtype == np.int8 and np.array_equal(got, ref)
            assert np.array_equal(enumerate_sign_patterns(d), ref[:-1])

    def test_reduced_pattern(self):
        assert reduced_sign_pattern(4) == (-1, -1, 1, 1)
        assert reduced_sign_pattern(5) == (-1, -1, -1, 1, 1)
        assert reduced_sign_pattern(2) == (-1, 1)
        with pytest.raises(ValueError):
            reduced_sign_pattern(1)


_ENTRY = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)),
    st.builds(lambda a, k: a * 10.0 ** k, st.floats(-10.0, 10.0), st.integers(-300, 300)),
)
_Z = st.one_of(
    st.floats(1e-3, 1e3),
    st.integers(1, 10 ** 6),
    st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),
)


@st.composite
def _matrix_z_s(draw):
    """A d x d float matrix with entries spanning 10^+-300, a positive z of floats, ints
    and Fractions, and a sign pattern, d = 1..5."""
    d = draw(st.integers(1, 5))
    m = np.array(draw(st.lists(_ENTRY, min_size=d * d, max_size=d * d))).reshape(d, d)
    return m, draw(st.lists(_Z, min_size=d, max_size=d)), draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))


class TestPsi:
    def test_m2_exact_line(self):
        for b in (0.0, 0.25, 0.5, 0.9, 1.0):
            m = MatrixSpec(2, b).dense()
            assert psi(m, [1.0, 1.0], [-1, 1]) == 2.0 - 2.0 * b

    def test_split_identity_equal_offdiag(self):
        # Psi_{M_d(b)}(z, s) = (M3(x)+M3(y)) * (1 - b(1+Q(x,y))) where x
        # is the minus block of z and y the plus block.
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(2, 9))
            a = int(rng.integers(1, d))
            b = float(rng.uniform(0, 1))
            z = 10.0 ** rng.uniform(-2, 2, size=d)
            s = [-1] * a + [1] * (d - a)
            v1 = psi(MatrixSpec(d, b).dense(), z, s)
            r = quotient_q(list(z[:a]), list(z[a:]))
            v2 = float(r.s3) * (1.0 - b * (1.0 + float(r.value)))
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)

    def test_sign_flip_invariance(self):
        m = np.array([[1.0, 0.3, -0.2], [0.6, 2.0, 0.1], [0.0, -0.5, 1.5]])
        z = [0.7, 1.3, 2.1]
        s = [-1, 1, -1]
        assert psi(m, z, s) == pytest.approx(
            psi(m, z, [-v for v in s]), rel=1e-15
        )

    def test_general_asymmetric_matrix_by_hand(self):
        # 2x2: psi = m00 z0^3 + m11 z1^3 + s0 s1 (m01 z0 z1^2 + m10 z1 z0^2)
        m = np.array([[2.0, 3.0], [5.0, 7.0]])
        z = [2.0, 1.0]
        assert psi(m, z, [-1, 1]) == 2 * 8 + 7 * 1 - (3 * 2 * 1 + 5 * 1 * 4)

    def test_over_patterns_matches_scalar(self):
        m = np.array([[1.0, 0.8, 0.2, -0.1], [0.5, 1.2, 0.4, 0.3],
                      [0.1, -0.2, 0.9, 0.6], [0.7, 0.2, 0.5, 1.1]])
        z = [0.5, 1.0, 2.0, 0.25]
        pats = enumerate_sign_patterns(4)
        vals = psi_over_patterns(m, z, pats)
        for k in range(pats.shape[0]):
            assert vals[k] == pytest.approx(psi(m, z, pats[k]), rel=1e-13, abs=1e-13)

    def test_input_validation(self):
        m = np.eye(2)
        with pytest.raises(ValueError):
            psi(m, [1.0], [-1, 1])
        with pytest.raises(ValueError):
            psi(m, [1.0, -1.0], [-1, 1])
        with pytest.raises(ValueError):
            psi(m, [1.0, 1.0], [-1, 2])
        # numpy reads True and "1" as 1; neither is a sign.
        for s in ([True, -1], [1, "1"], ["-1", "1"], np.array([True, True]), [1, None], [1, {}]):
            with pytest.raises(ValueError, match="must be -1 or \\+1"):
                psi(m, [1.0, 1.0], s)
        with pytest.raises(ValueError):
            psi(np.ones((2, 3)), [1.0, 1.0], [-1, 1])
        for m in (np.eye(2), MatrixSpec(2, 0.5)):
            with pytest.raises(ValueError, match="must have length 2"):
                psi(m, [1.0, 1.0], [-1, 1, 1])
            with pytest.raises(ValueError, match="must be -1 or \\+1"):
                psi(m, [1.0, 1.0], 5)

    def test_over_patterns_rejects_non_signs(self):
        m = np.eye(2)
        for pats in ([[2, 0.5], [True, 1]], [[-1, 2]], [[-1, 0]], [[True, -1]],
                     np.array([[True, True]]), [["-1", "1"]], [[-1, None]], [[-1, {}]]):
            with pytest.raises(ValueError, match="must be -1 or \\+1"):
                psi_over_patterns(m, [1.0, 1.0], pats)
        for pats in ([-1, 1], [[-1, 1, 1]]):
            with pytest.raises(ValueError, match="shape"):
                psi_over_patterns(m, [1.0, 1.0], pats)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        scale=st.sampled_from((0, 360, -360)),
        form=st.sampled_from(("ndarray", "list", "offdiag")),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_exact_psi_correctly_rounded(self, seed, scale, form):
        # Psi has degree 3 in z, so z scaled by 2^360 overflows to +-inf and
        # by 2^-360 lands in the subnormals or at a signed zero.
        rng = random.Random(seed)
        d = rng.randint(1 if form != "offdiag" else 2, 7)
        if form == "offdiag":
            matrix = MatrixSpec(d, rng.random())
            entries = matrix.dense().tolist()
        else:
            entries = [[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(d)]
            matrix = {"ndarray": np.array, "list": list}[form](entries)
        # Few distinct values, so an M_d(b) spec groups z into shared blocks.
        pool = [rng.uniform(0.01, 10.0), rng.randint(1, 9), Fraction(rng.randint(1, 99), rng.randint(1, 99))]
        z = [rng.choice(pool) * Fraction(2) ** scale if scale else rng.choice(pool) for _ in range(d)]
        s = [rng.choice((-1, 1)) for _ in range(d)]
        exact = _exact_psi(entries, z, s)
        try:
            want = float(exact)
        except OverflowError:
            want = math.inf if exact > 0 else -math.inf
        assert psi(matrix, z, s).hex() == want.hex()

    @given(case=_matrix_z_s())
    @example(case=(np.array([[0.0, -0.0], [5e-324, -5e-324]]), [1, Fraction(1, 3)], [-1, 1]))
    @example(case=(np.array([[1.7e308, -1.7e308], [-5e-324, 1e-300]]), [0.5, 3], [1, 1]))
    @example(case=(np.array([[2.0 ** 80, 3.0 * 2.0 ** 60], [-(2.0 ** 70), 2.0 ** 54]]), [Fraction(7, 5), 2.5], [-1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_dyadic_matrix_and_dense_psi_are_exact(self, case):
        m, z, s = case
        n, den = _dyadic_matrix(m)
        assert den > 0 and den & (den - 1) == 0 and {type(x) for x in n.ravel()} == {int}
        assert [Fraction(x, den) for x in n.ravel()] == [Fraction(e) for e in m.ravel().tolist()]
        num, den = _psi(m, z, s)
        assert type(num) is int and den > 0
        assert Fraction(num, den) == _exact_psi(m.tolist(), z, s)

    @pytest.mark.parametrize("d", range(2, 41))
    def test_spec_matches_dense(self, d):
        rng = random.Random(d)
        for b in (0.0, 1.0, compute_bd(d).b_d, rng.random()):
            spec = MatrixSpec(d, b)
            for scale in (1.0, 2.0 ** 360, 2.0 ** -360):
                z = [scale * rng.choice((1.0, 0.3, rng.uniform(0.1, 3.0))) for _ in range(d)]
                s = [rng.choice((-1, 1)) for _ in range(d)]
                assert psi(spec, z, s).hex() == psi(spec.dense(), z, s).hex(), (d, b, scale)

    @pytest.mark.parametrize("z, k", [([10 ** 400, 1.0], 0), ([1, Fraction(10 ** 400, 3)], 1)], ids=["int", "Fraction"])
    def test_rejects_z_beyond_float_range(self, z, k):
        # An exact entry beyond float range would overflow the float screen.
        for call in (
            lambda: psi(np.eye(2), z, [-1, 1]),
            lambda: psi(MatrixSpec(2, 0.5), z, [-1, 1]),
            lambda: psi_over_patterns(np.eye(2), z, [[-1, 1]]),
        ):
            with pytest.raises(ValueError, match=rf"z\[{k}\] lies beyond float range"):
                call()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_matrix(self, bad):
        m = [[1.0, bad], [0.5, 1.0]]
        for call in (
            lambda: psi(m, [1.0, 1.0], [-1, 1]),
            lambda: psi_over_patterns(m, [1.0, 1.0], [[-1, 1]]),
            lambda: check_diagonal_dominance(m),
            lambda: certify_general(m),
        ):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                call()


class TestDiagonalDominance:
    def test_hits_and_misses(self):
        assert check_diagonal_dominance(np.eye(3))
        assert check_diagonal_dominance([[5.0, 0.5, 0.5], [0.5, 5.0, 0.5], [0.5, 0.5, 5.0]])
        # row-wise dominant but not whole-matrix dominant
        m = np.full((4, 4), 0.4)
        np.fill_diagonal(m, 2.0)
        assert not check_diagonal_dominance(m)

    def test_dominant_matrix_has_no_violation(self):
        m = np.array([[5.0, 0.5, 0.5], [0.5, 5.0, 0.5], [0.5, 0.5, 5.0]])
        rep = sample_membership_general(m)
        assert rep.verdict == "inconclusive"
        assert certify_general(m).verdict == "member_certified"


class TestB3ClosedForm:
    def test_radical_equals_quartic_root(self):
        assert abs(b3_radical() - b3_quartic_root()) <= 1e-12
        assert b3_radical() == pytest.approx(0.962, abs=5e-4)

    def test_quartic_value_is_a_root(self):
        x = b3_quartic_root()
        assert 20 * x ** 4 + 60 * x ** 3 + 9 * x ** 2 - 54 * x - 27 == pytest.approx(
            0.0, abs=1e-10
        )


class TestComputeBd:
    @pytest.mark.parametrize("d", sorted(FROZEN_BD))
    def test_frozen_values(self, d):
        rep = compute_bd(d)
        assert rep.b_d == pytest.approx(FROZEN_BD[d], abs=1e-12)

    def test_monotone_nonincreasing(self):
        vals = [compute_bd(d).b_d for d in range(2, 13)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_exact_fields(self):
        assert compute_bd(2).exact == 1.0
        assert compute_bd(3).exact == pytest.approx(b3_radical(), abs=1e-15)
        assert compute_bd(4).exact == pytest.approx(b3_radical(), abs=1e-15)
        assert compute_bd(5).exact is None

    def test_b3_matches_closed_form(self):
        assert compute_bd(3).b_d == pytest.approx(b3_radical(), abs=1e-6)

    def test_ordering_where_the_bound_is_valid(self):
        # The floor-form growth bound is a true lower bound for even d
        # and for d <= 6; odd d >= 7 reports the ceil form instead
        # (the floor form gave 0.4153 > b_51 = 0.4065).
        for d in range(2, 2001):
            rep = compute_bd(d)
            assert rep.lower_bound <= rep.b_d <= 1.0
            if rep.witness_upper is not None:
                assert rep.b_d <= rep.witness_upper
            if d % 2 == 1 and d >= 7:
                assert rep.lower_bound == 1.0 / (1.0 + C_STAR * ((d + 1) // 2))

    def test_witness_upper_presence(self):
        assert compute_bd(12).witness_upper is None
        rep = compute_bd(20)
        assert rep.witness_upper is not None
        assert rep.b_d <= rep.witness_upper

    def test_asymptotic_field(self):
        rep = compute_bd(100)
        assert rep.asymptotic == pytest.approx(2.0 / (C_STAR * 100), abs=1e-15)

    def test_json_dict(self):
        doc = compute_bd(5).to_json_dict()
        assert doc["d"] == 5 and "bracket" not in doc
        json.dumps(doc)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compute_bd(1)

    @pytest.mark.parametrize("d", [-3, 0, 1, 2.5, True, "4", None])
    def test_growth_lower_bound_rejects_bad_d(self, d):
        # -3 gave 1.127, a "lower bound" above 1; 2.5 and True gave values too.
        with pytest.raises(ValueError, match="d must be an integer >= 2"):
            growth_lower_bound(d)

    def test_growth_estimate_matches_reference_routes(self):
        def by_lists(d):
            xg, _ = witness_vectors(d - d // 2)
            _, yg = witness_vectors(d // 2)
            return float(quotient_q(xg, yg).value), 2.0 / (C_STAR * d)

        def by_fractions(d):
            # Each entry's float powers summed exactly and rounded once,
            # as math.fsum does on the lists.
            def sums(blocks):
                powers = (lambda v: v, lambda v: v * v, lambda v: v * v * v)
                return [float(sum(c * Fraction(f(v)) for v, c in blocks)) for f in powers]

            n_x, n_y = d - d // 2, d // 2
            i = (16 * n_x - math.isqrt(175 * n_x * n_x) - 1) // 27  # floor(p* n_x), exactly
            x1, x2, x3 = sums([(1.0, i), (1.0 / n_x, n_x - i)])
            y1, y2, y3 = sums([(GAMMA_STAR, n_y)])
            return (x1 - y1) * (y2 - x2) / (x3 + y3), 2.0 / (C_STAR * d)

        rng = np.random.default_rng(8)
        large = [int(d) for d in rng.integers(10**4, 2 * 10**6, size=6)]

        def estimates(d):
            rep = compute_bd(d)
            return rep.witness_upper, rep.asymptotic

        def from_q(q, asym):
            return (1.0 / (1.0 + q) if q > 0.0 else None), asym

        for d in [*range(2, 3001), *large]:
            assert estimates(d) == from_q(*by_lists(d)), d
        # Beyond any list size.
        for d in (10**20, 10**100, 10**150):
            assert estimates(d) == from_q(*by_fractions(d)), d

    @pytest.mark.parametrize("d", [10**20, 10**100, 10**150], ids=["1e20", "1e100", "1e150"])
    def test_compute_bd_beyond_list_sizes(self, d):
        # Q of the pair trails the balanced sup by a relative 16/d or
        # so, far below float resolution here.
        rep = compute_bd(d)
        assert rep.witness_upper == pytest.approx(rep.b_d, rel=1e-12)
        assert 0.0 < rep.b_d < rep.asymptotic * (1.0 + 1e-12)

    @pytest.mark.parametrize("d", [10**160, 10**300, 10**400], ids=["1e160", "1e300", "1e400"])
    def test_huge_d_is_a_value_error(self, d):
        with pytest.raises(ValueError, match="too large"):
            compute_bd(d)


def _psi_exact_offdiag(b, z, s):
    """Exact Psi of M_d(b) at (z, s), summed over groups of equal (z_l, s_l):
    sum_l z_l^3 + b sum_l s_l z_l (S - s_l z_l^2) with S = sum_k s_k z_k^2."""
    b = Fraction(b)
    groups = [(Fraction(v), sg, k) for (v, sg), k in Counter(zip(z, s)).items()]
    total = sum(k * sg * v * v for v, sg, k in groups)
    return sum(k * (v ** 3 + b * sg * v * (total - sg * v * v)) for v, sg, k in groups)


def _check_nonmember_witnesses(d, n_grid, rng):
    """membership_equal_offdiag above b_d + 1e-8 (seeded grid and b = 1):
    nonmember, a two-value witness z = (1^i, gamma^(d - i)) with s = i
    minuses then pluses, exact Psi < 0, and psi_value its correctly rounded
    value, as psi gives it on the spec and, for d <= 200, on the dense matrix."""
    lo = compute_bd(d).b_d + 1e-8
    bs = [lo + (1.0 - lo) * rng.random() for _ in range(n_grid)] + [lo, 1.0]
    for b in (b for b in bs if lo <= b <= 1.0):
        rep = membership_equal_offdiag(d, b)
        w = rep.witness
        assert rep.verdict == "nonmember" and w is not None, (d, b)
        i = w.s.count(-1)
        assert len(w.z) == d and w.s == (-1,) * i + (1,) * (d - i), (d, b)
        assert len(set(w.z)) == 2 and w.z[:i] == (1.0,) * i, (d, b)
        exact = _psi_exact_offdiag(b, w.z, w.s)
        assert exact < 0 and w.psi_value == float(exact), (d, b)
        spec = MatrixSpec(d, b)
        assert psi(spec, w.z, w.s) == w.psi_value, (d, b)
        if d <= 200:
            assert psi(spec.dense(), w.z, w.s) == w.psi_value, (d, b)


class TestMembership:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_flip_at_threshold(self, d):
        # The flip is pinned to the computed threshold; frozen-value
        # agreement is covered separately at 1e-12, which is wider than
        # the fixed 1e-8 margin probed here.
        margin = 1e-8
        bd = compute_bd(d).b_d
        lo = membership_equal_offdiag(d, max(bd - margin, 0.0))
        assert lo.verdict == "member_certified" and lo.witness is None
        mid = membership_equal_offdiag(d, bd)
        assert mid.verdict == "inconclusive"
        if bd + margin <= 1.0:
            hi = membership_equal_offdiag(d, bd + margin)
            assert hi.verdict == "nonmember"
            assert hi.witness is not None and hi.witness.psi_value < 0

    def test_witness_reevaluates(self):
        # The unit count of the balanced maximizer (i = 1 for d = 6) as a
        # full block against the other d - 1 entries, not the balanced pattern.
        rep = membership_equal_offdiag(6, 0.95)
        m = MatrixSpec(6, 0.95).dense()
        w = rep.witness
        assert w.psi_value == float(_psi_exact_offdiag(0.95, w.z, w.s))
        assert psi(m, w.z, w.s) < 0.0
        assert w.s == (-1, 1, 1, 1, 1, 1)
        assert w.z == (1.0,) + (_gamma_root(1, 5),) * 5

    def test_nonmember_witness_exact_small_d(self):
        rng = random.Random(1201)
        for d in range(2, 201):
            _check_nonmember_witnesses(d, 3, rng)

    def test_nonmember_witness_exact_sampled_d(self):
        rng = random.Random(1202)
        for d in rng.sample(range(201, 3001), 100):
            _check_nonmember_witnesses(d, 1, rng)

    @pytest.mark.parametrize("d", [10**3, 10**4, 10**5, 10**6])
    def test_nonmember_witness_exact_large_d(self, d):
        _check_nonmember_witnesses(d, 2, random.Random(d))

    def test_far_sides(self):
        assert membership_equal_offdiag(4, 0.1).verdict == "member_certified"
        assert membership_equal_offdiag(4, 1.0).verdict == "nonmember"
        assert membership_equal_offdiag(2, 1.0).verdict == "inconclusive"

    def test_report_json(self):
        doc = membership_equal_offdiag(5, 0.99).to_json_dict()
        assert doc["verdict"] == "nonmember" and doc["witness"]["psi"] < 0
        json.dumps(doc)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            membership_equal_offdiag(1, 0.5)
        with pytest.raises(ValueError):
            membership_equal_offdiag(4, 1.2)

    def test_witness_too_large_to_build_is_a_value_error(self):
        # d fits sys.maxsize, but the witness lists cannot be allocated.
        with pytest.raises(ValueError, match="vector length 100000000000000000 is too large to build"):
            membership_equal_offdiag(10**17, 0.9)

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (all_split_threshold, (True,), "d must be an integer >= 1, got True"),
            (membership_equal_offdiag, (6, True), "b must lie in [0, 1], got True"),
            (membership_equal_offdiag, (6, False), "b must lie in [0, 1], got False"),
            (membership_equal_offdiag, (True, 0.5), "d must be an integer >= 2, got True"),
        ],
        ids=["all_split_threshold-d", "membership-b-True", "membership-b-False", "membership-d"],
    )
    def test_rejects_bools(self, func, args, message):
        with pytest.raises(ValueError) as err:
            func(*args)
        assert str(err.value) == message


class TestSampler:
    def test_finds_violation_above_threshold(self):
        m = MatrixSpec(5, 0.95).dense()
        rep = sample_membership_general(m)
        assert rep.verdict == "nonmember"
        assert rep.witness.psi_value < 0
        assert psi(m, rep.witness.z, rep.witness.s) == rep.witness.psi_value

    def test_finds_unbalanced_violation_below_balanced_threshold(self):
        # The balanced-split criterion certifies M_4(0.95) (b_4 = 0.962),
        # but the (1,3)-split pattern still violates positivity: the
        # balanced pattern is not sufficient at d >= 4.
        m = MatrixSpec(4, 0.95).dense()
        assert membership_equal_offdiag(4, 0.95).verdict == "member_certified"
        rep = sample_membership_general(m)
        assert rep.verdict == "nonmember"
        assert sum(1 for v in rep.witness.s if v < 0) in (1, 3)

    def test_deterministic(self):
        m = MatrixSpec(6, 0.97).dense()
        a = sample_membership_general(m)
        b = sample_membership_general(m)
        assert a == b

    def test_slices_keep_pattern_then_block_order(self, monkeypatch):
        # Screening one pattern, or a few, at a time gives the same report as
        # one slice: the first exact witness in pattern, then block order.  A
        # unit diagonal and sixteenths off it make every float sum of the
        # screen exact, so BLAS's summation order, which can depend on a
        # slice's row count, moves no bit.
        rng = np.random.default_rng(3101)
        cases = [MatrixSpec(d, 31 / 32).dense() for d in (3, 6, 12)]
        for _ in range(30):
            d = int(rng.integers(2, 13))
            m = rng.integers(-10, 17, (d, d)) / 16
            np.fill_diagonal(m, 1.0)
            cases.append(m)
        whole = [sample_membership_general(m) for m in cases]
        assert {rep.verdict for rep in whole} == {"nonmember", "inconclusive"}
        for size in (1, 37, 200):
            monkeypatch.setattr(psq.cone, "_SLICE_CUBICS", size)
            assert [sample_membership_general(m) for m in cases] == whole, size

    def test_memory_is_bounded(self):
        # The d = 600 member of the 0.04 + 0.001((3i + 7j) mod 11) family is a
        # nonmember; screening every cubic at once peaked near 160 MiB.
        d = 600
        i, j = np.indices((d, d))
        m = 0.04 + 0.001 * ((3 * i + 7 * j) % 11)
        np.fill_diagonal(m, 1.0)
        tracemalloc.start()
        try:
            rep = certify_general(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "nonmember" and rep.n_evaluated == len(_sampled_patterns(d)) * (2 * d - 1)
        assert peak < 100 * 2 ** 20, peak / 2 ** 20

    def test_clean_matrix_inconclusive(self):
        rep = sample_membership_general(np.eye(4))
        assert rep.verdict == "inconclusive" and rep.witness is None
        assert rep.n_evaluated > 0

    def test_large_d_sampled_patterns(self):
        m = MatrixSpec(30, 0.99).dense()
        rep = sample_membership_general(m)
        assert rep.verdict == "nonmember"

    def test_sampled_structured_rows_are_distinct(self):
        # From d = 11, where 2^(d-1) first exceeds d + 512, the sampled set
        # starts with the d minus blocks, one of them balanced and the
        # last the one-sign pattern; every row, drawn ones too, is listed once.
        for d in range(11, 41):
            rows = _sampled_patterns(d)
            assert len({tuple(r) for r in rows}) == len(rows), d
            assert tuple(rows[(d + 1) // 2 - 1]) == reduced_sign_pattern(d)
            assert tuple(rows[d - 1]) == (-1,) * d
        # The draws are unchanged: dropping repeats keeps each drawn row.
        drawn = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=(512, 11))
        drawn[:, 0] = -1
        assert {tuple(r) for r in drawn} <= {tuple(r) for r in _sampled_patterns(11)}

    def test_pattern_set_follows_its_count(self):
        # One cubic per pattern and block: every canonical pattern while
        # 2^(d-1) <= d + 512, else the d minus blocks and the distinct random
        # rows; blocks are the d - 1 proper prefixes and the d singletons.
        for d, patterns in ((10, 2 ** 9), (11, len(_sampled_patterns(11)))):
            rep = sample_membership_general(np.eye(d))
            assert rep.verdict == "inconclusive"
            assert rep.n_evaluated == patterns * (2 * d - 1), d
        assert patterns < 11 + 512

    def test_one_sign_pattern_is_searched(self):
        # Psi = z0^3 + z1^3 - 5 s0 s1 (z0 z1^2 + z1 z0^2) is negative only
        # where s0 = s1, that is at the one-sign pattern.
        m = [[1.0, -5.0], [-5.0, 1.0]]
        rep = sample_membership_general(m)
        assert rep.verdict == "nonmember" and rep.witness.s == (-1, -1)
        assert _exact_psi(m, rep.witness.z, rep.witness.s) < 0
        assert certify_general(m).verdict == "nonmember"

    def test_witness_psi_is_what_psi_reports(self):
        # The chunked evaluation only screens: a witness is accepted on its
        # exact sign and carries the exact Psi correctly rounded, as psi does.
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(30):
            d = int(rng.integers(3, 9))
            m = rng.uniform(-1.0, 1.0, (d, d))
            np.fill_diagonal(m, rng.uniform(0.2, 2.0, d))
            rep = sample_membership_general(m)
            if rep.verdict == "nonmember":
                found += 1
                w = rep.witness
                assert psi(m, w.z, w.s) == w.psi_value == float(_exact_psi(m, w.z, w.s)) < 0
        assert found >= 20

    def test_cubic_is_psi_along_the_block(self):
        # a3 r^3 + a2 r^2 + a1 r + a0 is Psi at z = (r on A, 1 off A) for the
        # d - 1 proper prefixes A, then the d singletons.
        rng = np.random.default_rng(2901)
        for _ in range(60):
            d = int(rng.integers(1, 10))
            m = rng.uniform(-1.0, 1.0, (d, d)) * 10.0 ** rng.uniform(-2.0, 2.0, (d, d))
            pats = _sign_patterns(d)
            with np.errstate(all="ignore"):
                (a0, a1, a2, a3), r, _ = _two_level(m, pats)
            assert a0.shape == r[0].shape == (len(pats), 2 * d - 1)
            blocks = [np.arange(d) <= a for a in range(d - 1)] + [np.arange(d) == j for j in range(d)]
            for _ in range(5):
                k, a, x = int(rng.integers(len(pats))), int(rng.integers(2 * d - 1)), 10.0 ** rng.uniform(-3, 3)
                want = psi_over_patterns(m, np.where(blocks[a], x, 1.0), pats[k : k + 1])[0]
                got = ((a3[k, a] * x + a2[k, a]) * x + a1[k, a]) * x + a0[k, a]
                assert abs(got - want) <= 1e-12 * abs(m).sum() * max(1.0, x) ** 3, (d, k, a, x)

    def test_refutes_all_that_the_fixed_probes_refuted(self):
        # The probe families of the earlier sampler (ones, spikes, gamma grid,
        # split maximizers, here 50 random probes) over the same patterns,
        # confirmed exactly: every matrix they refute, the two-level search refutes.
        rng = np.random.default_rng(2902)
        cases = []
        for _ in range(40):
            d = int(rng.integers(2, 13))
            m = rng.uniform(-0.3, 1.0) + rng.normal(0.0, rng.uniform(0.0, 0.2), (d, d))
            np.fill_diagonal(m, 1.0)
            w = 10.0 ** rng.uniform(-1.0, 1.0, d)
            zeroed = m.copy()
            zeroed[np.diag_indices(d)] = np.where(rng.uniform(size=d) < 0.3, 0.0, 1.0)
            mixed = rng.uniform(-1.0, 1.0, (d, d))
            np.fill_diagonal(mixed, rng.uniform(-0.2, 2.0, d))
            cases += [m, w[:, None] * m * (w * w), zeroed, mixed]
        refuted = 0
        for m in cases:
            if _fixed_probes_refute(m):
                refuted += 1
                rep = sample_membership_general(m)
                assert rep.verdict == "nonmember", m.tolist()
                assert _exact_psi(m.tolist(), rep.witness.z, rep.witness.s) < 0
        assert refuted >= 60

    def test_scaled_permuted_threshold_matrices_are_refuted(self):
        # P W M_d(t_d (1 + 1e-6)) W^2 P^T is a nonmember like M_d itself;
        # the diagonal normalization makes the scaling invisible to the search.
        rng = np.random.default_rng(2903)
        for d in range(4, 25):
            w, p = 10.0 ** rng.uniform(-1.5, 1.5, d), rng.permutation(d)
            m = MatrixSpec(d, all_split_threshold(d) * (1 + 1e-6)).dense()
            m = (w[:, None] * m * (w * w))[np.ix_(p, p)]
            rep = certify_general(m)
            assert rep.verdict == "nonmember" and rep.method == "sampling", d
            assert _exact_psi(m.tolist(), rep.witness.z, rep.witness.s) < 0, d

    def test_entries_spanning_float_range(self):
        # Normalizing by m_ll^(-1/3) overflows or underflows here; such
        # candidates are dropped, and any witness is still exactly negative.
        rng = np.random.default_rng(2904)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            m = rng.choice([-1.0, 1.0], (d, d)) * 10.0 ** rng.uniform(-300.0, 300.0, (d, d))
            np.fill_diagonal(m, np.where(rng.uniform(size=d) < 0.2, 0.0, 10.0 ** rng.uniform(-300.0, 300.0, d)))
            for rep in (sample_membership_general(m), certify_general(m)):
                assert rep.verdict in ("nonmember", "inconclusive", "member_certified")
                if rep.verdict == "nonmember":
                    assert _exact_psi(m.tolist(), rep.witness.z, rep.witness.s) < 0


def _fixed_probes_refute(m, seed=0):
    """Reference: the earlier sampler's probe vectors over its pattern set, 50 random probes, exact check."""
    d = m.shape[0]
    rng = np.random.default_rng(seed)
    pats = _sign_patterns(d) if 1 << (d - 1) <= d + 512 else _sampled_patterns(d)
    probes = [np.ones(d)]
    for j, t in itertools.product(range(d), (1e-3, 1e3)):
        probes.append(np.where(np.arange(d) == j, t, 1.0))
    for a, gamma in itertools.product(range(1, d), (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)):
        probes.append(np.where(np.arange(d) < a, 1.0, gamma))
    probes += [np.array(sum(sup_q(a, d - a).witness_pair(), [])) for a in range(1, d)]
    probes += [10.0 ** rng.uniform(-3.0, 3.0, size=d) for _ in range(50)]
    for z in probes:
        for j in np.flatnonzero(psi_over_patterns(m, z, pats) < 0.0):
            if _exact_psi(m.tolist(), z.tolist(), pats[j].tolist()) < 0:
                return True
    return False


class TestCertifyGeneral:
    def test_dominance_short_circuit(self):
        rep = certify_general(np.diag([3.0, 4.0, 5.0]))
        assert rep.verdict == "member_certified"
        assert rep.method == "diagonal_dominance"

    def test_falls_back_to_sampling(self):
        m = MatrixSpec(4, 0.99).dense()
        rep = certify_general(m)
        assert rep.method == "sampling" and rep.verdict == "nonmember"
        json.dumps(rep.to_json_dict())

    def test_near_float_max_warns_nothing(self):
        # The float sums overflow to inf; the slack is -inf and neither certificate fires.
        for m in (np.full((2, 2), 1e308), np.array([[1e308, -1e308], [1e308, 1e308]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert check_diagonal_dominance(m) is False
                assert _best_perturbation_slack(m)[1] == -math.inf
                rep = certify_general(m)
            assert (rep.verdict, rep.method) == ("inconclusive", "sampling")

    def test_one_by_one(self):
        assert certify_general(np.array([[2.0]])).method == "diagonal_dominance"
        # Psi = -z^3 < 0 for every z > 0 at the one pattern s = (-1,).
        m = np.array([[-1.0]])
        rep = certify_general(m)
        assert rep.verdict == "nonmember" and rep.witness.s == (-1,)
        assert psi(m, rep.witness.z, rep.witness.s) == rep.witness.psi_value < 0
        assert _exact_psi(m.tolist(), rep.witness.z, rep.witness.s) < 0


def _exact_psi(entries, z, s):
    """Exact Psi_M(z, s) of the stored floats."""
    d = len(entries)
    zf = [Fraction(v) for v in z]
    return sum(
        Fraction(entries[l][k]) * (zf[l] ** 3 if l == k else s[l] * s[k] * zf[l] * zf[k] ** 2)
        for l in range(d)
        for k in range(d)
    )


def _exact_min_psi(entries, z):
    """Sign of min over all sign patterns of the exact Psi_M(z, s).

    Every term m_lk z_l z_k^2 is a dyadic rational, so all of them are
    integers over one common denominator and each pattern is an exact
    integer sum; the returned integer has the sign of the minimum.
    """
    d = len(entries)
    zf = [Fraction(v) for v in z]
    terms = {(l, k): Fraction(entries[l][k]) * zf[l] * zf[k] ** 2 for l in range(d) for k in range(d)}
    den = math.lcm(*(t.denominator for t in terms.values()))
    n = {key: t.numerator * (den // t.denominator) for key, t in terms.items()}
    diag = sum(n[l, l] for l in range(d))
    pairs = [(l, k, n[l, k] + n[k, l]) for l in range(d) for k in range(l + 1, d)]
    return min(
        diag + sum(p if s[l] == s[k] else -p for l, k, p in pairs)
        for s in ((-1,) + tail for tail in itertools.product((-1, 1), repeat=d - 1))
    )


def _exact_one_minus_psi(entries, gamma):
    """Exact Psi_M at z = (1, g, ..., g), s = (-1, +1, ..., +1)."""
    d = len(entries)
    m = [[Fraction(v) for v in row] for row in entries]
    rest = range(1, d)
    row0 = sum(m[0][k] for k in rest)
    col0 = sum(m[l][0] for l in rest)
    inner = sum(m[l][k] for l in rest for k in rest)
    return m[0][0] - gamma * col0 - gamma ** 2 * row0 + gamma ** 3 * inner


def _bisection_reference(m):
    """The best b of min_l slack_l by a 45-step bisection on the slope of the
    minimizing row: (b, slack, t), the slack within hi 2^-45 of the optimum."""
    d = m.shape[0]
    t = all_split_threshold(d)
    diag = m.diagonal()

    def min_slack(b):
        a = abs(m - b)
        np.fill_diagonal(a, 0.0)
        rows = diag - b / t - (a.sum(axis=1) + 2.0 * a.sum(axis=0)) / 3.0
        l = int(rows.argmin())
        up = (m[l] <= b).sum() + 2 * (m[:, l] <= b).sum() - 3 * (diag[l] <= b)
        return float(rows[l]), -1.0 / t - (2 * up - 3 * (d - 1)) / 3.0

    lo, hi = 0.0, float(m[~np.eye(d, dtype=bool)].max(initial=t))
    best_b, (best, _) = lo, min_slack(lo)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        val, slope = min_slack(mid)
        if val > best:
            best_b, best = mid, val
        lo, hi = (mid, hi) if slope > 0.0 else (lo, mid)
    return best_b, best, t


def _exact_min_slack(entries, b, t):
    """min_l slack_l(b) in exact arithmetic on the stored floats."""
    d = len(entries)
    m = [[Fraction(v) for v in row] for row in entries]
    b, t = Fraction(b), Fraction(t)
    return min(
        m[l][l] - b / t
        - sum(abs(m[l][k] - b) + 2 * abs(m[k][l] - b) for k in range(d) if k != l) / 3
        for l in range(d)
    )


def _scan_threshold(d):
    """Reference for all_split_threshold: sup_q of every split (a, d - a)."""
    sup = max((sup_q(a, d - a).sup_value for a in range(1, d // 2 + 1)), default=0.0)
    return 1.0 / (1.0 + max(0.0, sup))


class TestAllSplitThreshold:
    def test_matches_scan(self):
        rng = random.Random(1202)
        ds = [*range(1, 201), *rng.sample(range(201, 2001), 8), rng.randrange(2001, 10**5 + 1)]
        for d in ds:
            assert all_split_threshold(d) == _scan_threshold(d), d

    def test_above_growth_bound(self):
        for d in range(2, 2001):
            assert 1.0 / (1.0 + C_T * d) < all_split_threshold(d), d
        # Nearly sharp: the bound's ratio 1/t - 1 to C_T d tends to 1.
        for d in (10**4, 10**6):
            assert 1.0 - 1e-5 < (1.0 / all_split_threshold(d) - 1.0) / (C_T * d) < 1.0

    def test_takes_the_exact_split(self):
        # floor(ALPHA_T d) in floats is one off for about 1.5 % of d in [2^40, 2^50).
        # The exact k is the largest with A = 3d - 6k >= 0, R = A^2 - 3d^2 >= 0, 12 d^4 <= R^2.
        def exact_k(d):
            below = lambda k: (a := 3 * d - 6 * k) >= 0 and (r := a * a - 3 * d * d) >= 0 and 12 * d**4 <= r * r
            k = int(ALPHA_T * d)
            while not below(k):
                k -= 1
            while below(k + 1):
                k += 1
            return k

        rng = np.random.default_rng(2905)
        ds = [d for d in map(int, rng.integers(2**40, 2**50, 3000)) if int(ALPHA_T * d) != exact_k(d)]
        assert len(ds) >= 20
        threshold = lambda d, splits: 1.0 / (1.0 + max(0.0, max(sup_q(a, d - a).sup_value for a in splits)))
        for d in ds:
            k, t = exact_k(d), all_split_threshold(d)
            assert t == threshold(d, (k, k + 1)), d
            # The true sups of splits k - 1..k + 2 agree to about 1/d^2 relative,
            # so the floats differ by sup_q's own rounding, a few ulps at most.
            assert abs(t - threshold(d, range(k - 1, k + 3))) <= 2 * math.ulp(t), d
        # Here the float split (k + 1, k + 2) gave 8.086551625829861e-14.
        assert all_split_threshold(239809324699904) == 8.086551625829858e-14


class TestPerturbationCertificate:
    def test_all_split_threshold_against_bd(self):
        for d in range(2, 201):
            t, bd = all_split_threshold(d), compute_bd(d).b_d
            if d <= 3:
                assert t == bd
            else:
                assert t < bd
        # Every split's own threshold is at least t, and one attains it.
        for d in (4, 7, 16, 33):
            per_split = [1.0 / (1.0 + max(0.0, sup_q(a, d - a).sup_value)) for a in range(1, d)]
            assert min(per_split) == all_split_threshold(d)
        assert all_split_threshold(4) == pytest.approx(0.9026013310604213, abs=1e-15)
        assert all_split_threshold(16) == pytest.approx(0.5499648909721311, abs=1e-15)

    def test_m16_is_certified(self):
        rep = certify_general(MatrixSpec(16, 0.3).dense())
        assert rep.verdict == "member_certified" and rep.method == "perturbation"
        diag = rep.diagnostics
        assert diag["threshold"] == all_split_threshold(16)
        assert diag["b"] == 0.3
        assert diag["slack"] == pytest.approx(1.0 - 0.3 / diag["threshold"], abs=1e-9)
        assert diag["evaluations"] <= math.ceil(math.log2(16 * 15 + 2)) + 3
        assert json.loads(json.dumps(rep.to_json_dict()))["diagnostics"] == diag

    def test_threshold_is_tight(self):
        # Above t_d the two-level search refutes M_d(b): the split's full block is a prefix.
        for d in [*range(3, 25), 32, 48, 64]:
            t = all_split_threshold(d)
            above = MatrixSpec(d, t * (1 + 1e-6)).dense()
            rep = certify_general(above)
            assert rep.verdict == "nonmember", d
            assert _exact_psi(above.tolist(), rep.witness.z, rep.witness.s) < 0, d
            below = MatrixSpec(d, t * (1 - 1e-6)).dense()
            assert certify_general(below).method == "perturbation", d

    def test_slack_maximized_where_rows_cross(self):
        # Entries 0.3 in row and column 0, else 0: slack_0(b) = 0.4 + 2b
        # - b/t and slack_1(b) = slack_2(b) = 0.7 - b/t on [0, 0.3], so
        # the best b is their crossing 0.15, not a breakpoint (0 or 0.3).
        m = MatrixSpec(3, 0.0).dense()
        m[0, 1:] = m[1:, 0] = 0.3
        rep = certify_general(m)
        assert rep.method == "perturbation"
        t = all_split_threshold(3)
        assert rep.diagnostics["b"] == pytest.approx(0.15, abs=1e-15)
        assert rep.diagnostics["slack"] == pytest.approx(0.7 - 0.15 / t, abs=1e-9)
        assert rep.diagnostics["slack"] > max(0.4, 0.7 - 0.3 / t) + 0.1

    def test_breakpoint_search_matches_bisection_reference(self):
        rng = np.random.default_rng(10)
        cases = [np.array([[1.0]]), np.array([[-1.0]]), np.array([[0.5]])]
        for d in (2, 3, 7, 12):
            t = all_split_threshold(d)
            cases += [
                MatrixSpec(d, f * t).dense() for f in (0.0, 0.5, 1 - 1e-6, 1.0)
            ]
            m = np.full((d, d), -0.2)  # negative entries, all off-diagonals equal
            np.fill_diagonal(m, 1.0)
            cases.append(m)
            m = np.full((d, d), 2.0 * t)  # entries above t
            np.fill_diagonal(m, 5.0 * d)
            cases.append(m)
            m = MatrixSpec(d, 0.0).dense()  # rows tie pairwise
            m[0, 1:] = m[1:, 0] = m[-1, :-1] = m[:-1, -1] = 0.3
            cases.append(m)
        for _ in range(300):
            d = int(rng.integers(1, 21))
            b = rng.uniform(0.0, 1.0) * all_split_threshold(d)
            m = np.full((d, d), b) + rng.normal(0.0, rng.uniform(0.0, 0.05), (d, d))
            np.fill_diagonal(m, 1.0 + rng.normal(0.0, 0.05, d))
            m[1:, 0] += rng.choice([0.0, rng.uniform(0.0, 1.5)])
            m[0, 1:] += rng.choice([0.0, rng.uniform(0.0, 1.5)])
            if rng.uniform() < 0.2:  # ties: entries on a coarse grid
                m = np.round(m * 8.0) / 8.0
            cases.append(m)
        for m in cases:
            d = m.shape[0]
            scale = max(1.0, d * float(abs(m).max()))
            b, slack, t, evaluations = _best_perturbation_slack(m)
            _, ref, _ = _bisection_reference(m)
            assert (slack > 1e-9 * scale) == (ref > 1e-9 * scale)
            assert slack >= ref - 1e-12 * scale
            assert b >= 0.0 and evaluations <= math.ceil(math.log2(d * (d - 1) + 2)) + 3
            assert abs(slack - _exact_min_slack(m.tolist(), b, t)) <= 1e-12 * scale

    @given(
        d=st.integers(3, 10),
        frac=st.floats(0.0, 1.0),
        noise=st.floats(0.0, 0.05),
        bump_col=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        bump_row=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_certified_perturbations_are_members(self, d, frac, noise, bump_col, bump_row, seed):
        rng = np.random.default_rng(seed)
        b = frac * compute_bd(d).b_d
        m = MatrixSpec(d, b).dense() + rng.normal(0.0, noise, (d, d))
        m[1:, 0] += bump_col
        m[0, 1:] += bump_row
        if certify_general(m).verdict != "member_certified":
            return
        entries = m.tolist()
        for _ in range(3):
            z = (10.0 ** rng.uniform(-1.5, 1.5, d)).tolist()
            assert _exact_min_psi(entries, z) >= 0
        for k in range(1, 50):
            assert _exact_one_minus_psi(entries, Fraction(k, 50)) >= 0
