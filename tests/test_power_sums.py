import importlib
import json
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psq import (
    MatrixSpec,
    all_split_threshold,
    brute_force_sup,
    compute_bd,
    enumerate_sign_patterns,
    growth_blocks,
    growth_lower_bound,
    membership_equal_offdiag,
    psi,
    reduced_sign_pattern,
    sup_q,
    table2_rows,
)
from psq.power_sums import (
    power_sums,
    q_ordered_nonpositive,
    quotient_q,
    quotient_q_batch,
    validate_positive_vector,
)

finite_pos = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)
pos_vector = st.lists(finite_pos, min_size=1, max_size=12)

# Q(x_check, y_check) in exact arithmetic; all entries are dyadic
# rationals, so the float tuples below represent them exactly.
X_CHECK_EXACT = [
    Fraction(3, 2),
    Fraction(1, 2 ** 24),
    Fraction(1, 2 ** 23),
    Fraction(1, 2 ** 21),
    Fraction(1, 2 ** 13),
    Fraction(1, 2 ** 12),
    Fraction(3, 4),
]
Y_CHECK_EXACT = [
    Fraction(1),
    Fraction(1, 2 ** 8),
    Fraction(1, 2 ** 6),
    Fraction(1, 2 ** 4),
    Fraction(1, 2),
    Fraction(1),
]
Q_CHECK_EXACT = Fraction(874486138636123407625, 27966435233199082701321)

# The module itself; the package attribute psq.power_sums is the function.
ps = importlib.import_module("psq.power_sums")


def reference_sums(entries):
    """M_1, M_2, M_3 by the definition, one Python step per entry.

    Float input: each power of float(e) rounded once, as e * e and
    (e * e) * e, then math.fsum.  All-exact input (int, Fraction): plain
    running sums.
    """
    v = entries.tolist() if isinstance(entries, np.ndarray) else list(entries)
    if all(isinstance(e, (int, Fraction)) for e in v):
        return sum(v), sum(e * e for e in v), sum(e ** 3 for e in v)
    fv = [float(e) for e in v]
    return math.fsum(fv), math.fsum(e * e for e in fv), math.fsum(e * e * e for e in fv)


def bits(t):
    """Type and exact bit pattern (or exact value) of each sum."""
    return [(type(s), s.hex() if isinstance(s, float) else s) for s in t]


# Positive doubles whose cubes stay finite, subnormals included.
wide_pos = st.floats(min_value=0.0, max_value=1e100, exclude_min=True)
wide_pos32 = st.floats(min_value=0.0, max_value=2.0 ** 100, exclude_min=True, width=32)
wide_vector = st.lists(wide_pos, min_size=1, max_size=40)
exact_entry = st.one_of(
    st.integers(min_value=1, max_value=10 ** 12),
    st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 6, max_denominator=10 ** 4),
)


class TestPowerSums:
    def test_simple_triple(self):
        t = power_sums([1, Fraction(1, 2), Fraction(1, 4)])
        assert (t.m1, t.m2, t.m3) == (
            Fraction(7, 4),
            Fraction(21, 16),
            Fraction(73, 64),
        )

    def test_float_path_uses_compensated_sums(self):
        v = [1e16, 1.0, -0.0 + 2.0]
        t = power_sums(v)
        assert t.m1 == math.fsum(v)

    def test_single_entry(self):
        t = power_sums([2.0])
        assert (t.m1, t.m2, t.m3) == (2.0, 4.0, 8.0)


class TestPowerSumsMatchReference:
    @given(v=wide_vector, kind=st.sampled_from(["list", "tuple", "float64", "float64_scalars"]))
    @settings(max_examples=300, deadline=None)
    def test_float_bit_identical(self, v, kind):
        if kind == "tuple":
            v = tuple(v)
        elif kind == "float64":
            v = np.array(v)
        elif kind == "float64_scalars":
            v = [np.float64(e) for e in v]
        assert bits(tuple(power_sums(v))) == bits(reference_sums(v))

    @given(v=st.lists(wide_pos32, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_float32_array_bit_identical(self, v):
        a = np.array(v, dtype=np.float32)
        assert bits(tuple(power_sums(a))) == bits(reference_sums(a))

    @given(v=st.lists(st.one_of(wide_pos, st.integers(1, 10 ** 30)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_int_float_mix_bit_identical(self, v):
        assert bits(tuple(power_sums(v))) == bits(reference_sums(v))

    def test_subnormals_bit_identical(self):
        v = [5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308, 1.0]
        for form in (v, np.array(v)):
            assert bits(tuple(power_sums(form))) == bits(reference_sums(form))

    @given(v=st.lists(exact_entry, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_exact_same_values_and_types(self, v):
        assert bits(tuple(power_sums(v))) == bits(reference_sums(v))

    def test_exact_many_denominators(self):
        # Sums run per distinct denominator: many of them, one shared, and ints mixed in.
        rng = random.Random(32)
        many = [Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for _ in range(3000)]
        shared = [Fraction(rng.randint(1, 10**6), 997) for _ in range(500)]
        for v in (many, shared, [rng.randint(1, 10**6) if k % 3 else f for k, f in enumerate(many)],
                  [7, *shared[:5], 10**40], [Fraction(4, 2), 3]):
            assert bits(tuple(power_sums(v))) == bits(reference_sums(v))

    def test_exact_types(self):
        assert [type(m) for m in tuple(power_sums([1, 2, 3]))] == [int] * 3
        # A Fraction with denominator 1 still makes every sum a Fraction.
        assert [type(m) for m in tuple(power_sums([1, Fraction(4, 2)]))] == [Fraction] * 3


B = ps._BLOCK
# Every finite double >= 0, subnormals and the top binade included.
any_finite = st.floats(min_value=0.0, allow_infinity=False, allow_nan=False)


def list_sums(values):
    """math.fsum of v, v * v and (v * v) * v; inf for a total that overflows."""
    out = []
    for powers in (values, [e * e for e in values], [e * e * e for e in values]):
        try:
            out.append(math.fsum(powers))
        except OverflowError:
            out.append(math.inf)
    return out


@st.composite
def kernel_arrays(draw):
    """A float64 array of a block-edge length with drawn values at drawn
    places, including both sides of every block boundary."""
    n = draw(st.sampled_from([1, 2, B - 1, B, B + 1, 3 * B + 5]))
    filler = draw(any_finite | st.sampled_from([1.0, 0.1, 5e-324]))
    a = np.full(n, filler)
    edges = [i for k in range(1, 4) for i in (k * B - 1, k * B) if i < n] + [n - 1]
    spots = st.sampled_from(edges) | st.integers(0, n - 1)
    for i, v in draw(st.lists(st.tuples(spots, any_finite), max_size=12)):
        a[i] = v
    # Ties: halves of the last unit of some entries, so that the exact
    # sum lands halfway between two doubles.
    for i in draw(st.lists(spots, max_size=3)):
        half = math.ulp(a[i]) / 2
        j = draw(spots)
        if j != i and half > 0.0:
            a[j] = half
    return a


class TestExactArraySums:
    @given(a=kernel_arrays(), view=st.sampled_from(["plain", "step3", "reversed"]))
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_fsum(self, a, view):
        if view == "step3":
            a = np.repeat(a, 3)[1::3]
        elif view == "reversed":
            a = a[::-1]
        want = list_sums(a.tolist())
        try:
            got = ps._array_sums(a)
        except OverflowError:
            got = (math.inf,) * 3
        for g, w in zip(got, want):
            if math.isfinite(w):
                assert g.hex() == w.hex()
            else:
                assert not math.isfinite(g)

    def test_cubes_at_the_top_of_their_bucket(self):
        # Entries just below 2 sit in binade 0; their cubes just below 8
        # are the largest values one bucket holds.
        v = [math.nextafter(2.0, 0.0)] * B
        assert [s.hex() for s in ps._array_sums(np.array(v))] == [s.hex() for s in list_sums(v)]

    def test_powers_into_subnormals_and_zero(self):
        # Squares of entries near 2**-512 and cubes of entries near 2**-342
        # are subnormal or 0, and share their bucket with normal powers.
        rng = np.random.default_rng(342)
        a = rng.uniform(0.5, 2.0, B) * 2.0 ** rng.choice([-512, -511, -342, -341, -1, 0, 30], B)
        a[:4] = 2.0 ** -512, 2.0 ** -538, 2.0 ** -342, 2.0 ** -359
        assert any(0.0 < e ** 2 < 2.0 ** -1022 for e in a[:2]) and 0.0 < a[2] ** 3 < 2.0 ** -1022
        assert a[1] ** 2 == a[3] ** 3 == 0.0
        assert [s.hex() for s in ps._array_sums(a)] == [s.hex() for s in list_sums(a.tolist())]

    def test_ties_round_to_even_across_blocks(self):
        # 1 + 2**-53 is a tie, so it rounds to the even 1.0; one more
        # 2**-106 past the tie, in a later block, rounds it up.
        a = np.full(2 * B + 1, 0.0)
        a[0], a[B] = 1.0, 2.0 ** -53
        assert ps._array_sums(a)[0] == 1.0 == math.fsum(a.tolist())
        a[2 * B] = 2.0 ** -106
        assert ps._array_sums(a)[0] == 1.0 + 2.0 ** -52 == math.fsum(a.tolist())

    @pytest.mark.parametrize(
        "spread, n",
        [("unit", n) for n in (1, 1000, B + 1, 3 * B + 5)] + [("wide", n) for n in (1, 1000, B + 1)],
    )
    def test_array_and_list_give_identical_bits(self, spread, n):
        rng = np.random.default_rng(n)
        lo, hi = (-2.0, 0.0) if spread == "unit" else (-320.0, 100.0)
        x = 10.0 ** rng.uniform(lo, hi, n)
        y = x * (1.0 + rng.uniform(0.0, 0.5, n))
        y[::7] = x[::7]
        assert bits(tuple(power_sums(x))) == bits(tuple(power_sums(x.tolist())))
        assert bits(tuple(quotient_q(x, y[: n // 2 + 1]))) == bits(tuple(quotient_q(x.tolist(), y[: n // 2 + 1].tolist())))
        want = q_ordered_nonpositive(x.tolist(), y.tolist())
        for pair in ((x, y), (x, y.tolist()), (x.tolist(), y)):
            assert q_ordered_nonpositive(*pair).hex() == want.hex()
        assert q_ordered_nonpositive(y, x).hex() == q_ordered_nonpositive(y.tolist(), x.tolist()).hex()

    def test_ordered_array_messages(self):
        x, y = np.array([2.0, 1.0]), np.array([1.0, 2.0])
        for pair in ((x, y), (x, y.tolist())):
            with pytest.raises(ValueError, match="^x and y are not componentwise comparable$"):
                q_ordered_nonpositive(*pair)
        with pytest.raises(ValueError, match="^x and y must have equal length, got 2 and 1$"):
            q_ordered_nonpositive(x, np.array([1.0]))
        with pytest.raises(ValueError, match=r"^y\[1\] = -2.0 is not > 0"):
            q_ordered_nonpositive(x, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("at", [0, B - 1, B, 2 * B + 7])
    @pytest.mark.parametrize("big", [1e120, 1e200, 1.7e308])
    def test_overflow_matches_list_path(self, at, big):
        # 1e120 overflows only its cube, 1e200 its square; 1.7e308 twice
        # overflows M_1 itself.
        a = np.full(3 * B, 0.5)
        a[at] = a[-1] = big
        for form in (a, a.tolist()):
            with pytest.raises(ValueError) as err:
                quotient_q([1.0], form)
            assert str(err.value) == "y: power sums overflow float64; pass exact integers or fractions"


class TestLongFloatLists:
    """All-float lists of _ARRAY_MIN or more entries take the array route
    once numpy is loaded; the sums and messages stay the list route's."""

    @pytest.mark.parametrize(
        "n", [ps._ARRAY_MIN - 1, ps._ARRAY_MIN, ps._ARRAY_MIN + 1, B - 1, B + 1, 10 ** 5]
    )
    @pytest.mark.parametrize("span", ["unit", "subnormal", "overflow"])
    def test_list_and_array_give_equal_sums(self, n, span):
        rng = np.random.default_rng(n)
        lo, hi = {"unit": (-2.0, 0.0), "subnormal": (-320.0, 100.0), "overflow": (-320.0, 120.0)}[span]
        x = 10.0 ** rng.uniform(lo, hi, n)
        y = x[::-1] * (1.0 + rng.uniform(0.0, 0.5, n))
        if span != "unit":
            x[0] = 5e-324
        if span == "overflow":
            x[-1] = 1e120
        assert (ps._validated(x.tolist(), "x")[1] is None) == (n >= ps._ARRAY_MIN)
        for f in (power_sums, lambda v: quotient_q(v, y[: n // 2 + 1])):
            out = []
            for form in (x, x.tolist(), tuple(x.tolist())):
                try:
                    out.append(bits(tuple(f(form))))
                except ValueError as err:
                    out.append(str(err))
            assert out[0] == out[1] == out[2]
        if span == "overflow":
            assert out[0] == "x: power sums overflow float64; pass exact integers or fractions"
        else:
            assert bits(tuple(power_sums(x.tolist()))) == bits(reference_sums(x.tolist()))

    @pytest.mark.parametrize(
        "planted, message",
        [
            (math.nan, "x[1100] = nan is not finite"),
            (-0.0, "x[1100] = -0.0 is not > 0; all entries must be positive"),
            (math.inf, "x[1100] = inf is not finite"),
            (True, "x[1100] = True is not a number"),
            (0, "x[1100] = 0 is not > 0; all entries must be positive"),
            ("2.0", "x[1100] = '2.0' is not a number"),
            (2, None),
            (math.nan, "x[0] = nan is not finite"),
            (-0.0, "x[0] = -0.0 is not > 0; all entries must be positive"),
            (math.inf, "x[0] = inf is not finite"),
            (True, "x[0] = True is not a number"),
            (0, "x[0] = 0 is not > 0; all entries must be positive"),
            ("2.0", "x[0] = '2.0' is not a number"),
        ],
    )
    def test_planted_entry_takes_the_entry_loop(self, planted, message):
        assert ps._ARRAY_MIN < 1100
        v = (10.0 ** np.random.default_rng(1100).uniform(-2.0, 0.0, 1200)).tolist()
        v[0 if message and message.startswith("x[0]") else 1100] = planted
        if message is None:
            assert bits(tuple(power_sums(v))) == bits(reference_sums(v))
            return
        calls = (validate_positive_vector, power_sums, lambda v: quotient_q(v, [1.0]), lambda v: q_ordered_nonpositive(v, v))
        for call in calls:
            with pytest.raises(ValueError) as err:
                call(v)
            assert str(err.value) == message

    @pytest.mark.parametrize("at", [0, 1100])
    def test_int_entry_falls_through_to_the_list_route(self, at):
        v = (10.0 ** np.random.default_rng(at).uniform(-2.0, 0.0, 1200)).tolist()
        v[at] = 3
        assert ps._validated(v, "x")[1] == {float, int}
        assert bits(tuple(power_sums(v))) == bits(reference_sums(v))
        assert bits(tuple(power_sums(tuple(v)))) == bits(reference_sums(v))

    @pytest.mark.parametrize("n", [3, ps._ARRAY_MIN + 1])
    def test_validate_returns_a_new_list(self, n):
        v = [0.5] * n
        for form in (v, tuple(v), v[:2] + [1, Fraction(1, 3)] + v[4:]):
            out = validate_positive_vector(form)
            assert type(out) is list and out is not form and out == list(form)
            before = list(form)
            out[0] = -1.0
            assert list(form) == before

    def test_psi_leaves_a_mixed_z_unchanged(self):
        z = [1, np.float64(0.5), Fraction(1, 3), np.int64(2)]
        before = [(type(e), e) for e in z]
        psi(MatrixSpec(4, 0.3), z, [1, -1, 1, 1])
        assert [(type(e), e) for e in z] == before


class TestValidation:
    @pytest.mark.parametrize(
        "bad", [[], [0.0], [-1.0], [1.0, float("nan")], [float("inf")], [1.0, 0]]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_positive_vector(bad)

    def test_error_names_entry(self):
        with pytest.raises(ValueError, match=r"y\[1\]"):
            validate_positive_vector([1.0, -2.0], name="y")

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            validate_positive_vector([True, 1.0])

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError):
            validate_positive_vector([1.0, "2"])
        with pytest.raises(ValueError):
            validate_positive_vector(3.5)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, math.nan], "x[1] = nan is not finite"),
            ([math.nan, 1.0], "x[0] = nan is not finite"),
            ([1.0, math.nan, 2.0], "x[1] = nan is not finite"),
            ([1.0, math.inf], "x[1] = inf is not finite"),
            ([1.0, 0.0], "x[1] = 0.0 is not > 0; all entries must be positive"),
            ([-0.0], "x[0] = -0.0 is not > 0; all entries must be positive"),
            ([2.0, -1.5], "x[1] = -1.5 is not > 0; all entries must be positive"),
            ([[1.0, 2.0]], "x[0] = [1.0, 2.0] is not a number"),
            ([], "x must be nonempty"),
        ],
    )
    def test_messages_through_list_and_ndarray(self, bad, message):
        for form in (bad, tuple(bad), np.array(bad, dtype=float)):
            with pytest.raises(ValueError) as err:
                validate_positive_vector(form)
            assert str(err.value) == message

    def test_bool_message_through_list_and_ndarray(self):
        for form in ([True, 1.0], np.array([True, False])):
            with pytest.raises(ValueError) as err:
                validate_positive_vector(form)
            assert str(err.value) == "x[0] = True is not a number"

    def test_accepts_numpy_and_subnormals(self):
        a = np.array([1.0, 2.0])
        for form in (a, a.tolist(), tuple(a.tolist())):
            out = validate_positive_vector(form)
            assert type(out) is list and out == [1.0, 2.0]
            assert all(type(e) is float for e in out)
        assert validate_positive_vector([5e-324]) == [5e-324]

    @given(
        v=st.lists(st.one_of(st.integers(1, 10 ** 30), st.fractions(min_value=Fraction(1, 10 ** 9))), min_size=1, max_size=20),
        planted=st.sampled_from([None, 0, Fraction(0), -3, Fraction(-1, 7), True, False]),
        at=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_fast_path_matches_entry_loop(self, v, planted, at):
        # All-int/Fraction input takes a fast path; this per-entry loop
        # is the reference for both the accepted list and the message.
        if planted is not None:
            v.insert(min(at, len(v)), planted)

        def entry_loop(out):
            for idx, e in enumerate(out):
                if isinstance(e, bool) or not isinstance(e, (int, float, Fraction, np.integer, np.floating)):
                    raise ValueError(f"x[{idx}] = {e!r} is not a number")
                if e <= 0:
                    raise ValueError(f"x[{idx}] = {e!r} is not > 0; all entries must be positive")
            return out

        def outcome(check):
            try:
                return check(list(v))
            except ValueError as err:
                return str(err)

        assert outcome(validate_positive_vector) == outcome(entry_loop)


class TestQuotient:
    def test_scalar_example(self):
        r = quotient_q([1], [2])
        assert r.value == Fraction(-1, 3)
        assert (r.s1, r.s2, r.s3) == (-1, 3, 9)

    def test_exact_golden_pair(self):
        r = quotient_q(X_CHECK_EXACT, Y_CHECK_EXACT)
        assert r.value == Q_CHECK_EXACT
        assert float(r.value) == 0.03126913141929569

    def test_float_matches_exact_on_dyadics(self):
        rf = quotient_q([float(e) for e in X_CHECK_EXACT], [float(e) for e in Y_CHECK_EXACT])
        assert rf.value == pytest.approx(float(Q_CHECK_EXACT), abs=1e-15)

    def test_unequal_lengths(self):
        r = quotient_q([1.0, 1.0], [0.5])
        assert math.isfinite(float(r.value))

    @given(x=pos_vector, y=pos_vector)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_is_exact(self, x, y):
        a = quotient_q(x, y)
        b = quotient_q(y, x)
        assert a.value == b.value
        assert a.s1 == -b.s1 and a.s2 == -b.s2 and a.s3 == b.s3

    @given(x=pos_vector, y=pos_vector, t=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_degree_zero_homogeneity(self, x, y, t):
        a = float(quotient_q(x, y).value)
        b = float(quotient_q([t * e for e in x], [t * e for e in y]).value)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @given(x=pos_vector, y=pos_vector)
    @settings(max_examples=200, deadline=None)
    def test_denominator_positive_and_m3_bounded(self, x, y):
        r = quotient_q(x, y)
        assert float(r.s3) > 0
        for v in (x, y):
            t = power_sums(v)
            assert float(t.m3) <= float(t.m1) * float(t.m2) * (1 + 1e-12)

    @given(a=finite_pos, b=finite_pos)
    @settings(max_examples=200, deadline=None)
    def test_n1_closed_form(self, a, b):
        A, B = Fraction(a), Fraction(b)
        assert quotient_q([A], [B]).value == -((A - B) ** 2) * (A + B) / (A ** 3 + B ** 3)
        # Floats: Q of the rounded powers e * e and (e * e) * e.  Their
        # rounding is not the closed form's: at a = 1e-6 + ulp, b = 1e-6
        # it moves M_2(y) - M_2(x) by 5 %.
        got = float(quotient_q([a], [b]).value)
        want = (A - B) * (Fraction(b * b) - Fraction(a * a)) / (Fraction(a * a * a) + Fraction(b * b * b))
        assert got == pytest.approx(float(want), rel=1e-12, abs=1e-300)


class TestOrdered:
    @given(x=pos_vector, u=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_dominated_pair_nonpositive(self, x, u):
        y = [u * e for e in x]
        assert q_ordered_nonpositive(x, y) <= 0.0
        assert q_ordered_nonpositive(y, x) <= 0.0

    def test_mixed_exact_and_float_pair(self):
        # x >= y entrywise.  Summing the exact side exactly against the
        # float side's rounded squares gave +1.9443377340321066e-31.
        x = [Fraction(0.93), Fraction(0.968), Fraction(0.682), Fraction(1, 2 ** 49)]
        y = [0.93, 0.968, 0.682, 2.0 ** -55]
        assert q_ordered_nonpositive(x, y) <= 0.0
        assert q_ordered_nonpositive(y, x) <= 0.0

    @given(
        pairs=st.lists(
            st.tuples(finite_pos, st.one_of(st.just(0), st.integers(1, 2 ** 10)), st.integers(0, 120)),
            min_size=1,
            max_size=12,
        ),
        exact_larger=st.booleans(),
        exact_first=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mixed_pairs_nonpositive(self, pairs, exact_larger, exact_first):
        # Float y_i against exact x_i = y_i +- k 2^-e: an offset that moves
        # M_1 but hides in M_2's rounding gave Q > 0 (6 of 10 seeds).
        sign = 1 if exact_larger else -1
        y = [f for f, _, _ in pairs]
        x = [Fraction(f) + sign * min(Fraction(k, 2 ** e), Fraction(f) / 2) for f, k, e in pairs]
        args = (x, y) if exact_first else (y, x)
        assert q_ordered_nonpositive(*args) <= 0.0

    def test_requires_equal_length(self):
        with pytest.raises(ValueError):
            q_ordered_nonpositive([1.0, 2.0], [1.0])

    def test_requires_comparability(self):
        with pytest.raises(ValueError):
            q_ordered_nonpositive([2.0, 1.0], [1.0, 2.0])

    def test_validates_each_vector_once(self, monkeypatch):
        x, y = [Fraction(3, 2), 2], [Fraction(1, 2), 1]
        want = float(quotient_q(x, y).value)
        seen = []
        check = ps._validated

        def counting(entries, name):
            seen.append(name)
            return check(entries, name)

        monkeypatch.setattr(ps, "_validated", counting)
        assert q_ordered_nonpositive(x, y) == want
        assert seen == ["x", "y"]


class TestOverflow:
    def test_float_sums_name_the_vector(self):
        with pytest.raises(ValueError, match=r"^x: power sums overflow float64; pass exact"):
            quotient_q([1e120], [1.0])
        with pytest.raises(ValueError, match=r"^y: power sums overflow"):
            quotient_q([1.0], np.array([1e200]))
        with pytest.raises(ValueError, match=r"^x: power sums overflow"):
            power_sums([10 ** 400, 1.5])

    def test_quotient_overflow(self):
        # M_3 is finite, but s1 * s2 is not.
        with pytest.raises(ValueError, match=r"^Q\(x, y\) overflows float64"):
            quotient_q([4.4e102, 4.4e102], [1.0])

    def test_all_cubes_underflow_is_a_value_error(self):
        # Every square and cube rounds to 0, so s3 = 0: Q is undefined in floats.
        for pair in (([1e-200], [2e-200]), ([1e-120, 5e-324], np.array([3e-110]))):
            with pytest.raises(ValueError, match=r"^Q\(x, y\) is undefined in float64: every cube underflows"):
                quotient_q(*pair)
        with pytest.raises(ValueError, match="every cube underflows"):
            ps._quotient(ps._block_power_sums(((1e-200, 1),)), ps._block_power_sums(((2e-200, 3),)))
        # One exact entry keeps s3 positive.
        assert quotient_q([1e-200], [1]).s3 == 1.0

    def test_exact_input_does_not_overflow(self):
        r = quotient_q([10 ** 120], [1])
        assert r.value == Fraction(-((10 ** 120 - 1) ** 2) * (10 ** 120 + 1), 10 ** 360 + 1)

    def test_batch_rejects_nonfinite_without_warning(self):
        xs = np.array([[1.0, 2.0], [1e200, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                quotient_q_batch(xs, np.ones((2, 1)))


class TestBlockPowerSums:
    """_block_power_sums against Fraction sums of the rounded powers."""

    @staticmethod
    def fraction_sums(blocks):
        """The sums rounded once, or None when one overflows float64."""
        powers = (lambda v: v, lambda v: v * v, lambda v: v * v * v)
        try:
            return tuple(float(sum(c * Fraction(f(v)) for v, c in blocks)) for f in powers)
        except OverflowError:
            return None

    def test_subnormals_and_huge_counts(self):
        rng = random.Random(20261018)
        values = (
            lambda: rng.uniform(0.0, 2.0 ** -1022),  # subnormal
            lambda: rng.uniform(0.0, 2.0 ** -340),  # normal, cube subnormal or 0
            lambda: rng.uniform(0.0, 2.0 ** -520),  # normal, square subnormal, cube 0
            lambda: rng.uniform(0.0, 10.0),
            lambda: 2.0 ** rng.uniform(-1074, 331),
        )
        counts = (
            lambda: rng.randint(0, 3),
            lambda: rng.randint(1, 2 ** 26) + rng.randint(-1, 1),
            lambda: rng.randint(1, sys.maxsize),
            lambda: sys.maxsize - rng.randint(0, 2),
            lambda: rng.randint(1, 10 ** 150),
        )
        inside = outside = 0
        for _ in range(5000):
            blocks = [
                (rng.choice(values)() or 5e-324, rng.choice(counts)())
                for _ in range(rng.randint(1, 3))
            ]
            want = self.fraction_sums(blocks)
            # The documented domain: c < 2**1024 and c v**3 (2**27 + 1) < 2**1024 for every block.
            if all(c < 2 ** 1024 and c * Fraction(v * v * v) * (2 ** 27 + 1) < 2 ** 1024 for v, c in blocks):
                inside += 1
                assert tuple(ps._block_power_sums(blocks)) == want, blocks
                continue
            # Outside it: the exact sums, or the documented ValueError.
            outside += 1
            try:
                got = tuple(ps._block_power_sums(blocks))
            except ValueError as e:
                assert str(e) == "block power sums overflow float64", blocks
            else:
                assert got == want, blocks
        assert inside > 4000 and outside > 0

    def test_same_bits_as_power_sums_on_the_list(self):
        rng = random.Random(7)
        for _ in range(300):
            blocks = [(2.0 ** rng.uniform(-1074, 100), rng.randint(0, 40)) for _ in range(3)]
            blocks.append((rng.random() + 0.5, 1))
            entries = [v for v, c in blocks for _ in range(c)]
            assert bits(tuple(ps._block_power_sums(blocks))) == bits(tuple(power_sums(entries)))

    def test_overflow_is_a_value_error(self):
        # 2**333 lies outside the domain c v**3 (2**27 + 1) < 2**1024: its cube
        # 2**999 is finite, but the cube times 2**27 + 1 overflows.  A count of
        # 2**1030 lies outside c < 2**1024, though its sums at v = 2**-30 are finite.
        for blocks in (((1e103, 1),), ((1e300, 1),), ((1.0, 10 ** 400),), ((2.0 ** 333, 1),), ((2.0 ** -30, 2 ** 1030),)):
            with pytest.raises(ValueError, match="block power sums overflow float64"):
                ps._block_power_sums(blocks)
        assert ps._block_power_sums(((2.0 ** 332, 3),)).m3 == 3 * 2.0 ** 996


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(7)
        xs = 10.0 ** rng.uniform(-2, 2, size=(50, 5))
        ys = 10.0 ** rng.uniform(-2, 2, size=(50, 3))
        got = quotient_q_batch(xs, ys)
        for k in range(50):
            want = float(quotient_q(list(xs[k]), list(ys[k])).value)
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_single_entry_rows_match_scalar_bits(self):
        # One entry per vector leaves nothing to sum, so each row sees
        # exactly quotient_q's rounded powers.
        rng = np.random.default_rng(11)
        x, y = 10.0 ** rng.uniform(-3, 3, size=(2, 2000))
        got = quotient_q_batch(x[:, None], y[:, None]).tolist()
        assert got == [quotient_q([a], [b]).value for a, b in zip(x.tolist(), y.tolist())]

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            quotient_q_batch(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            quotient_q_batch(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            quotient_q_batch(np.array([[1.0, -1.0]]), np.ones((1, 2)))
        with pytest.raises(ValueError):
            quotient_q_batch(np.ones((1, 0)), np.ones((1, 2)))
        # A float cast would accept each of these, a complex array with
        # only a ComplexWarning.
        for xs, ys, message in (
            ([[True, True]], [[1.0]], "xs must hold real numbers, got dtype bool"),
            ([["1.5", "2"]], [[1.0]], "xs must hold real numbers, got dtype <U3"),
            ([[1.0]], np.array([[1.0 + 2.0j]]), "ys must hold real numbers, got dtype complex128"),
            ([[1.0]], [[b"1"]], "ys must hold real numbers, got dtype |S1"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as err:
                    quotient_q_batch(xs, ys)
            assert str(err.value) == message

    def test_rejects_mixed_entries_before_the_float_cast(self):
        # np.asarray would give these a number dtype, True read as 1.0 and
        # "1" parsed; ndarrays keep the dtype check alone.
        for xs, message in (
            ([[True, 1.0]], "xs must hold real numbers, got entry True"),
            ([[1, np.True_]], "xs must hold real numbers, got entry np.True_"),
            ([[Fraction(1), "1"]], "xs must hold real numbers, got entry '1'"),
            ([(Fraction(1), 1j)], "xs must hold real numbers, got entry 1j"),
            ([[1.0, None]], "xs must hold real numbers, got entry None"),
            ([[1.0, {}]], "xs must hold real numbers, got entry {}"),
            (np.array([[1.0, None]], dtype=object), "xs must hold real numbers, got entry None"),
        ):
            with pytest.raises(ValueError) as err:
                quotient_q_batch(xs, [[1.0]])
            assert str(err.value) == message
        assert quotient_q_batch([[Fraction(1, 2), 3]], np.array([[1.0]])).tolist() == [
            quotient_q([0.5, 3.0], [1.0]).value
        ]


# Each function that checks an integer argument with power_sums._integer:
# (the argument's name, a valid value, a call passing that value).
_INTEGER_ARGS = [
    ("d", 5, lambda v: MatrixSpec(v, 0.5)),
    ("d", 5, lambda v: membership_equal_offdiag(v, 0.5)),
    ("d", 5, lambda v: membership_equal_offdiag(v, 0.99)),
    ("d", 5, enumerate_sign_patterns),
    ("d", 5, reduced_sign_pattern),
    ("d", 7, growth_lower_bound),
    ("d", 7, all_split_threshold),
    ("d", 7, compute_bd),
    ("n_x", 3, lambda v: brute_force_sup(v, 2, n_starts=4)),
    ("n_y", 3, lambda v: brute_force_sup(2, v, n_starts=4)),
    ("n_starts", 3, lambda v: brute_force_sup(2, 2, n_starts=v)),
    ("n_jobs", 3, lambda v: brute_force_sup(2, 2, n_starts=4, n_jobs=v)),
    ("seed", 3, lambda v: brute_force_sup(2, 2, n_starts=4, seed=v)),
    ("n_x", 3, lambda v: sup_q(v, 2)),
    ("n_y", 3, lambda v: sup_q(2, v)),
    ("n", 30, growth_blocks),
    ("d", 50, lambda v: table2_rows([v])),
]


class TestIntegerRule:
    @pytest.mark.parametrize("name, good, call", _INTEGER_ARGS)
    def test_numpy_integers_give_the_int_result(self, name, good, call):
        got, want = call(np.int64(good)), call(good)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want) and got.dtype == want.dtype
        else:
            # repr shows np.int64(5) where an int field kept the numpy integer.
            assert got == want and repr(got) == repr(want)
        if hasattr(want, "to_json_dict"):
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    @pytest.mark.parametrize("name, good, call", _INTEGER_ARGS)
    @pytest.mark.parametrize("bad", [True, np.True_, 2.0, "3"], ids=["True", "np.True_", "2.0", "str"])
    def test_rejects_non_integers(self, name, good, call, bad):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value).startswith(f"{name} must be an integer ")
        assert str(err.value).endswith(f", got {bad!r}")
