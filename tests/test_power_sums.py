import importlib
import math
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    Float input: each power of float(e) rounded once, then math.fsum.
    All-exact input (int, Fraction): plain running sums.
    """
    v = entries.tolist() if isinstance(entries, np.ndarray) else list(entries)
    if all(isinstance(e, (int, Fraction)) for e in v):
        return sum(v), sum(e * e for e in v), sum(e ** 3 for e in v)
    fv = [float(e) for e in v]
    return math.fsum(fv), math.fsum(e * e for e in fv), math.fsum(e ** 3 for e in fv)


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
        assert bits(astuple(power_sums(v))) == bits(reference_sums(v))

    @given(v=st.lists(wide_pos32, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_float32_array_bit_identical(self, v):
        a = np.array(v, dtype=np.float32)
        assert bits(astuple(power_sums(a))) == bits(reference_sums(a))

    @given(v=st.lists(st.one_of(wide_pos, st.integers(1, 10 ** 30)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_int_float_mix_bit_identical(self, v):
        assert bits(astuple(power_sums(v))) == bits(reference_sums(v))

    def test_subnormals_bit_identical(self):
        v = [5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308, 1.0]
        for form in (v, np.array(v)):
            assert bits(astuple(power_sums(form))) == bits(reference_sums(form))

    @given(v=st.lists(exact_entry, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_exact_same_values_and_types(self, v):
        assert bits(astuple(power_sums(v))) == bits(reference_sums(v))

    def test_exact_types(self):
        assert [type(m) for m in astuple(power_sums([1, 2, 3]))] == [int] * 3
        # A Fraction with denominator 1 still makes every sum a Fraction.
        assert [type(m) for m in astuple(power_sums([1, Fraction(4, 2)]))] == [Fraction] * 3


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
        got = float(quotient_q([a], [b]).value)
        want = -((a - b) ** 2) * (a + b) / (a ** 3 + b ** 3)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestOrdered:
    @given(x=pos_vector, u=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_dominated_pair_nonpositive(self, x, u):
        y = [u * e for e in x]
        assert q_ordered_nonpositive(x, y) <= 0.0
        assert q_ordered_nonpositive(y, x) <= 0.0

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
        check = ps.validate_positive_vector

        def counting(entries, name="x"):
            seen.append(name)
            return check(entries, name)

        monkeypatch.setattr(ps, "validate_positive_vector", counting)
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

    def test_exact_input_does_not_overflow(self):
        r = quotient_q([10 ** 120], [1])
        assert r.value == Fraction(-((10 ** 120 - 1) ** 2) * (10 ** 120 + 1), 10 ** 360 + 1)

    def test_batch_rejects_nonfinite_without_warning(self):
        xs = np.array([[1.0, 2.0], [1e200, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                quotient_q_batch(xs, np.ones((2, 1)))


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(7)
        xs = 10.0 ** rng.uniform(-2, 2, size=(50, 5))
        ys = 10.0 ** rng.uniform(-2, 2, size=(50, 3))
        got = quotient_q_batch(xs, ys)
        for k in range(50):
            want = float(quotient_q(list(xs[k]), list(ys[k])).value)
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            quotient_q_batch(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            quotient_q_batch(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            quotient_q_batch(np.array([[1.0, -1.0]]), np.ones((1, 2)))
        with pytest.raises(ValueError):
            quotient_q_batch(np.ones((1, 0)), np.ones((1, 2)))
