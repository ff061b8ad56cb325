"""Power-mean values against a high-precision oracle, and the mean contract."""

import itertools
import math
from random import Random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import (
    Interval,
    Mean,
    MeanFlags,
    POSITIVE_REALS,
    PowerMeanSpec,
    check_mean_property,
    make_power_mean,
    means,
    power_mean_eval,
    validate_mean,
)


def mp_power_mean(order: float, xs) -> float:
    """Independent high-precision evaluation of the power mean, rounded."""
    return float(mp_power_mean_exact(order, xs))


def mp_power_mean_exact(order: float, xs) -> mpmath.mpf:
    """The power mean to at least 50 digits.

    Representing x**s for tiny s needs about -log10(|s|) digits before
    1 + s*log(x) survives rounding, so the working precision grows with
    1/|s|."""
    dps = 50
    if order != 0.0 and abs(order) < 1.0:
        dps += int(-math.log10(abs(order))) + 10
    with mpmath.workdps(dps):
        vals = [mpmath.mpf(t) for t in xs]  # mpf(float) is exact
        n = len(vals)
        if order == 0.0:
            return mpmath.exp(mpmath.fsum(mpmath.log(t) for t in vals) / n)
        s = mpmath.mpf(order)
        return (mpmath.fsum(t ** s for t in vals) / n) ** (1 / s)


class TestInterval:
    def test_open_closed_membership(self):
        iv_half = Interval(0.0, 1.0, lower_open=True, upper_open=False)
        assert not iv_half.contains(0.0)
        assert iv_half.contains(1.0)
        assert iv_half.contains(0.5)
        assert not iv_half.contains(1.5)
        assert not iv_half.contains(float("nan"))

    def test_infinite_endpoints_forced_open(self):
        full = Interval(-math.inf, math.inf, lower_open=False, upper_open=False)
        assert full.lower_open and full.upper_open
        assert full.contains(-1e300) and not full.contains(math.inf)

    def test_requires_lower_below_upper(self):
        with pytest.raises(iv.ValidationError):
            Interval(2.0, 2.0)
        with pytest.raises(iv.ValidationError):
            Interval(3.0, 1.0)

    @pytest.mark.parametrize("value", ["0", True, None, [1], 1j])
    def test_endpoints_must_be_real_numbers(self, value):
        # float() would read "0" as 0.0 and True as 1.0
        with pytest.raises(iv.ValidationError, match=r"^lower must be a number, got "):
            Interval(value, 2.0)
        with pytest.raises(iv.ValidationError, match=r"^upper must be a number, got "):
            Interval(-2.0, value)

    def test_endpoint_out_of_float_range(self):
        with pytest.raises(iv.ValidationError, match=r"^upper 1000+ is out of float range$"):
            Interval(0, 10 ** 400)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_open_flags_must_be_bools(self, flag):
        with pytest.raises(iv.ValidationError, match=r"^lower_open must be true or false"):
            Interval(0.0, 1.0, lower_open=flag)
        with pytest.raises(iv.ValidationError, match=r"^upper_open must be true or false"):
            Interval(0.0, 1.0, upper_open=flag)

    def test_positive_reals(self):
        assert not POSITIVE_REALS.contains(0.0)
        assert POSITIVE_REALS.contains(1e-300)
        assert math.isinf(POSITIVE_REALS.upper)

    def test_str_keeps_close_endpoints_apart(self):
        # :g alone printed (1, 1.0000001) as (1, 1)
        assert str(Interval(1.0, 1.0000001)) == "(1, 1.0000001)"
        assert str(Interval(0.0, 5.0)) == "(0, 5)"
        assert str(POSITIVE_REALS) == "(0, inf)"
        assert str(Interval(-math.inf, 0.1, upper_open=False)) == "(-inf, 0.1]"
        assert str(Interval(1e-300, 2.0 ** 0.5, lower_open=False)) == "[1e-300, 1.4142135623730951)"

    @given(ends=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_str_endpoints_read_back(self, ends):
        interval = Interval(min(ends), max(ends))
        lo, hi = str(interval)[1:-1].split(", ")
        assert (float(lo), float(hi)) == (interval.lower, interval.upper)

    def test_domain_error_names_the_interval_it_checks(self):
        interval = Interval(1.0, 1.0000001)
        mean = make_power_mean(PowerMeanSpec(1.0, 2), interval)
        m = iv.ComposedMapping((mean, mean), interval, iv.IndexVector(((1, 2), (2, 1))))
        with pytest.raises(iv.DomainError, match=r"^coordinate 1=1\.5 outside \(1, 1\.0000001\)$"):
            m.apply((1.5, 1.00000001))


class TestPowerMeanValues:
    def test_arithmetic_of_1_3_is_exactly_2(self):
        assert power_mean_eval(PowerMeanSpec(1.0, 2), (1.0, 3.0)) == 2.0

    @pytest.mark.parametrize("c", [0.3, 1.0, 7.25, 123.0])
    def test_geometric_of_constant_vector_is_exact(self, c):
        assert power_mean_eval(PowerMeanSpec(0.0, 3), (c, c, c)) == c

    def test_harmonic_of_1_4(self):
        # 2 / (1/1 + 1/4) = 1.6
        got = power_mean_eval(PowerMeanSpec(-1.0, 2), (1.0, 4.0))
        assert got == pytest.approx(1.6, rel=1e-15)
        assert got == pytest.approx(mp_power_mean(-1.0, (1.0, 4.0)), rel=1e-15)

    @pytest.mark.parametrize("order", [-7.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 11.0])
    def test_matches_high_precision_oracle(self, order, rng):
        for _ in range(50):
            n = rng.randint(1, 6)
            xs = tuple(rng.uniform(0.05, 50.0) for _ in range(n))
            got = power_mean_eval(PowerMeanSpec(order, n), xs)
            want = mp_power_mean(order, xs)
            assert got == pytest.approx(want, rel=1e-13), (order, xs)

    def test_extreme_magnitudes_use_rescaled_path(self):
        spec = PowerMeanSpec(6.0, 2)
        got = power_mean_eval(spec, (1e200, 1e199))
        assert got == pytest.approx(mp_power_mean(6.0, (1e200, 1e199)), rel=1e-12)
        spec = PowerMeanSpec(-8.0, 2)
        got = power_mean_eval(spec, (1e-120, 1e-119))
        # abs=0: approx's default absolute slack of 1e-12 would dwarf 1e-120
        assert got == pytest.approx(mp_power_mean(-8.0, (1e-120, 1e-119)), rel=1e-12, abs=0.0)

    def test_geometric_overflow_falls_back_to_logs(self):
        xs = (1e300, 1e300, 1e300, 1e-300)
        got = power_mean_eval(PowerMeanSpec(0.0, 4), xs)
        assert got == pytest.approx(mp_power_mean(0.0, xs), rel=1e-12)

    def test_geometric_subnormal_partial_product_stays_accurate(self):
        # math.prod passes through 1e-320, a subnormal, on the way to 1e-220;
        # the cube root of that product was 3.7e-6 off
        xs = (1e-160, 1e-160, 1e100)
        got = power_mean_eval(PowerMeanSpec(0.0, 3), xs)
        assert got == pytest.approx(mp_power_mean(0.0, xs), rel=1e-15, abs=0.0)

    def test_geometric_exponent_split_matches_oracle(self, rng):
        # one argument below 1e-200 and n >= 4 force the exponent split
        for _ in range(300):
            n = rng.randint(4, 7)
            xs = (10.0 ** rng.uniform(-300, -200),) + tuple(
                10.0 ** rng.uniform(-300, 300) for _ in range(n - 1)
            )
            got = power_mean_eval(PowerMeanSpec(0.0, n), xs)
            assert got == pytest.approx(mp_power_mean(0.0, xs), rel=1e-15, abs=0.0), xs

    @pytest.mark.parametrize("n", [3, 5])
    def test_geometric_normal_range_matches_oracle(self, n, rng):
        # products far from 1: a root taken as prod ** (1/n) multiplied the
        # rounding of 1/n by |ln prod| and was 1e-14 off at n = 3; the
        # split root is off by the n - 1 product roundings (shrunk by 1/n)
        # plus the roundings of the power and of the result, under 2 ulp
        for _ in range(300):
            xs = tuple(10.0 ** rng.uniform(-100, 100) for _ in range(n))
            got = power_mean_eval(PowerMeanSpec(0.0, n), xs)
            assert got == pytest.approx(mp_power_mean(0.0, xs), rel=4e-16, abs=0.0), xs

    @pytest.mark.parametrize("order, xs", [
        (-0.5, (1.7976931348623157e308, 1.797693134862315e308)),  # an unpivoted root overflows
        (0.005, (1.7976931348623157e308, 1.7976931348623013e308)),
        (-0.5, (1.7976931348623157e308, 1.797693134862315e308, 1.7976931348623157e308)),
    ])
    def test_no_overflow_error_at_the_largest_floats(self, order, xs):
        got = power_mean_eval(PowerMeanSpec(order, len(xs)), xs)
        assert min(xs) <= got <= max(xs)
        if order == -0.5:
            # no root of the pivoted power sum overflows: within 1 ulp
            want = mp_power_mean_exact(order, xs)
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(got) - want) <= math.ulp(got)

    @pytest.mark.parametrize("order", [1e-300, 1e-30, -1e-12, 1e-5, -1e-4])
    def test_tiny_nonzero_orders_stay_accurate(self, order):
        xs = (1.0, 2.0)
        got = power_mean_eval(PowerMeanSpec(order, 2), xs)
        assert got == pytest.approx(mp_power_mean(order, xs), rel=1e-12)

    def test_result_always_inside_bracket(self, rng):
        for _ in range(200):
            order = rng.uniform(-5, 5)
            xs = tuple(rng.uniform(0.01, 100.0) for _ in range(4))
            got = power_mean_eval(PowerMeanSpec(order, 4), xs)
            assert min(xs) <= got <= max(xs)


small_orders = st.builds(
    lambda sign, k: sign * 10.0 ** k,
    st.sampled_from((-1.0, 1.0)),
    st.floats(-8.0, math.log10(1 / 16), exclude_max=True),
)
wide_arguments = st.floats(-300.0, 300.0).map(lambda k: 10.0 ** k)


@given(order=small_orders, xs=st.lists(wide_arguments, min_size=2, max_size=5))
@example(order=0.009, xs=[1e-300, 2e-300])  # every s*ln(t) near -6.2
@example(order=-0.009, xs=[1e300, 3e299, 5e299])
@example(order=2e-3, xs=[1e-300, 1.0])
@example(order=0.06, xs=[1e-300, 1e300])
@example(order=-0.06, xs=[1e-300, 1e300])
@settings(max_examples=300, deadline=None)
def test_small_order_error_is_of_order_u_times_the_log_range(order, xs):
    """A small order, 0 < |s| < 1/16, has relative error at most
    8u(1 + L), u = 2^-53 and L = max|ln t|, against 50-digit mpmath.

    The form is ln M = ln b + log1p(mean(expm1(v_i))) / s with v_i =
    s(ln t_i - ln b) <= 0 and b the dominant argument.  To first order,
    with y_i = exp(v_i), Y = sum(y_i) >= 1 and weights w_i = y_i / Y, each
    half-ulp rounding moves ln M by at most u times:
      * ln b: 0, as ln M does not depend on b (dlnM/dlnb = 1 - sum w_i);
      * ln t_i, the difference and the product: sum w_i(|ln t_i| +
        2|ln t_i - ln b|), at most (1 - w_b)(5L);
      * each of expm1, fsum and / n: (n - Y) / (|s|Y), at most
        max_a (n-1)(1 - e^-a) / (a(1 + (n-1)e^-a)) * 2L, which is L for
        n = 2 and 2.24L for n = 5; fsum and / 2 are exact for n = 2;
      * log1p and / s: |ln(M / b)| each, at most (1 - 1/n)2L;
      * the addition of ln b: L; and exp adds u itself.
    For two arguments w_b >= 1/2 and the sum is 6.5L + 1, under 8(1 + L).
    For five the worst cases sum to about 15L + 1, but these roundings
    are independent and of either sign and do not align: over 2*10^5
    draws of this test's distribution, and of arguments clustered on one
    side of 1 where a plain expm1/log1p form cancels in log1p, the
    largest error seen was 3.9u(1 + L).  The power sum this form replaced
    amplifies its roundings by 1/|s|: over 3*10^4 draws it was up to 200
    times over the bound, and the plain expm1/log1p form without the
    pivot b up to 15 times."""
    want = mp_power_mean_exact(order, xs)
    got = power_mean_eval(PowerMeanSpec(order, len(xs)), xs)
    with mpmath.workdps(50):
        rel = float(abs(mpmath.mpf(got) - want) / want)
    log_range = max(abs(math.log(t)) for t in xs)
    assert rel <= 8 * 2.0 ** -53 * (1.0 + log_range), (rel, log_range)


power_sum_orders = st.builds(
    lambda sign, s: sign * s,
    st.sampled_from((-1.0, 1.0)),
    st.one_of(st.floats(1 / 16, 8.0), st.sampled_from((1 / 16, 1.0, 2.0))),
)
moderate_arguments = st.floats(0.5, 4.0)


@given(
    order=power_sum_orders,
    xs=st.one_of(
        st.lists(wide_arguments, min_size=2, max_size=5),
        st.lists(moderate_arguments, min_size=2, max_size=5),
    ),
)
@example(order=1 / 16, xs=[1e-300, 1e300])
@example(order=-1 / 16, xs=[1e-300, 1e300, 1e300])
@example(order=8.0, xs=[1e300, 3e299])
@example(order=-8.0, xs=[1e-300, 3e-299, 1e-299, 2e-300, 5e-300])
@settings(max_examples=300, deadline=None)
def test_power_sum_error_does_not_grow_with_the_log_range(order, xs):
    """An order with |s| >= 1/16 has relative error at most
    ((4 + ln n) / |s| + 4)u, u = 2^-53, against 50-digit mpmath, whatever
    the magnitude of its n arguments.

    The form is M = b * (fsum((t_i / b)^s) / n)^(1/s) with b the dominant
    argument, so every term lies in [0, 1], b's own term is exactly 1 and
    the sum S lies in [1, n].  To first order, with each rounding at most
    u and pow's within 0.52 ulp (1.04u):
      * t_i / b and its power: (|s| + 1.04)u on a term, and the terms other
        than b's weigh at most 1 - 1/n of S;
      * fsum and / n: u each (/ n is exact for n = 2 and 4);
      * the root: a relative error e of S / n becomes e / |s|; the rounding
        of the constant 1/s moves the root by |ln(S / n)| / |s| <= ln n / |s|
        units of u; the power itself adds 1.04u, and b * root adds u.
    This sums to ((1 - 1/n)1.04 + 2 + ln n) / |s| + (1 - 1/n) + 2.04, which
    the bound rounds up.  No term depends on ln t: the pivot takes the
    magnitude out exactly.  A ratio t / b that is subnormal or underflows
    to 0 moves S by at most 2^(-1074|s|), below 2^-67 at |s| >= 1/16.
    Over 8000 draws of this distribution the largest error seen was 0.37
    of the bound (24u at s = 0.093, n = 5)."""
    want = mp_power_mean_exact(order, xs)
    got = power_mean_eval(PowerMeanSpec(order, len(xs)), xs)
    with mpmath.workdps(50):
        rel = float(abs(mpmath.mpf(got) - want) / want)
    assert rel <= 2.0 ** -53 * ((4.0 + math.log(len(xs))) / abs(order) + 4.0), rel


#: harmonic, geometric, arithmetic and quadratic: the orders a spec names
NAMED_ORDERS = (-1.0, 0.0, 1.0, 2.0)
near_one = st.floats(-0.1, 0.1).map(lambda d: 1.0 + d)


@given(
    order=st.sampled_from(NAMED_ORDERS),
    xs=st.one_of(
        st.lists(wide_arguments, min_size=2, max_size=3),
        st.lists(near_one, min_size=2, max_size=3),
        st.lists(st.one_of(wide_arguments, near_one, moderate_arguments), min_size=2, max_size=3),
    ),
)
@example(order=-1.0, xs=[0.9881020251778989, 0.9105494225712335, 2.4832678605758716])
@example(order=1.0, xs=[1.0886414614067577, 6.024786631561999e-206, 2.1349261163050026])
@example(order=2.0, xs=[1e300, 3e299])
@example(order=0.0, xs=[1e-300, 1e300, 2.0])
@settings(max_examples=400, deadline=None)
def test_named_orders_are_within_3u_in_every_argument_order(order, xs):
    """The named orders have closed forms without pow: hi * mean(t / hi),
    lo / mean(lo / t), hi * sqrt(mean((t / hi)^2)) and the root of the
    product on its split mantissa, a square root at n = 2.  Against
    50-digit mpmath their relative error is at most 3u, u = 2^-53, on
    arguments up to 10^+-300 and near 1, and reordering the arguments
    gives the same float.

    Every operation but the n-th root at n = 3 is correctly rounded, so
    each adds at most u.  To first order the ratio t / hi adds at most
    u/2 at n = 2 (its term weighs at most half the sum), 1 + ratio u,
    and the final * or / u: 2.5u for orders 1 and -1 at n = 2.  Order 2
    squares the ratio, and the square root halves the error of its sum:
    at most 3.25u.  At n = 3, / 3 adds u more.  These worst cases need
    every rounding at its extreme and of one sign; over 60 000 draws per
    order and arity from this distribution the largest error seen was
    2.5u.  A permutation changes no float except the geometric mean of
    three, whose product rounds in argument order."""
    spec = PowerMeanSpec(order, len(xs))
    want = mp_power_mean_exact(order, xs)
    got = power_mean_eval(spec, xs)
    with mpmath.workdps(50):
        rel = float(abs(mpmath.mpf(got) - want) / want)
    assert rel <= 3 * 2.0 ** -53, rel
    if order != 0.0 or len(xs) == 2:
        assert {power_mean_eval(spec, perm) for perm in itertools.permutations(xs)} == {got}


@pytest.mark.parametrize("order", NAMED_ORDERS)
@pytest.mark.parametrize("xs", [
    (5e-324, 1.7976931348623157e308),
    (1.7976931348623157e308, 1.7976931348623157e307),
])
def test_named_orders_at_the_extreme_pairs(order, xs):
    # no OverflowError from 1/t, t*t or u*w, in either argument order, in
    # power_mean_eval and in the compiled row alike
    spec = PowerMeanSpec(order, 2)
    got = power_mean_eval(spec, xs)
    assert min(xs) <= got <= max(xs)
    assert power_mean_eval(spec, xs[::-1]) == got
    mean = make_power_mean(spec)
    m = iv.ComposedMapping((mean, mean), POSITIVE_REALS, iv.IndexVector(((1, 2), (2, 1))))
    assert m.apply(xs) == m.apply(xs[::-1]) == (got, got)


@pytest.mark.parametrize("order, xs", [
    (-1.0, (3.283, 3.799)),
    (-1.0, (2.966, 0.7, 3.913)),
    (0.0, (1.374, 1.82)),
    (2.0, (1.01, 2.031)),
    (2.0, (3.293, 2.863, 3.76)),
])
def test_named_orders_round_to_nearest_where_pow_does_not(order, xs):
    # points where b * (fsum((t / b)^s) / n)^(1/s), or prod ** 0.5, lands
    # one ulp from the float nearest the mean with glibc's pow; the named
    # forms return that nearest float, here and in the step
    want = mp_power_mean(order, xs)
    assert power_mean_eval(PowerMeanSpec(order, len(xs)), xs) == want
    rows = (tuple(range(1, len(xs) + 1)),) * len(xs)
    mean = make_power_mean(PowerMeanSpec(order, len(xs)))
    m = iv.ComposedMapping((mean,) * len(xs), POSITIVE_REALS, iv.IndexVector(rows))
    assert m.apply(xs) == (want,) * len(xs)


@pytest.mark.parametrize("order", NAMED_ORDERS)
def test_named_order_rows_evaluate_no_pow(order):
    row = means._power_row(order, ["x0", "x1"], "y0")
    assert not any("**" in line for line in row), row


class TestPowerMeanErrors:
    def test_zero_argument_rejected(self):
        with pytest.raises(iv.DomainError):
            power_mean_eval(PowerMeanSpec(-1.0, 2), (0.0, 1.0))

    def test_negative_argument_rejected(self):
        with pytest.raises(iv.DomainError):
            power_mean_eval(PowerMeanSpec(2.0, 2), (1.0, -3.0))

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(iv.DomainError):
            power_mean_eval(PowerMeanSpec(1.0, 2), (1.0, math.inf))
        with pytest.raises(iv.DomainError):
            power_mean_eval(PowerMeanSpec(1.0, 2), (1.0, math.nan))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(iv.ShapeError):
            power_mean_eval(PowerMeanSpec(1.0, 3), (1.0, 2.0))

    def test_bad_spec_rejected(self):
        with pytest.raises(iv.ValidationError):
            PowerMeanSpec(math.inf, 2)
        with pytest.raises(iv.ValidationError):
            PowerMeanSpec(1.0, 0)
        with pytest.raises(iv.ValidationError, match=r"^order 1000+ is out of float range$"):
            PowerMeanSpec(10 ** 400, 2)

    @pytest.mark.parametrize("order", ["2", True, None, [1]])
    def test_order_must_be_a_number(self, order):
        # float() would read "2" as 2.0 and True as 1.0
        with pytest.raises(iv.ValidationError, match=r"^order must be a number, got "):
            PowerMeanSpec(order, 2)

    @pytest.mark.parametrize("arity", [True, False, 2.0, "2", None])
    def test_arity_must_be_an_int_not_a_bool(self, arity):
        # bool is an int subclass, so True would pass for arity 1
        with pytest.raises(iv.ValidationError, match="^power-mean arity must be a positive"):
            PowerMeanSpec(1.0, arity)
        with pytest.raises(iv.ValidationError, match="^mean arity must be a positive"):
            Mean(arity, POSITIVE_REALS, max)


class TestMakePowerMean:
    def test_quadratic_coordinate(self):
        m = make_power_mean(PowerMeanSpec(2.0, 2))
        assert m((3.0, 4.0)) == pytest.approx(math.sqrt((9 + 16) / 2), rel=1e-15)
        assert m.label == "P_2"

    def test_geometric_three_variables(self):
        m = make_power_mean(PowerMeanSpec(0.0, 3))
        assert m((2.0, 3.0, 4.0)) == pytest.approx(24.0 ** (1.0 / 3.0), rel=1e-15)

    def test_one_variable_mean_is_identity(self):
        m = make_power_mean(PowerMeanSpec(1.0, 1))
        for t in (0.1, 1.0, 17.5):
            assert m((t,)) == t

    def test_all_flags_set(self):
        m = make_power_mean(PowerMeanSpec(-1.0, 2))
        assert m.flags == MeanFlags(strict=True, monotone=True, homogeneous=True)
        assert m.domain == POSITIVE_REALS

    def test_domain_must_be_positive(self):
        with pytest.raises(iv.ValidationError):
            make_power_mean(PowerMeanSpec(1.0, 2), domain=Interval(-1.0, 1.0))

    def test_evaluator_is_the_spec(self, monkeypatch):
        # the spec evaluates itself through power_mean_eval, looked up when
        # called, so a wrapper installed on the module sees every call
        spec = PowerMeanSpec(1.0, 2)
        m = make_power_mean(spec)
        assert m.evaluator is spec
        assert spec((1.0, 3.0)) == m((1.0, 3.0)) == 2.0
        calls = []
        monkeypatch.setattr(iv.means, "power_mean_eval", lambda *a: calls.append(a) or 0.5)
        assert m((1.0, 3.0)) == 0.5
        assert calls == [(spec, (1.0, 3.0))]


class TestMeanFields:
    @pytest.mark.parametrize("domain", [(0.0, math.inf), None, "(0, inf)"])
    def test_domain_must_be_an_interval(self, domain):
        with pytest.raises(iv.ValidationError, match="^mean domain must be an Interval, got "):
            Mean(2, domain, max)

    @pytest.mark.parametrize("flags", ["strict", True, None, {"strict": True}])
    def test_flags_must_be_mean_flags(self, flags):
        # flags="strict" would otherwise construct, and deciding
        # contractivity on a mapping of such means raise AttributeError
        with pytest.raises(iv.ValidationError, match="^mean flags must be a MeanFlags, got "):
            Mean(2, POSITIVE_REALS, max, flags=flags)


class TestMeanFlags:
    @pytest.mark.parametrize("name", ["strict", "monotone", "homogeneous"])
    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_flags_must_be_bools(self, name, value):
        # "no" used to count as a truth value: two `max` means with
        # strict="no" were certified uniformly weakly contractive
        with pytest.raises(iv.ValidationError, match=rf"^{name} must be true or false, got "):
            MeanFlags(**{name: value})


class TestMeanPropertyCheck:
    def test_power_mean_not_falsified(self):
        m = make_power_mean(PowerMeanSpec(7.0, 3))
        report = check_mean_property(m, Random(1), 500)
        assert report.passed
        assert report.n_samples >= 500

    def test_constructed_counterexample_reported(self):
        bad = Mean(
            arity=2,
            domain=POSITIVE_REALS,
            evaluator=lambda xs: max(xs) + 1.0,
            label="max-plus-one",
        )
        report = check_mean_property(bad, Random(1), 100)
        assert not report.passed
        assert all(v.message.startswith("bounds") for v in report.violations)

    def test_nonstrict_max_with_strict_flag(self):
        fake = Mean(
            arity=2,
            domain=POSITIVE_REALS,
            evaluator=max,
            flags=MeanFlags(strict=True),
            label="max",
        )
        report = check_mean_property(fake, Random(1), 100)
        assert not report.passed
        assert any(v.message.startswith("strictness") for v in report.violations)

    def test_validate_mean_hard_errors(self):
        bad = Mean(
            arity=2,
            domain=POSITIVE_REALS,
            evaluator=lambda xs: min(xs) - 0.5,
            label="below-min",
        )
        with pytest.raises(iv.ValidationError, match="falsified"):
            validate_mean(bad)
        good = make_power_mean(PowerMeanSpec(0.0, 2))
        assert validate_mean(good) is good


positive = st.floats(min_value=0.05, max_value=40.0, allow_nan=False)
# orders below ~1e-306 make s*log(x) subnormal and no float algorithm can
# recover the mean from that; stay comfortably above
orders = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False).filter(
    lambda s: s == 0.0 or abs(s) >= 1e-6
)


class TestPowerMeanProperties:
    @given(order=orders, xs=st.lists(positive, min_size=2, max_size=5), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_symmetric_under_permutation(self, order, xs, data):
        perm = data.draw(st.permutations(xs))
        spec = PowerMeanSpec(order, len(xs))
        a = power_mean_eval(spec, xs)
        b = power_mean_eval(spec, perm)
        assert a == pytest.approx(b, rel=1e-12)

    @given(order=orders, xs=st.lists(positive, min_size=1, max_size=5),
           c=st.floats(min_value=0.01, max_value=100.0))
    # the scaled side once left the expm1 form for the power sum and was
    # 1.0e-12 off
    @example(order=0.00022296865821989345,
             xs=[13.981180101684885, 20.604976130656407, 35.75840780308928],
             c=6.471855544587608)
    @settings(max_examples=300, deadline=None)
    def test_positively_homogeneous(self, order, xs, c):
        spec = PowerMeanSpec(order, len(xs))
        a = power_mean_eval(spec, [c * t for t in xs])
        b = c * power_mean_eval(spec, xs)
        assert a == pytest.approx(b, rel=1e-12)

    @given(order=orders, xs=st.lists(positive, min_size=2, max_size=5), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_nondecreasing_in_each_argument(self, order, xs, data):
        k = data.draw(st.integers(min_value=0, max_value=len(xs) - 1))
        bump = data.draw(st.floats(min_value=0.01, max_value=5.0))
        spec = PowerMeanSpec(order, len(xs))
        lo = power_mean_eval(spec, xs)
        bumped = list(xs)
        bumped[k] += bump
        hi = power_mean_eval(spec, bumped)
        assert hi >= lo - 1e-12 * max(1.0, abs(lo))

    @given(xs=st.lists(positive, min_size=2, max_size=5),
           s1=orders, s2=orders)
    @settings(max_examples=300, deadline=None)
    def test_nondecreasing_in_the_order(self, xs, s1, s2):
        if s1 > s2:
            s1, s2 = s2, s1
        a = power_mean_eval(PowerMeanSpec(s1, len(xs)), xs)
        b = power_mean_eval(PowerMeanSpec(s2, len(xs)), xs)
        assert b >= a - 1e-12 * max(1.0, abs(a))
