"""The evaluation plan of a composed mapping against the frozen reference.

`ComposedMapping._step` runs one compiled callable per coordinate with no
argument checks.  These tests hold it, `apply`, `iterate` and
`invariant_mean_eval` to the results of a per-coordinate loop over the
frozen copy of `power_mean_eval` in `power_mean_oracle.py`, bit for bit,
on random mappings at extreme magnitudes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import invariant_mean_eval, means, oscillation
from invmean.means import _power_mean_kernel

from power_mean_oracle import power_mean_eval as oracle_power_mean

# the order strata of the benchmark's mixed mappings; "small" is
# +-U(2e-3, 9e-3), the small-|s| path, and the fixed orders include the
# two ends of that path's range
STRATA = ((-3.0, -1.0), (-1.0, -0.2), (0.0, 0.0), "small", (0.2, 2.0), (2.0, 5.0), "fixed")
FIXED_ORDERS = (-1.0, 1.0, 2.0, -1e-2, 1e-2)


@st.composite
def orders(draw):
    stratum = draw(st.sampled_from(STRATA))
    if stratum == "small":
        return draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(2e-3, 9e-3))
    if stratum == "fixed":
        return draw(st.sampled_from(FIXED_ORDERS))
    return draw(st.floats(*stratum))


# mantissa times 10^k for k uniform in -300..300, plus points near 1 where
# the small-|s| path applies
magnitudes = st.one_of(
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 9.99), st.integers(-300, 300)),
    st.floats(-0.1, 0.1).map(lambda d: 1.0 + d),
)


@st.composite
def mappings(draw, max_p=6):
    p = draw(st.integers(1, max_p))
    rows = tuple(
        tuple(draw(st.integers(1, p)) for _ in range(draw(st.integers(1, 5))))
        for _ in range(p)
    )
    specs = tuple(iv.PowerMeanSpec(draw(orders()), len(row)) for row in rows)
    m = iv.ComposedMapping(
        tuple(iv.make_power_mean(spec) for spec in specs), iv.POSITIVE_REALS, iv.IndexVector(rows)
    )
    return m, specs


@st.composite
def points(draw, p):
    # drawn from a small pool, so equal arguments occur often
    pool = draw(st.lists(magnitudes, min_size=1, max_size=p))
    return tuple(draw(st.sampled_from(pool)) for _ in range(p))


@st.composite
def mapping_and_point(draw):
    m, specs = draw(mappings())
    return m, specs, draw(points(m.p))


def oracle_apply(m, specs, x):
    return tuple(
        oracle_power_mean(spec, [x[a - 1] for a in row])
        for spec, row in zip(specs, m.alpha.rows)
    )


def bits(xs):
    return tuple(t.hex() for t in xs)


class TestBitIdentity:
    @given(case=mapping_and_point())
    @settings(max_examples=400, deadline=None)
    def test_step_and_apply_match_the_oracle(self, case):
        m, specs, x = case
        want = bits(oracle_apply(m, specs, x))
        assert bits(m._step(x)) == want
        assert bits(m.apply(x)) == want

    @given(case=mapping_and_point())
    @settings(max_examples=150, deadline=None)
    def test_iterates_match_the_oracle(self, case):
        # later iterates bring the arguments close together and equal
        m, specs, x = case
        trace = m.iterate(x, 12)
        y = x
        for point in trace[1:]:
            y = oracle_apply(m, specs, y)
            assert bits(point) == bits(y)
        assert bits(m.nth_iterate(x, 12)) == bits(y)

    @given(
        case=mapping_and_point(),
        tol=st.sampled_from((1e-12, 1e-9)),
        max_iter=st.sampled_from((3, 50, 10_000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_mean_eval_matches_a_loop_over_apply(self, case, tol, max_iter):
        m, _, x = case
        assert invariant_mean_eval(m, x, tol=tol, max_iter=max_iter) == reference_eval(
            m, x, tol, max_iter
        )


def reference_eval(m, x, tol, max_iter):
    """`invariant_mean_eval` as a loop over the public `apply` and
    `oscillation`, as it stood before the plan, plus the stop reason."""
    xs = tuple(float(t) for t in x)
    threshold = 2.0 * tol * max(1.0, abs(max(xs)))
    window = max(200, 2 * ((m.p - 1) ** 2 + 1))
    y = xs
    osc = oscillation(y)
    n = 0
    anchor_osc = osc
    anchor_n = 0
    stalled = False
    while osc >= threshold and n < max_iter:
        y = m.apply(y)
        n += 1
        osc = oscillation(y)
        if n - anchor_n >= window:
            if osc > anchor_osc * (1.0 - 1e-12):
                stalled = True
                break
            anchor_osc = osc
            anchor_n = n
    converged = osc < threshold
    return iv.ConvergenceReport(
        value=0.5 * (min(y) + max(y)) if converged else None,
        error_radius=0.5 * osc,
        iterations_used=n,
        converged=converged,
        final_iterate=y,
        stop_reason="converged" if converged else "stalled" if stalled else "max_iter",
    )


@pytest.mark.parametrize("s, x", [
    (2.0, (1e300, 1e299)),      # t**s overflows
    (5.0, (1e-300, 1e-299)),    # the sum of the powers underflows
    (-3.0, (1e200, 1e250)),
    (-1.0, (1e-307, 1e300)),    # 1/t overflows
    (0.5, (1e-300, 1e300)),
])
def test_two_argument_closed_form_hands_over_outside_the_normal_floats(s, x):
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    assert _power_mean_kernel(s, (0, 1))(x).hex() == want
    assert _power_mean_kernel(s, (1, 0))(x[::-1]).hex() == want


ROOT_LO = 2.0 ** -509
ROOT_HI = 2.0 ** 509


# (order, point, the branch of the closed form the point takes)
@pytest.mark.parametrize("s, x, branch", [
    (0.0, (2.0, 3.0), "root"),
    (0.0, (1e-150, 1e150), "root"),
    (0.0, (math.nextafter(ROOT_LO, 1.0), 3.0), "root"),     # just inside 2^+-509
    (0.0, (0.5, math.nextafter(ROOT_HI, 0.0)), "root"),
    (0.0, (ROOT_LO, 3.0), "handover"),                       # on the bounds
    (0.0, (0.5, ROOT_HI), "handover"),
    (0.0, (math.nextafter(ROOT_LO, 0.0), 3.0), "handover"),  # just across them
    (0.0, (0.5, math.nextafter(ROOT_HI, math.inf)), "handover"),
    (0.0, (1e-300, 1e300), "handover"),
    (5e-3, (1.0005, 0.9995), "log1p"),
    (-9e-3, (1.0 + 1e-4, 1.0 - 1e-3), "log1p"),
    (9e-3, (1.0, 1.12), "power sum"),                        # 9e-3*log(1.12) > 1e-3
    (-5e-3, (1e-100, 1e100), "power sum"),
    (2e-3, (1e-300, 1.0), "power sum"),
])
def test_order_0_and_small_order_closed_forms(monkeypatch, s, x, branch):
    if s != 0.0:
        near_one = all(abs(s * math.log(t)) < 1e-3 for t in x)
        assert near_one == (branch == "log1p")
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    handovers = []
    power_mean = means._power_mean
    monkeypatch.setattr(means, "_power_mean", lambda *a: handovers.append(a) or power_mean(*a))
    assert _power_mean_kernel(s, (0, 1))(x).hex() == want
    assert _power_mean_kernel(s, (1, 0))(x[::-1]).hex() == want
    assert bool(handovers) == (branch == "handover")


class TestPlan:
    def test_built_on_the_first_step_not_at_construction(self):
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        assert "_plan" not in vars(m)
        m.apply((1.0, 2.0, 3.0, 4.0))
        assert len(vars(m)["_plan"]) == 4

    def test_repackaged_power_mean_evaluator_keeps_its_checks(self):
        # a power mean's evaluator inside a Mean on a domain reaching below 0
        # is not compiled: power_mean_eval still rejects the negative argument
        interval = iv.Interval(-5.0, 5.0)
        evaluator = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2)).evaluator
        mean = iv.Mean(arity=2, domain=interval, evaluator=evaluator)
        m = iv.ComposedMapping((mean, mean), interval, iv.IndexVector(((1, 2), (2, 1))))
        assert m.apply((1.0, 3.0)) == (2.0, 2.0)
        with pytest.raises(iv.DomainError, match="outside"):
            m.apply((-1.0, 3.0))


class TestCustomMeans:
    """A mean the library did not build may leave the interval; iterating
    must stop with DomainError instead of carrying the point on."""

    @staticmethod
    def mapping():
        interval = iv.Interval(0.0, 5.0)
        too_high = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 1.0,
                           label="max+1")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        return iv.ComposedMapping((too_high, arithmetic), interval,
                                  iv.IndexVector(((1, 2), (1, 2))))

    def test_iterate_raises(self):
        with pytest.raises(iv.DomainError):
            self.mapping().iterate((1.0, 4.5), 2)

    def test_invariant_mean_eval_raises(self):
        with pytest.raises(iv.DomainError):
            invariant_mean_eval(self.mapping(), (1.0, 4.5))

    def test_value_inside_the_interval_passes(self):
        # max(1, 3) + 1 = 4 stays in (0, 5)
        assert self.mapping().apply((1.0, 3.0)) == (4.0, 2.0)
