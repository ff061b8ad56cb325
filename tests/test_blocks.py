"""The k-step kernel and the block schedule of `invariant_mean_eval`
against a per-step reference.

`invariant_mean_eval` runs its iteration in blocks of k steps, one call
of the compiled kernel `ComposedMapping._steps(y, k)` each, and tests the
stop rule once per block; a block of several steps that crosses the
threshold is taken again at half its length, and no later block passes
its end.  `per_step_eval` is the loop that the schedule replaces: one
`_steps(y, 1)` call and one stop test per step.
The two must return the same `ConvergenceReport`, float for float, on
rings, mixed-order maps, two disjoint rings and cycles, at tolerances
above and below float resolution (so that runs stall), and at iteration
caps on and off the stall-window boundaries.  A mapping with a mean the
library did not build keeps one-step blocks, so it stops, or raises
DomainError, at the same step.

`verify_invariance` takes both of a sample's runs, from x and from M(x),
from one trajectory (`invariant._runs` with two runs): each report must
equal `per_step_eval` of its own start, and the sampler's `CheckReport`
the one of two separate `invariant_mean_eval` calls per sample, at half
their kernel steps.
"""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import invariant_mean_eval
from invmean.invariant import _midpoint_radius, _nonconstant_samples, _runs, verify_invariance
from invmean.means import sweep

ORDERS = (-3.0, -1.0, 0.0, 5e-3, -9e-3, 0.5, 1.0, 2.0, 7.0)
# 1e-16 and below lie under float resolution near 1, so those runs stall
TOLS = (1e-6, 1e-12, 1e-15, 1e-16, 1e-18, 5e-324)
# the stall window is 200 steps up to p = 11 and 244 at p = 12
MAX_ITERS = (1, 2, 37, 199, 200, 201, 244, 399, 400, 401, 1000, 10_000)


def per_step_eval(m, x, tol=1e-12, max_iter=10_000):
    """`invariant_mean_eval` as one kernel step and one stop test per step."""
    xs = m._validate_point(x)
    threshold = 2.0 * tol * max(1.0, abs(max(xs)))
    window = max(200, 2 * ((m.p - 1) ** 2 + 1))
    graph = iv.is_ergodic(m.graph)
    classes = () if graph.one_aperiodic_initial_class else tuple(
        [v for v in range(m.p) if mask >> v & 1]
        for c in graph.initial_classes for mask in c.cyclic_classes
    )

    def spread(y):
        if not classes:
            return max(y) - min(y)
        return max(max(y[v] for v in c) - min(y[v] for v in c) for c in classes)

    y = xs
    osc = spread(y)
    n = anchor_n = 0
    anchor_osc = osc
    stalled = False
    while osc >= threshold and n < max_iter:
        y = m._steps(y, 1)
        n += 1
        osc = spread(y)
        if n - anchor_n >= window:
            if osc > anchor_osc * (1.0 - 1e-12):
                stalled = True
                break
            anchor_osc, anchor_n = osc, n
    if osc < threshold:
        stop_reason = "classes-converged" if classes else "converged"
    else:
        stop_reason = "stalled" if stalled else "max_iter"
    converged = stop_reason == "converged"
    brackets = tuple(
        (tuple(v + 1 for v in c), *_midpoint_radius(min(t), max(t)))
        for c in classes for t in [[y[v] for v in c]]
    )
    if classes:
        value, radius = None, max(r for _, _, r in brackets)
    else:
        value, radius = _midpoint_radius(min(y), max(y))
    return iv.ConvergenceReport(
        value=value if converged else None,
        error_radius=radius,
        iterations_used=n,
        converged=converged,
        final_iterate=y,
        stop_reason=stop_reason,
        classes=brackets,
    )


def power_mapping(orders, rows):
    means = tuple(iv.make_power_mean(iv.PowerMeanSpec(s, len(row)))
                  for s, row in zip(orders, rows))
    return iv.ComposedMapping(means, iv.POSITIVE_REALS, iv.IndexVector(rows))


@st.composite
def shaped_mappings(draw):
    shape = draw(st.sampled_from(("ring", "mixed", "two-ring", "cycle")))
    if shape == "ring":  # ergodic: row i reads (i, i+1)
        p = draw(st.integers(2, 12))
        rows = [(i, i % p + 1) for i in range(1, p + 1)]
    elif shape == "mixed":  # any graph: ergodic, disconnected or periodic
        p = draw(st.integers(1, 8))
        rows = [tuple(draw(st.lists(st.integers(1, p), min_size=1, max_size=3)))
                for _ in range(p)]
    elif shape == "two-ring":  # two initial classes
        q = draw(st.integers(2, 5))
        rows = [(i, i % q + 1) for i in range(1, q + 1)]
        rows += [(q + i, q + i % q + 1) for i in range(1, q + 1)]
    else:  # a directed cycle of period p, one or two arguments per row
        p = draw(st.integers(2, 8))
        arity = draw(st.integers(1, 2))
        rows = [((i + 1) % p + 1,) * arity for i in range(p)]
    return power_mapping([draw(st.sampled_from(ORDERS)) for _ in rows], rows)


@st.composite
def starts(draw, p):
    kind = draw(st.sampled_from(("moderate", "near-one", "huge", "wide")))
    if kind == "moderate":
        coordinate = st.floats(1.0, 10.0)
    elif kind == "near-one":
        coordinate = st.floats(-1e-9, 1e-9).map(lambda d: 1.0 + d)
    elif kind == "huge":
        coordinate = st.floats(1.0, 1.79).map(lambda t: t * 1e308)
    else:
        coordinate = st.builds(lambda t, e: t * 10.0 ** e, st.floats(1.0, 9.99),
                               st.integers(-300, 300))
    return tuple(draw(coordinate) for _ in range(p))


@st.composite
def runs(draw):
    m = draw(shaped_mappings())
    return m, draw(starts(m.p))


class TestBlockSchedule:
    @given(case=runs(), tol=st.sampled_from(TOLS), max_iter=st.sampled_from(MAX_ITERS))
    @settings(max_examples=400, deadline=None)
    def test_report_equals_the_per_step_loop(self, case, tol, max_iter):
        m, x = case
        assert repr(invariant_mean_eval(m, x, tol, max_iter)) == repr(
            per_step_eval(m, x, tol, max_iter)
        )

    @pytest.mark.parametrize("tol, max_iter, stop_reason", [
        (1e-12, 10_000, "converged"),
        (1e-18, 10_000, "stalled"),
        (1e-12, 2_000, "max_iter"),
        (1e-12, 3_001, "max_iter"),
    ])
    def test_a_long_run_takes_few_blocks(self, monkeypatch, tol, max_iter, stop_reason):
        # the ring of 32 harmonic/quadratic pairs converges over thousands
        # of steps, which the kernel takes in a few dozen calls, with
        # hardly a step past the crossing
        p = 32
        m = power_mapping([-1.0 if i % 2 == 0 else 2.0 for i in range(p)],
                          [(i, i % p + 1) for i in range(1, p + 1)])
        x = tuple(1.0 + 0.25 * i for i in range(p))
        want = per_step_eval(m, x, tol, max_iter)
        blocks = []
        kernel = m._steps
        monkeypatch.setitem(vars(m), "_steps", lambda xs, k: blocks.append(k) or kernel(xs, k))
        report = invariant_mean_eval(m, x, tol, max_iter)
        assert report == want and report.stop_reason == stop_reason
        assert report.iterations_used > 1000
        assert min(blocks) >= 1 and len(blocks) * 20 < report.iterations_used
        assert sum(blocks) <= report.iterations_used + 10

    @pytest.mark.parametrize("orders, x, tol", [
        ((-1.0, 1.0), (1.0, 1e6), 1e-6),
        ((-1.0, 1.0), (1.0, 1e6), 1e-12),
        ((-1.0, 1.0), (1.0, 1e6), 1e-15),
        ((0.0, 1.0), (1e-300, 1e300), 1e-12),
        ((-3.0, 7.0), (3.0, 7.0), 1e-15),
    ])
    def test_no_block_reaches_past_a_crossing_block(self, monkeypatch, orders, x, tol):
        # a block that ends below the threshold is taken again at half its
        # length, and the first crossing lies inside it, so no later kernel
        # call may reach past its end.  The report cannot show a retry that
        # does: only the work grows.  These pairs converge quadratically, so
        # the forecast after a retried block comes out long
        m = power_mapping(orders, [(1, 2), (1, 2)])
        crossing = per_step_eval(m, x, tol).iterations_used
        first = {}  # each point of the per-step trace at its first step
        for n, y in enumerate(m.iterate(x, crossing)):
            first.setdefault(y, n)
        calls = []  # (first step, last step) of each kernel call
        kernel = m._steps
        monkeypatch.setitem(vars(m), "_steps", lambda xs, k: calls.append(
            (first[xs] + 1, first[xs] + k)) or kernel(xs, k))
        assert invariant_mean_eval(m, x, tol).iterations_used == crossing
        # the first call that reaches the crossing takes several steps, so
        # it is retried
        i = next(i for i, (_, end) in enumerate(calls) if end >= crossing)
        start, end = calls[i]
        assert end > start and len(calls) > i + 1
        assert all(later_end <= end for _, later_end in calls[i + 1:])
        assert calls[-1][1] == crossing

    @given(case=runs(), n=st.sampled_from((0, 1, 2, 37, 1000)))
    @settings(max_examples=60, deadline=None)
    def test_nth_iterate_is_the_last_point_of_iterate(self, case, n):
        m, x = case
        trace = m.iterate(x, n)
        assert len(trace) == n + 1
        assert [t.hex() for t in m.nth_iterate(x, n)] == [t.hex() for t in trace[-1]]


def fsum_mean():
    # the arithmetic mean, but not a library power mean, so its row is checked
    return iv.Mean(arity=2, domain=iv.POSITIVE_REALS, evaluator=lambda xs: math.fsum(xs) / 2,
                   label="fsum/2")


class TestCheckedMeans:
    """A row the library did not build gives no nested brackets: such a
    mapping runs one step per block and stops where the per-step loop
    does."""

    @pytest.mark.parametrize("x", [(1.0, 2.0, 7.0, 3.0), (1e-300, 1.0, 1e300, 2.0)])
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("max_iter", (1, 37, 200, 201, 10_000))
    def test_report_equals_the_per_step_loop(self, monkeypatch, x, tol, max_iter):
        harmonic = iv.make_power_mean(iv.PowerMeanSpec(-1.0, 2))
        m = iv.ComposedMapping((fsum_mean(), harmonic) * 2, iv.POSITIVE_REALS,
                               iv.IndexVector(((1, 2), (2, 3), (3, 4), (4, 1))))
        want = per_step_eval(m, x, tol, max_iter)
        blocks = []
        kernel = m._steps
        monkeypatch.setitem(vars(m), "_steps", lambda xs, k: blocks.append(k) or kernel(xs, k))
        assert repr(invariant_mean_eval(m, x, tol, max_iter)) == repr(want)
        assert set(blocks) <= {1} and len(blocks) == want.iterations_used

    @pytest.mark.parametrize("x", [(1e-11, 5e-11), (2e-11, 2.0000001e-11), (9e-11, 1e-12)])
    @pytest.mark.parametrize("tol", (1e-12, 1e-20, 1e-30))
    @pytest.mark.parametrize("max_iter", (37, 200, 201, 10_000))
    def test_a_mean_above_the_bracket(self, x, tol, max_iter):
        # max + 5e-17 leaves [min, max] at every step, so the oscillation
        # need not shrink; it may also leave the interval (0, 1e-10)
        interval = iv.Interval(0.0, 1e-10)
        above = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 5e-17,
                        label="max+5e-17")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        m = iv.ComposedMapping((above, arithmetic), interval, iv.IndexVector(((1, 2), (1, 2))))
        try:
            want = repr(per_step_eval(m, x, tol, max_iter))
        except iv.DomainError as exc:
            want = str(exc)
        try:
            got = repr(invariant_mean_eval(m, x, tol, max_iter))
        except iv.DomainError as exc:
            got = str(exc)
        assert got == want

    def test_domain_error_at_the_same_step(self, monkeypatch):
        # max + 1 climbs by about one per step and leaves (0, 50) at step
        # 47; the error must come from the same step
        interval = iv.Interval(0.0, 50.0)
        too_high = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 1.0,
                           label="max+1")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        m = iv.ComposedMapping((too_high, arithmetic), interval, iv.IndexVector(((1, 2), (1, 2))))
        kernel = m._steps
        taken = {}
        for name, run in (("per-step", per_step_eval), ("blocks", invariant_mean_eval)):
            steps = []
            monkeypatch.setitem(vars(m), "_steps", lambda xs, k: steps.append(k) or kernel(xs, k))
            with pytest.raises(iv.DomainError) as info:
                run(m, (1.0, 3.0), 1e-12, 10_000)
            taken[name] = (sum(steps), str(info.value))
        assert taken["blocks"] == taken["per-step"]
        assert taken["blocks"][0] == 47


def one_trajectory(m, x, tol=1e-12, max_iter=10_000):
    """The reports of K(x) and K(M(x)) from one trajectory, as
    `verify_invariance` takes them."""
    return tuple(_runs(m, m._validate_point(x), 2, tol, max_iter))


def two_runs(m, x, tol=1e-12, max_iter=10_000):
    """The same two reports from one per-step loop each."""
    return per_step_eval(m, x, tol, max_iter), per_step_eval(m, m.apply(x), tol, max_iter)


def two_call_verify_invariance(m, tol=1e-9, rng=None, n_samples=100):
    """`verify_invariance` with two `invariant_mean_eval` calls per sample,
    one from x and one from m.apply(x), each its own iteration."""

    def judge(x):
        r_x = invariant_mean_eval(m, x)
        r_mx = invariant_mean_eval(m, m.apply(x))
        if not (r_x.converged and r_mx.converged):
            return None
        residual = abs(r_x.value - r_mx.value)
        if residual > tol * max(1.0, abs(max(x))):
            return residual, f"|K(M(x)) - K(x)| = {residual:.3e} exceeds {tol:g}*scale"
        return residual, None

    return sweep("invariance", _nonconstant_samples(m, rng, n_samples), judge)


def harmonic_arithmetic_ring(p):
    # the bench's verify ring: harmonic and arithmetic rows in turn, row i
    # reading (i, i+1)
    return power_mapping([-1.0 if i % 2 == 0 else 1.0 for i in range(p)],
                         [(i, i % p + 1) for i in range(1, p + 1)])


def counted(monkeypatch, m):
    """The k of every kernel call on m, from now on."""
    blocks = []
    kernel = m._steps
    monkeypatch.setitem(vars(m), "_steps", lambda xs, k: blocks.append(k) or kernel(xs, k))
    return blocks


class TestOneTrajectory:
    @given(case=runs(), tol=st.sampled_from(TOLS), max_iter=st.sampled_from(MAX_ITERS))
    @settings(max_examples=400, deadline=None)
    def test_reports_equal_the_per_step_loops(self, case, tol, max_iter):
        m, x = case
        assert repr(one_trajectory(m, x, tol, max_iter)) == repr(two_runs(m, x, tol, max_iter))

    @pytest.mark.parametrize("orders, rows, x, tol, max_iter, steps, stop_reasons", [
        # the start's bracket is closed: no step for x, one for M(x)
        ((-1.0, 1.0) * 2, ((1, 2), (2, 3), (3, 4), (4, 1)), (1.0, 1.0, 1.0, 1.0 + 1e-13),
         1e-12, 10_000, (0, 0), ("converged", "converged")),
        # both rows are the arithmetic mean of the same pair: M(x) is constant
        ((1.0, 1.0), ((1, 2), (1, 2)), (1.0, 3.0), 1e-12, 10_000, (1, 0),
         ("converged", "converged")),
        ((-1.0, 1.0) * 3, tuple((i, i % 6 + 1) for i in range(1, 7)),
         (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 1e-12, 1, (1, 1), ("max_iter", "max_iter")),
        ((-1.0, 1.0) * 3, tuple((i, i % 6 + 1) for i in range(1, 7)),
         (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 1e-12, 2, (2, 2), ("max_iter", "max_iter")),
        # below float resolution: each run stalls at its own window
        ((-1.0, 1.0) * 3, tuple((i, i % 6 + 1) for i in range(1, 7)),
         (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 1e-18, 10_000, None, ("stalled", "stalled")),
        # no K: each class bracket of two disjoint rings closes
        ((2.0, 0.0, -1.0, 1.0), ((1, 2), (2, 1), (3, 4), (4, 3)), (1.0, 9.0, 2.0, 50.0),
         1e-12, 10_000, None, ("classes-converged", "classes-converged")),
    ])
    def test_explicit_cases(self, orders, rows, x, tol, max_iter, steps, stop_reasons):
        m = power_mapping(orders, rows)
        got = one_trajectory(m, x, tol, max_iter)
        assert repr(got) == repr(two_runs(m, x, tol, max_iter))
        assert tuple(r.stop_reason for r in got) == stop_reasons
        if steps is not None:
            assert tuple(r.iterations_used for r in got) == steps

    def test_each_run_stalls_at_its_own_window(self):
        m = harmonic_arithmetic_ring(6)
        x = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        r_x, r_mx = one_trajectory(m, x, 1e-18)
        assert r_x.stop_reason == r_mx.stop_reason == "stalled"
        assert r_x.iterations_used % 200 == r_mx.iterations_used % 200 == 0
        # the run from M(x) counts its steps from step 1 of the trajectory
        assert r_x.final_iterate == m.nth_iterate(x, r_x.iterations_used)
        assert r_mx.final_iterate == m.nth_iterate(x, 1 + r_mx.iterations_used)

    @pytest.mark.parametrize("x", [(1.0, 2.0, 7.0, 3.0), (1e-300, 1.0, 1e300, 2.0)])
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("max_iter", (1, 37, 200, 201, 10_000))
    def test_a_mean_the_library_did_not_build(self, monkeypatch, x, tol, max_iter):
        # one-step blocks, and every run is tested where it can stop
        harmonic = iv.make_power_mean(iv.PowerMeanSpec(-1.0, 2))
        m = iv.ComposedMapping((fsum_mean(), harmonic) * 2, iv.POSITIVE_REALS,
                               iv.IndexVector(((1, 2), (2, 3), (3, 4), (4, 1))))
        want = two_runs(m, x, tol, max_iter)
        blocks = counted(monkeypatch, m)
        assert repr(one_trajectory(m, x, tol, max_iter)) == repr(want)
        assert set(blocks) == {1}
        assert len(blocks) == max(want[0].iterations_used, 1 + want[1].iterations_used)

    def test_domain_error_at_the_same_step(self, monkeypatch):
        # max + 1 climbs by about one per step and leaves (0, 50) at step 47
        # of the trajectory, which both runs reach
        interval = iv.Interval(0.0, 50.0)
        too_high = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 1.0,
                           label="max+1")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        m = iv.ComposedMapping((too_high, arithmetic), interval, iv.IndexVector(((1, 2), (1, 2))))
        with pytest.raises(iv.DomainError) as want:
            per_step_eval(m, (1.0, 3.0), 1e-12, 10_000)
        blocks = counted(monkeypatch, m)
        with pytest.raises(iv.DomainError) as got:
            one_trajectory(m, (1.0, 3.0))
        assert str(got.value) == str(want.value)
        assert set(blocks) == {1} and len(blocks) == 47

    @pytest.mark.parametrize("x", [(1e-11, 5e-11), (2e-11, 2.0000001e-11), (9e-11, 1e-12)])
    @pytest.mark.parametrize("tol", (1e-12, 1e-20, 1e-30))
    @pytest.mark.parametrize("max_iter", (37, 200, 201, 10_000))
    def test_a_mean_above_the_bracket(self, x, tol, max_iter):
        # the oscillation need not shrink, and M(x) may leave (0, 1e-10)
        # after either run has stopped
        interval = iv.Interval(0.0, 1e-10)
        above = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 5e-17,
                        label="max+5e-17")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        m = iv.ComposedMapping((above, arithmetic), interval, iv.IndexVector(((1, 2), (1, 2))))
        outcomes = []
        for run in (two_runs, one_trajectory):
            try:
                outcomes.append(repr(run(m, x, tol, max_iter)))
            except iv.DomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


FIXTURE_NAMES = ("example2", "example3", "example4", "example5", "example6")


class TestVerifyInvariance:
    """`verify_invariance` against the sampler of two separate runs."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_fixtures(self, name, seed):
        m = iv.load_mapping_spec(iv.fixture_path(f"{name}.json")).build()
        for tol in (1e-9, 1e-300):
            assert verify_invariance(m, tol, Random(seed), 25) == two_call_verify_invariance(
                m, tol, Random(seed), 25)

    @pytest.mark.parametrize("p", range(4, 9))
    def test_rings(self, p):
        rows = [(i, i % p + 1) for i in range(1, p + 1)]
        for m in (harmonic_arithmetic_ring(p),
                  power_mapping([ORDERS[i % len(ORDERS)] for i in range(p)], rows)):
            assert verify_invariance(m, 1e-9, Random(p), 10) == two_call_verify_invariance(
                m, 1e-9, Random(p), 10)

    @pytest.mark.parametrize("name, prototype", [("ring8", 1289), ("example2", 299)])
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_half_the_kernel_steps(self, monkeypatch, name, prototype, seed):
        # one trajectory per sample: the kernel steps of two runs, halved,
        # plus a few per sample for the blocks taken again at a crossing
        if name == "ring8":
            m = harmonic_arithmetic_ring(8)
        else:
            m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        n = 4
        blocks = counted(monkeypatch, m)
        two_call_verify_invariance(m, rng=Random(seed), n_samples=n)
        two_calls = sum(blocks)
        blocks.clear()
        verify_invariance(m, rng=Random(seed), n_samples=n)
        assert sum(blocks) <= two_calls / 2 + 3 * n
        assert sum(blocks) <= prototype + 4 * n
