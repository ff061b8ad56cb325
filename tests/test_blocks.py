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
DomainError, at the same step.  A run in which the mapping moves from its
row functions to its compiled kernel, inside a block, reports what a
mapping compiled before its first step reports.
"""

import importlib.util
import math
import sys
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import averaging, invariant_mean_eval
from invmean.invariant import _midpoint_radius
from invmean.specfile import mapping_spec_from_dict

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

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
        # the kernel the mapping has stored since its steps passed
        # _COMPILE_AFTER, which per_step_eval took it past
        kernel = vars(m)["_steps"]
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


def solve_start(monkeypatch, name, kind):
    """A new mapping of spec `name` of the benchmark's seed-1 `solve` plan,
    and the start point of kind `kind` that the plan draws for it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    plan = workloads.plan_solve(1)
    x = next(x for n, k, x in plan.ops if (n, k) == (name, kind))
    return mapping_spec_from_dict(plan.specs[name]).build(), x


class TestHandOver:
    """A mapping moves from its row functions to its compiled kernel once
    its steps pass `averaging._COMPILE_AFTER`, here inside a run of
    `invariant_mean_eval`: the report is float for float the one of a
    mapping compiled before its first step."""

    @pytest.mark.parametrize("name, kind, left", [
        ("ring32", "moderate", averaging._COMPILE_AFTER),  # 5193 steps from a new mapping
        ("example2", "moderate", 20),
        ("example2", "wide", 0),  # the run is one step, the one that crosses
    ])
    def test_report_equals_the_compiled_mappings(self, monkeypatch, name, kind, left):
        # `left` is how many steps the mapping may still take on its row
        # functions when the run starts
        ahead, x = solve_start(monkeypatch, name, kind)
        kernel = averaging._compile_steps(ahead)
        blocks = []
        vars(ahead)["_steps"] = lambda xs, k: blocks.append(k) or kernel(xs, k)
        want = invariant_mean_eval(ahead, x)
        # the block that takes the count past the constant starts at or
        # before it, and so runs on the compiled kernel from its first step
        ends = list(accumulate(blocks))
        crossing = next(i for i, end in enumerate(ends) if end > left)
        assert ([0] + ends)[crossing] <= left < ends[crossing]

        m, x = solve_start(monkeypatch, name, kind)
        m.nth_iterate(x, averaging._COMPILE_AFTER - left)
        compiled = []
        compile_steps = averaging._compile_steps
        monkeypatch.setattr(
            averaging, "_compile_steps", lambda m: compiled.append(m) or compile_steps(m)
        )
        assert repr(invariant_mean_eval(m, x)) == repr(want)
        assert compiled == [m] and vars(m)["_steps"].__qualname__ == "ComposedMapping._steps"
