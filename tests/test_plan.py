"""The two kernels of a composed mapping against the frozen reference.

`ComposedMapping._steps` runs one call of the shared row function
`means._power_function` (or of a checked coordinate) per row and step.
Once a mapping's steps pass `averaging._COMPILE_AFTER`, and when every
row is a library power row, it compiles the k-step kernel that
`averaging._compile_steps` generates from source, and stores it as the
instance's `_steps`: every row straight line in index order, k times
over, with the inline lines of `means._power_row` for every library
power mean, of any arity, and no argument checks.  The row functions,
which `power_mean_eval` runs too, are made of the same lines.  These
tests hold both kernels, `apply`, `iterate`, `invariant_mean_eval` and,
where rows are tested one by one, `power_mean_eval` to the results of a
per-coordinate loop over the frozen copy of `power_mean_eval` in
`power_mean_oracle.py`, bit for bit: on random mappings at extreme
magnitudes, on each branch of the two-argument forms in both argument
orders, on rows of three to five arguments at the ends of the floats, on
every row shape the generator emits (self-loop, one argument, three
arguments, p = 1, p = 1024), on k-step calls whose rows store in place or
hand their value back after the last row, and on a mean the library did
not build, which never compiles.  Each way of stepping compiles a
mapping's kernel once, and the compiled kernel and the row functions
name nothing but `means._ROW_NAMES` and are freed by their reference
count.
"""

import ast
import gc
import math
import re
import weakref
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import averaging, invariant_mean_eval, means, oscillation

from power_mean_oracle import power_mean_eval as oracle_power_mean
from test_digraph import numpy_reference

# the order strata of the benchmark's mixed mappings; "small" is
# +-U(2e-3, 9e-3), on the small-|s| path, and the fixed orders include
# +-1/16, the smallest orders of the power sum
STRATA = ((-3.0, -1.0), (-1.0, -0.2), (0.0, 0.0), "small", (0.2, 2.0), (2.0, 5.0), "fixed")
FIXED_ORDERS = (-1.0, 1.0, 2.0, -1e-2, 1e-2, -0.0625, 0.0625)


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
def mappings(draw, max_p=6, max_arity=5):
    p = draw(st.integers(1, max_p))
    rows = tuple(
        tuple(draw(st.integers(1, p)) for _ in range(draw(st.integers(1, max_arity))))
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


@st.composite
def layered_mapping_and_point(draw):
    """A mapping with no unique invariant mean: its vertices fall into one
    or two blocks of d layers, and each row reads from the previous layer
    of its own block, so there are two initial classes or every cycle
    length is a multiple of d >= 2."""
    blocks = draw(st.integers(1, 2))
    d = draw(st.integers(3 - blocks, 3))
    p = draw(st.integers(blocks * d, 6))
    # label b*d + k: layer k of block b
    labels = draw(st.permutations([i % (blocks * d) for i in range(p)]))
    rows = []
    for label in labels:
        b, k = divmod(label, d)
        source = [v + 1 for v, other in enumerate(labels) if other == b * d + (k - 1) % d]
        rows.append(tuple(draw(st.lists(st.sampled_from(source), min_size=1, max_size=4))))
    specs = tuple(iv.PowerMeanSpec(draw(orders()), len(row)) for row in rows)
    m = iv.ComposedMapping(
        tuple(iv.make_power_mean(spec) for spec in specs), iv.POSITIVE_REALS, iv.IndexVector(rows)
    )
    return m, specs, draw(points(p))


def oracle_apply(m, specs, x):
    return tuple(
        oracle_power_mean(spec, [x[a - 1] for a in row])
        for spec, row in zip(specs, m.alpha.rows)
    )


def bits(xs):
    return tuple(t.hex() for t in xs)


def both_kernels(m):
    """The stepping method of a new copy of m, which runs the row functions
    until its steps pass `_COMPILE_AFTER`, and the compiled kernel."""
    return iv.ComposedMapping(m.means, m.interval, m.alpha)._steps, averaging._compile_steps(m)


class TestBitIdentity:
    @given(case=mapping_and_point())
    @settings(max_examples=400, deadline=None)
    def test_step_and_apply_match_the_oracle(self, case):
        m, specs, x = case
        want = bits(oracle_apply(m, specs, x))
        for steps in both_kernels(m):
            assert bits(steps(x, 1)) == want
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
        assert bits(averaging._compile_steps(m)(x, 12)) == bits(y)

    @given(
        case=st.one_of(mapping_and_point(), layered_mapping_and_point()),
        tol=st.sampled_from((1e-12, 1e-9)),
        max_iter=st.sampled_from((3, 50, 10_000)),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariant_mean_eval_matches_a_loop_over_apply(self, case, tol, max_iter):
        m, _, x = case
        assert invariant_mean_eval(m, x, tol=tol, max_iter=max_iter) == reference_eval(
            m, x, tol, max_iter
        )

    @given(case=mappings(max_p=8, max_arity=3), data=st.data(), k=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_k_steps_match_k_oracle_steps(self, case, data, k):
        # random alpha, self-loops and repeated arguments among them: one
        # kernel call of k steps, with its in-place rows and its hand-back
        # lines, is k steps of the oracle
        m, specs = case
        x = data.draw(points(m.p))
        y = x
        for _ in range(k):
            y = oracle_apply(m, specs, y)
        for steps in both_kernels(m):
            assert bits(steps(x, k)) == bits(y)


def reference_eval(m, x, tol, max_iter):
    """`invariant_mean_eval` as a loop over the public `apply` and
    `oscillation`, as it stood before the plan, plus the stop reason, with
    the cyclic classes of the initial classes from `numpy_reference`: the
    whole vector is one bracket when there is one aperiodic initial
    class, else each cyclic class is one.  A radius is the distance from
    the rounded midpoint of its bracket to the farther end."""
    xs = tuple(float(t) for t in x)
    threshold = 2.0 * tol * max(1.0, abs(max(xs)))
    window = max(200, 2 * ((m.p - 1) ** 2 + 1))
    initial = numpy_reference(m.graph)[3]
    has_k = len(initial) == 1 and initial[0][1] == 1
    classes = () if has_k else tuple(c for _, _, cyclic in initial for c in cyclic)

    def spread(y):
        if has_k:
            return oscillation(y)
        return max(oscillation([y[v - 1] for v in c]) for c in classes)

    y = xs
    osc = spread(y)
    n = 0
    anchor_osc = osc
    anchor_n = 0
    stalled = False
    while osc >= threshold and n < max_iter:
        y = m.apply(y)
        n += 1
        osc = spread(y)
        if n - anchor_n >= window:
            if osc > anchor_osc * (1.0 - 1e-12):
                stalled = True
                break
            anchor_osc = osc
            anchor_n = n
    closed = osc < threshold

    def bracket(t):  # the rounded midpoint and its distance to the farther end
        mid = 0.5 * (min(t) + max(t))
        return mid, max(max(t) - mid, mid - min(t))

    brackets = [(c, *bracket([y[v - 1] for v in c])) for c in classes]
    value, radius = bracket(y)
    return iv.ConvergenceReport(
        value=value if closed and has_k else None,
        error_radius=radius if has_k else max(r for _, _, r in brackets),
        iterations_used=n,
        converged=closed and has_k,
        final_iterate=y,
        stop_reason=(
            ("converged" if has_k else "classes-converged") if closed
            else "stalled" if stalled else "max_iter"
        ),
        classes=tuple(brackets),
    )


def two_row_step(s):
    # rows (1, 2) and (2, 1) of one order: both argument orders in one step
    # of the compiled kernel; stepping on the rows runs power_mean_eval's
    # row function, which the tests check by itself
    mean = iv.make_power_mean(iv.PowerMeanSpec(s, 2))
    return averaging._compile_steps(
        iv.ComposedMapping((mean, mean), iv.POSITIVE_REALS, iv.IndexVector(((1, 2), (2, 1))))
    )


@pytest.mark.parametrize("s, x", [
    (2.0, (1e300, 1e299)),      # t**s overflows
    (5.0, (1e-300, 1e-299)),    # the sum of the powers underflows
    (-3.0, (1e200, 1e250)),
    (-1.0, (1e-307, 1e300)),    # 1/t overflows
    (0.5, (1e-300, 1e300)),
])
def test_two_argument_closed_form_hands_over_outside_the_normal_floats(s, x):
    # the compiled rows now compute these points themselves; they must still
    # give the oracle's float in both argument orders
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    step = two_row_step(s)
    assert bits(step(x, 1)) == bits(step(x[::-1], 1)) == (want, want)
    spec = iv.PowerMeanSpec(s, 2)
    assert iv.power_mean_eval(spec, x).hex() == iv.power_mean_eval(spec, x[::-1]).hex() == want


@pytest.mark.parametrize("s, x", [
    (2.0, (1e300, 1e299)),
    (5.0, (1e-300, 1e-299)),
    (-3.0, (1e200, 1e250)),
    (-1.0, (1e-307, 1e300)),
    (0.5, (1e-300, 1e300)),
    (1 / 16, (1e-300, 1e300)),
    (-1 / 16, (5e-324, 1.7976931348623157e308)),
    (8.0, (5e-324, 1.7976931348623157e308)),
])
def test_power_sum_row_is_one_pivoted_expression(s, x):
    # points where the unpivoted sum t**s would leave the normal floats:
    # the pivoted row (the pow-free form at orders -1 and 2) computes them
    # itself, with no try, range test or handover, in the two arms of one
    # branch that orders the arguments, each clamping on one side only
    row = means._power_row(s, ["x0", "x1"], "y0")
    assert row[0] == "if x0 < x1:" and row.count("else:") == 1
    arms = (row[1:row.index("else:")], row[row.index("else:") + 1:])
    assert not any(line.startswith(("if", "else")) for arm in arms for line in arm)
    assert not any(word in line for line in row for word in ("try", "means.", " <= "))
    for arm, (u, w) in zip(arms, (("x0", "x1"), ("x1", "x0"))):
        clamp = f"y0 = {u} if v < {u} else v" if s > 0 else f"y0 = {w} if v > {w} else v"
        assert arm[-1] == f"    {clamp}"
        assert not any("y0" in line for line in arm[:-1])
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    step = two_row_step(s)
    assert bits(step(x, 1)) == (want, want)
    assert iv.power_mean_eval(iv.PowerMeanSpec(s, 2), x).hex() == want


@pytest.mark.parametrize("s, x", [
    (-0.5, (1.7976931348623157e308, 1.797693134862315e308)),  # an unpivoted root overflows
    (0.005, (1.7976931348623157e308, 1.7976931348623013e308)),
])
def test_two_argument_closed_form_at_the_largest_floats(s, x):
    # the same float as power_mean_eval in both argument orders, no OverflowError
    want = iv.power_mean_eval(iv.PowerMeanSpec(s, 2), x)
    assert min(x) <= want <= max(x)
    mean = iv.make_power_mean(iv.PowerMeanSpec(s, 2))
    m = iv.ComposedMapping((mean, mean), iv.POSITIVE_REALS, iv.IndexVector(((1, 2), (2, 1))))
    assert bits(m.apply(x)) == bits(m.apply(x[::-1])) == (want.hex(), want.hex())


@pytest.mark.parametrize("s", [0.0, 5e-3, -5e-3, 0.5, 2.0, -3.0])
@pytest.mark.parametrize("a", [1.0, 3.7, 5e-324, 1e-300, 1e300, 1.7976931348623157e308])
def test_two_argument_closed_form_returns_equal_arguments(s, a):
    # no row checks a == b: whatever its branch computes, the clamp into
    # [a, a] returns a, as the oracle's early exit does
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), (a, a))
    assert want == a
    mean = iv.make_power_mean(iv.PowerMeanSpec(s, 2))
    m = iv.ComposedMapping((mean,) * 3, iv.POSITIVE_REALS, iv.IndexVector(((1, 2),) * 3))
    assert bits(m.apply((a, a, 1.0))) == (a.hex(),) * 3
    assert "==" not in "\n".join(means._power_row(s, ["x0", "x1"], "y0"))


ROOT_LO = 2.0 ** -509
ROOT_HI = 2.0 ** 509


# (order, point, the branch of the closed form the point takes)
@pytest.mark.parametrize("s, x, branch", [
    (0.0, (2.0, 3.0), "root"),
    (0.0, (1e-150, 1e150), "root"),
    (0.0, (math.nextafter(ROOT_LO, 1.0), 3.0), "root"),     # just inside 2^+-509
    (0.0, (0.5, math.nextafter(ROOT_HI, 0.0)), "root"),
    (0.0, (ROOT_LO, 3.0), "split"),                       # on the bounds
    (0.0, (0.5, ROOT_HI), "split"),
    (0.0, (math.nextafter(ROOT_LO, 0.0), 3.0), "split"),  # just across them
    (0.0, (0.5, math.nextafter(ROOT_HI, math.inf)), "split"),
    (0.0, (1e-300, 1e300), "split"),
    (5e-3, (1.0005, 0.9995), "log1p"),
    (-9e-3, (1.0 + 1e-4, 1.0 - 1e-3), "log1p"),
    (9e-3, (1.0, 1.12), "log1p"),
    (-5e-3, (1e-100, 1e100), "log1p"),
    (2e-3, (1e-300, 1.0), "log1p"),
])
def test_order_0_and_small_order_closed_forms(s, x, branch):
    # every branch is inline: the root inside 2^+-509, the mantissas and
    # exponents multiplied apart (split) outside it, and the log1p form
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    step = two_row_step(s)
    assert bits(step(x, 1)) == (want, want)
    spec = iv.PowerMeanSpec(s, 2)
    assert iv.power_mean_eval(spec, x).hex() == iv.power_mean_eval(spec, x[::-1]).hex() == want


class TestPlan:
    def test_compiles_on_the_step_past_the_constant(self, monkeypatch):
        # nothing at build, and nothing while the steps run on the row
        # functions, which compile nothing once power_mean_eval has met the
        # rows; the step that takes the count past _COMPILE_AFTER compiles
        # the kernel once, and the instance keeps it
        x = (1.0, 2.0, 3.0, 4.0)
        for mean in iv.load_mapping_spec(iv.fixture_path("example2.json")).build().means:
            mean(x[:mean.arity])  # the row functions, compiled here if not yet
        compiled = []
        monkeypatch.setattr(
            means, "compile", lambda *a: compiled.append(a[1]) or compile(*a), raising=False
        )
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        steps = m._steps  # held across the compile, as a caller may
        m.apply(x)
        m.nth_iterate(x, averaging._COMPILE_AFTER - 1)
        assert "_steps" not in vars(m) and compiled == []
        y = m.nth_iterate(x, 1)
        kernel = vars(m)["_steps"]
        assert kernel.__qualname__ == "ComposedMapping._steps"
        assert kernel.__code__.co_filename == "<invmean ComposedMapping._steps p=4>"
        assert compiled == ["<invmean ComposedMapping._steps p=4>"]
        # the held method runs on the stored kernel and compiles no more
        assert steps(x, 1) == y and m.nth_iterate(x, 1000) == steps(x, 1000)
        assert m._steps is kernel and compiled == ["<invmean ComposedMapping._steps p=4>"]

    def test_a_first_call_past_the_constant_compiles_at_once(self, monkeypatch):
        compiled = []
        compile_steps = averaging._compile_steps
        monkeypatch.setattr(
            averaging, "_compile_steps", lambda m: compiled.append(m) or compile_steps(m)
        )
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        m.nth_iterate((1.0, 2.0, 3.0, 4.0), averaging._COMPILE_AFTER + 1)
        assert compiled == [m] and vars(m)["_steps"].__qualname__ == "ComposedMapping._steps"

    @pytest.mark.parametrize("foreign", [False, True])
    def test_the_compile_decision_builds_no_graph(self, foreign):
        # the decision reads the means alone: past the constant a mapping of
        # library power means compiles, one with another mean stays on its
        # row functions, and neither builds its incidence graph
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        if foreign:
            means = (iv.Mean(2, m.interval, lambda t: (t[0] + t[1]) / 2), *m.means[1:])
            m = iv.ComposedMapping(means, m.interval, m.alpha)
        m.nth_iterate((1.0, 2.0, 3.0, 4.0), averaging._COMPILE_AFTER + 1)
        m.nth_iterate((1.0, 2.0, 3.0, 4.0), 1)
        assert ("_steps" in vars(m)) != foreign and m._power_rows != foreign
        assert "graph" not in vars(m) and "_iteration" not in vars(m)

    def test_a_dropped_mapping_is_freed_without_the_collector(self):
        # nothing the instance keeps refers back to it, and the kernel's
        # globals do not hold the kernel, so no cycle keeps either
        m, _ = power_mapping((-1.0, 0.0, 1.0, 2.0), ring(4, 1))
        m.nth_iterate((1.0, 2.0, 3.0, 4.0), averaging._COMPILE_AFTER + 1)
        dropped, kernel = weakref.ref(m), weakref.ref(vars(m)["_steps"])
        gc.disable()
        try:
            del m
            assert dropped() is None and kernel() is None
        finally:
            gc.enable()

    def test_an_evicted_row_function_is_freed_without_the_collector(self):
        row = weakref.ref(means._power_function(0.375, 3))  # an order no other test uses
        assert row() is not None
        gc.disable()
        try:
            means._power_function.cache_clear()
            assert row() is None
        finally:
            gc.enable()

    def test_no_step_taken_compiles_nothing(self):
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        x = (1.0, 2.0, 3.0, 4.0)
        assert m.iterate(x, 0) == (x,)
        assert m.nth_iterate(x, 0) == x
        report = iv.invariant_mean_eval(m, (2.5,) * 4)  # a constant start is converged
        assert report.iterations_used == 0 and report.value == 2.5
        assert vars(m).get("_taken", 0) == 0
        assert m.nth_iterate(x, 1) == m.iterate(x, 1)[1]
        assert vars(m)["_taken"] == 2

    def test_repackaged_power_mean_evaluator_keeps_its_checks(self):
        # a power mean's evaluator inside a Mean on a domain reaching below 0
        # is not compiled: power_mean_eval still rejects the negative argument
        interval = iv.Interval(-5.0, 5.0)
        evaluator = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2)).evaluator
        mean = iv.Mean(arity=2, domain=interval, evaluator=evaluator)
        m = iv.ComposedMapping((mean, mean), interval, iv.IndexVector(((1, 2), (2, 1))))
        assert m.apply((1.0, 3.0)) == (2.0, 2.0)
        with pytest.raises(iv.DomainError, match=r"power-mean argument -1\.0 outside \(0, \+inf\)"):
            m.apply((-1.0, 3.0))
        # the step stays checked after the first compile, on a later point too
        with pytest.raises(iv.DomainError, match="power-mean argument"):
            m.nth_iterate((-2.0, -1.0), 1)

    def test_kernel_names_no_general_power_mean(self):
        # rows of arity 1-5, self-loops included, and 1024, past order 0's
        # split form, on every order path: the kernel and the row functions
        # call only the one table of names, besides the kernel's own loop
        names = set(means._ROW_NAMES)
        rows = ((1,), (1, 2), (2, 3, 1), (1, 2, 3, 4), (4, 4, 1, 3, 5), (6, 6), (1, 2) * 512)
        for s in ORDER_PATHS:
            m, specs = power_mapping((s,) * len(rows), rows)
            kernel = averaging._compile_steps(m)
            assert set(kernel.__code__.co_names) <= names | {"range"}
            assert "means" not in kernel.__globals__
            for spec in specs:
                row = means._power_function(spec.order, spec.arity)
                assert set(row.__code__.co_names) <= names

    def test_power_evaluator_of_another_arity_keeps_its_checks(self):
        # a Mean of arity 3 around a 2-argument power mean is not compiled:
        # power_mean_eval raises its ShapeError at the step
        evaluator = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2)).evaluator
        mean = iv.Mean(arity=3, domain=iv.POSITIVE_REALS, evaluator=evaluator)
        m = iv.ComposedMapping((mean,) * 3, iv.POSITIVE_REALS,
                               iv.IndexVector(((1, 2, 3),) * 3))
        with pytest.raises(iv.ShapeError, match="arity 2 got 3 arguments"):
            m.apply((1.0, 2.0, 3.0))


def apply_loop(m, x, n):
    for _ in range(n):
        x = m.apply(x)
    return x


def held_method(m, x, n):
    steps = m._steps  # the bound method, held across the compile
    for _ in range(n):
        x = steps(x, 1)
    return x


class TestOneCompilePerMapping:
    """Each way of stepping a mapping across `_COMPILE_AFTER` compiles its
    kernel once: later steps, and later runs, reuse the stored kernel."""

    @staticmethod
    def ring32():
        # the ring of 32 harmonic/quadratic pairs converges over thousands of steps
        m, _ = power_mapping((-1.0, 2.0) * 16, ring(32, 1))
        return m, tuple(1.0 + 0.25 * i for i in range(32))

    @pytest.mark.parametrize("run", [
        apply_loop,
        lambda m, x, n: m.iterate(x, n)[-1],
        lambda m, x, n: m.nth_iterate(x, n),
        held_method,
        lambda m, x, n: invariant_mean_eval(m, x),
    ], ids=["apply", "iterate", "nth_iterate", "held-method", "invariant_mean_eval"])
    def test_compiles_once(self, monkeypatch, run):
        ahead, x = self.ring32()
        vars(ahead)["_steps"] = averaging._compile_steps(ahead)
        n = 2 * averaging._COMPILE_AFTER
        want = repr(run(ahead, x, n))
        compiled = []
        compile_steps = averaging._compile_steps
        monkeypatch.setattr(
            averaging, "_compile_steps", lambda m: compiled.append(m) or compile_steps(m)
        )
        m, _ = self.ring32()
        assert repr(run(m, x, n)) == repr(run(m, x, n)) == want
        assert compiled == [m] and m._steps.__qualname__ == "ComposedMapping._steps"


class TestCustomMeans:
    """A mean the library did not build may leave the interval; iterating
    must stop with DomainError instead of carrying the point on."""

    @staticmethod
    def mapping(first=True):
        # the checked row first, whose coordinate row 2 reads later, or
        # last, where it writes its coordinate in place
        interval = iv.Interval(0.0, 5.0)
        too_high = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 1.0,
                           label="max+1")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        means = (too_high, arithmetic) if first else (arithmetic, too_high)
        return iv.ComposedMapping(means, interval, iv.IndexVector(((1, 2), (1, 2))))

    def test_iterate_raises(self):
        with pytest.raises(iv.DomainError):
            self.mapping().iterate((1.0, 4.5), 2)

    def test_invariant_mean_eval_raises(self):
        with pytest.raises(iv.DomainError):
            invariant_mean_eval(self.mapping(), (1.0, 4.5))

    def test_value_inside_the_interval_passes(self):
        # max(1, 3) + 1 = 4 stays in (0, 5)
        assert self.mapping().apply((1.0, 3.0)) == (4.0, 2.0)

    def test_message_names_the_step_that_leaves_the_interval(self):
        # (1, 3) -> (4, 2) -> max(4, 2) + 1 = 5, outside the open (0, 5)
        m = self.mapping()
        assert m.nth_iterate((1.0, 3.0), 1) == (4.0, 2.0)
        with pytest.raises(iv.DomainError) as info:
            m.nth_iterate((1.0, 3.0), 2)
        assert str(info.value) == "mean 1 ('max+1') returned 5.0 outside (0, 5)"

    def test_an_in_place_checked_row_raises_at_the_same_step(self):
        # (1, 3) -> (2, 4) -> (3, max(2, 4) + 1 = 5), outside (0, 5)
        m = self.mapping(first=False)
        assert m.nth_iterate((1.0, 3.0), 1) == (2.0, 4.0)
        for run in (lambda: m.nth_iterate((1.0, 3.0), 2), lambda: m.iterate((1.0, 3.0), 5)):
            with pytest.raises(iv.DomainError) as info:
                run()
            assert str(info.value) == "mean 2 ('max+1') returned 5.0 outside (0, 5)"

    def test_never_compiles_and_raises_at_the_oracles_step(self, monkeypatch):
        # rows 2 and 3 climb by one a step and leave (0, 1000) only after
        # _COMPILE_AFTER steps.  The mapping stays on the row functions:
        # each way of stepping it gives the floats of a per-step loop over
        # the means and names row 2 at the step where that loop leaves
        interval = iv.Interval(0.0, 1000.0)
        too_high = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 1.0,
                           label="max+1")
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        alpha = iv.IndexVector(((1, 2), (2, 1), (3, 2)))
        oracle = partial(oracle_power_mean, iv.PowerMeanSpec(1.0, 2))
        rows = ((oracle, (1, 2)), (too_high, (2, 1)), (too_high, (3, 2)))
        trace = [(1.0, 3.0, 2.0)]
        while True:
            y = tuple(float(f([trace[-1][a - 1] for a in row])) for f, row in rows)
            if not all(map(interval.contains, y)):
                break
            trace.append(y)
        n = len(trace)  # the step that leaves the interval
        assert n > averaging._COMPILE_AFTER + 1
        x, want = trace[0], [bits(y) for y in trace]
        compiled = []
        monkeypatch.setattr(averaging, "_compile_steps", compiled.append)

        def one_steps(step):
            y = x
            while True:
                y = step(y)

        # the step that raises returns 1000.0, and no other step does
        for run in (
            lambda m: m.iterate(x, n),
            lambda m: m.nth_iterate(x, n),
            lambda m: one_steps(m.apply),
            lambda m: one_steps(partial(m._steps, k=1)),  # holds the method
        ):
            m = iv.ComposedMapping((arithmetic, too_high, too_high), interval, alpha)
            assert [bits(y) for y in m.iterate(x, n - 1)] == want
            assert bits(m.nth_iterate(x, n - 1)) == want[-1]
            with pytest.raises(iv.DomainError) as info:
                run(m)
            assert str(info.value) == "mean 2 ('max+1') returned 1000.0 outside (0, 1000)"
        assert compiled == []


def power_mapping(orders, rows):
    specs = tuple(iv.PowerMeanSpec(s, len(row)) for s, row in zip(orders, rows))
    m = iv.ComposedMapping(
        tuple(iv.make_power_mean(spec) for spec in specs), iv.POSITIVE_REALS, iv.IndexVector(rows)
    )
    return m, specs


def assert_steps_match_the_oracle(m, specs, x, n):
    kernels = both_kernels(m)
    y = x
    for _ in range(n):
        y_want = oracle_apply(m, specs, y)
        for steps in kernels:
            assert bits(steps(y, 1)) == bits(y_want)
        y = y_want


# one order of each path of `_power_row`: order 0, the pow-free orders 1,
# -1 and 2, the small orders' log1p form and the power sum, of each sign
ORDER_PATHS = (0.0, 1.0, -1.0, 2.0, 5e-3, -5e-3, 0.5, -3.0)
DBL_MAX = 1.7976931348623157e308
DBL_TRUE_MIN = 5e-324


def n_ary_points(d):
    """Points of d arguments at the ends of the floats, and whose products
    lie near 2^+-1022, on both sides of order 0's range test."""
    below = math.nextafter(DBL_MAX, 0.0)
    points = [
        (DBL_MAX,) * d,
        (DBL_MAX,) * (d - 1) + (below,),
        (below,) * (d - 1) + (DBL_MAX,),
        (DBL_TRUE_MIN,) * d,
        (DBL_TRUE_MIN,) * (d - 1) + (2 * DBL_TRUE_MIN,),
        (DBL_TRUE_MIN,) + (DBL_MAX,) * (d - 1),
        (DBL_TRUE_MIN, 1.0) + (DBL_MAX,) * (d - 2),
    ]
    for sign in (1, -1):
        for e in (1019.0, 1020.0, 1021.0, 1022.0):
            c = 2.0 ** (sign * e / d)
            points.append((c,) * (d - 1) + (math.nextafter(c, math.inf),))
            points.append((2.0 * c, 0.5 * c) + (c,) * (d - 2))
    return points


# one order of each kind the generator emits: power sum, order 0, the small
# order's log1p form, a negative order
ROW_ORDERS = (2.0, 0.0, 5e-3, -1.0)
ROW_POINTS = ((1.0, 3.0, 1e-200), (1.0005, 0.9995, 1.0), (1e300, 1e299, 2.0), (7.0, 7.0, 7.0))


class TestRowShapes:
    """Each row shape the generator emits, stepped against the oracle."""

    @pytest.mark.parametrize("s", ROW_ORDERS)
    @pytest.mark.parametrize("x", ROW_POINTS)
    def test_self_loop_row(self, s, x):
        # row (1, 1) reads one local twice; the others read mixed pairs
        m, specs = power_mapping((s, s, s), ((1, 1), (1, 2), (3, 3)))
        assert_steps_match_the_oracle(m, specs, x, 4)

    @pytest.mark.parametrize("s", ROW_ORDERS)
    @pytest.mark.parametrize("x", ROW_POINTS)
    def test_one_argument_row(self, s, x):
        m, specs = power_mapping((s, s, s), ((2,), (1, 3), (3,)))
        assert_steps_match_the_oracle(m, specs, x, 4)

    @pytest.mark.parametrize("s", ROW_ORDERS)
    @pytest.mark.parametrize("x", ROW_POINTS)
    def test_three_argument_row(self, s, x):
        m, specs = power_mapping((s, s, s), ((1, 2, 3), (3, 1, 2), (2, 2, 3)))
        assert_steps_match_the_oracle(m, specs, x, 4)

    @pytest.mark.parametrize("s", ORDER_PATHS)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_n_ary_row_at_the_ends_of_the_floats(self, s, d):
        # row 1 reads all d coordinates, the others one each
        rows = (tuple(range(1, d + 1)),) + tuple((j,) for j in range(2, d + 1))
        m, specs = power_mapping((s,) * d, rows)
        for x in n_ary_points(d):
            assert_steps_match_the_oracle(m, specs, x, 2)
            want = oracle_power_mean(specs[0], x).hex()
            assert iv.power_mean_eval(specs[0], x).hex() == want

    @pytest.mark.parametrize("s", ROW_ORDERS)
    @pytest.mark.parametrize("rows", [((1,),), ((1, 1),), ((1, 1, 1),)])
    def test_p_1(self, s, rows):
        m, specs = power_mapping((s,), rows)
        for t in (1e-300, 1.0, 3.5, 1e300):
            assert_steps_match_the_oracle(m, specs, (t,), 2)
            assert m.nth_iterate((t,), 3) == (t,)

    @pytest.mark.parametrize("s", (1e-310, -1e-310))
    def test_subnormal_order(self, s):
        # 1/s is infinite, but a small order divides by s and never by 1/s
        m, specs = power_mapping((s, s), ((1, 2), (2, 1)))
        assert_steps_match_the_oracle(m, specs, (1e-300, 1e300), 3)

    def test_ring_1024_against_the_oracle(self):
        # p = 1024 compiles as one function of 1024 rows; the orders cycle
        # through every kind, the start point through extreme magnitudes
        p = 1024
        orders = [(-3.0, -1.0, 0.0, 5e-3, -9e-3, 0.5, 1.0, 2.0, 7.0)[i % 9] for i in range(p)]
        m, specs = power_mapping(orders, [(i + 1, (i + 1) % p + 1) for i in range(p)])
        rng = Random(1024)
        x = tuple(rng.uniform(1.0, 9.99) * 10.0 ** rng.randint(-300, 300) for _ in range(p))
        assert_steps_match_the_oracle(m, specs, x, 6)
        kernel = averaging._compile_steps(m)
        assert kernel.__code__.co_filename == "<invmean ComposedMapping._steps p=1024>"

    def test_random_rows_across_chunks(self):
        # rows that read arguments far from their own index, arities 1-3
        p = 200
        rng = Random(200)
        rows = [tuple(rng.randint(1, p) for _ in range(rng.randint(1, 3))) for _ in range(p)]
        orders = [rng.choice((-1.0, 0.0, 5e-3, 1.0, 2.0)) for _ in range(p)]
        m, specs = power_mapping(orders, rows)
        x = tuple(rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-5, 5) for _ in range(p))
        assert_steps_match_the_oracle(m, specs, x, 6)


@pytest.mark.parametrize("s", ORDER_PATHS)
def test_two_argument_row_works_on_its_arguments(s):
    # one branch whose arms compute on the arguments themselves, with no
    # bracket stored, halve by a float product, and set the output once
    row = means._power_row(s, ["x0", "x1"], "y0")
    assert not {"u", "w"} & set(means._power_function(s, 2).__code__.co_varnames)
    assert not any("/ 2" in line for line in row)
    (branch,) = ast.parse("\n".join(row)).body
    assert isinstance(branch, ast.If) and ast.unparse(branch.test) == "x0 < x1"
    for arm in (branch.body, branch.orelse):
        stores = [
            node for line in arm for node in ast.walk(line)
            if isinstance(node, ast.Name) and node.id == "y0" and isinstance(node.ctx, ast.Store)
        ]
        assert len(stores) == 1


def kernel_source(monkeypatch, m):
    """The source that `m`'s compiled kernel compiles from."""
    sources = []
    compile_source = averaging._compile

    def recorded(source, *args):
        sources.append(source)
        return compile_source(source, *args)

    monkeypatch.setattr(averaging, "_compile", recorded)
    averaging._compile_steps(m)
    (source,) = sources
    return source


def ring(p, step):
    # row i reads i and i + step (mod p), 1-based
    return [(i + 1, (i + step) % p + 1) for i in range(p)]


class TestStores:
    """The rows run in index order.  A row writes its coordinate in place
    when no later row reads it; every other row's value is handed back
    after the last row."""

    @pytest.mark.parametrize("rows", [
        ring(8, 1),                                   # one hand-back, x0 = y0
        ring(8, -1),                                  # seven hand-backs, x0 = y0 to x6 = y6
        ring(5, 2),
        [(2, 3), (3, 1, 2), (4,), (5, 1), (1, 2, 3)],  # each row reads a later row's coordinate
        [(1, 1), (2,), (3, 3, 3), (1, 2, 3)],          # self-loops; the last row reads the rest
        [(1,)],
    ])
    def test_hands_back_exactly_what_a_later_row_reads(self, monkeypatch, rows):
        orders = [ORDER_PATHS[i % len(ORDER_PATHS)] for i in range(len(rows))]
        m, specs = power_mapping(orders, rows)
        source = kernel_source(monkeypatch, m)
        read_later = [
            i for i in range(len(rows)) if any(i + 1 in row for row in rows[i + 1:])
        ]
        handed = re.findall(r"^        x(\d+) = y\1$", source, re.MULTILINE)
        assert [int(i) for i in handed] == read_later
        assert set(re.findall(r"\by(\d+)\b", source)) == set(handed)
        rng = Random(len(rows))
        x = tuple(rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-200, 200) for _ in rows)
        assert_steps_match_the_oracle(m, specs, x, 12)
        y = x
        for k in range(1, 13):
            y = oracle_apply(m, specs, y)
            for steps in both_kernels(m):
                assert bits(steps(x, k)) == bits(y)

    def test_ring_with_loops_hands_back_one_coordinate(self, monkeypatch):
        m, _ = power_mapping((1.0,) * 32, ring(32, 1))
        source = kernel_source(monkeypatch, m)
        assert re.findall(r"^        x\d+ = y\d+$", source, re.MULTILINE) == ["        x0 = y0"]
