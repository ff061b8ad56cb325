"""The compiled kernel of a composed mapping against the frozen reference.

`ComposedMapping._steps` is one k-step kernel generated from source on
the first step: it evaluates every row straight line, k times over, with
the inline arithmetic of `means._power_row` for every library power mean,
of any arity, and no argument checks; no row calls `means._power_mean`.
These tests hold it, `apply`, `iterate` and `invariant_mean_eval` to the
results of a per-coordinate loop over the frozen copy of
`power_mean_eval` in `power_mean_oracle.py`, bit for bit: on random
mappings at extreme magnitudes, on each branch of the two-argument forms
in both argument orders, on rows of three to five arguments at the ends
of the floats, on every row shape the generator emits (self-loop, one
argument, three arguments, p = 1, p = 1024), and on a mean the library
did not build.  Where a test patches `means._power_mean` to raise, a row
that called it would fail.
"""

import math
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


class TestBitIdentity:
    @given(case=mapping_and_point())
    @settings(max_examples=400, deadline=None)
    def test_step_and_apply_match_the_oracle(self, case):
        m, specs, x = case
        want = bits(oracle_apply(m, specs, x))
        assert bits(m._steps(x, 1)) == want
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

    @given(case=mapping_and_point())
    @settings(max_examples=200, deadline=None)
    def test_no_row_calls_the_general_power_mean(self, case):
        # rows of arity 1-5 at magnitudes 10^+-300, compiled and stepped
        # with `means._power_mean` patched to raise
        m, specs, x = case
        y = x
        for _ in range(3):
            y = oracle_apply(m, specs, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(means, "_power_mean", no_handover)
            assert bits(m.nth_iterate(x, 3)) == bits(y)

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


def no_handover(*args):
    # patched over `means._power_mean`: no compiled row may call it
    raise AssertionError(f"a compiled row called means._power_mean{args}")


def two_row_step(s):
    # rows (1, 2) and (2, 1) of one order: both argument orders in one step
    mean = iv.make_power_mean(iv.PowerMeanSpec(s, 2))
    return iv.ComposedMapping(
        (mean, mean), iv.POSITIVE_REALS, iv.IndexVector(((1, 2), (2, 1)))
    )._steps


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
def test_power_sum_row_is_one_pivoted_expression(monkeypatch, s, x):
    # points where the unpivoted sum t**s would leave the normal floats:
    # the pivoted row (the pow-free form at orders -1 and 2) computes them
    # itself, with no try, range test or handover, after a branch that
    # orders the arguments, and clamps on one side only
    row = means._power_row(s, ["x0", "x1"], "y0")
    assert row[:2] == ["if x0 < x1: u = x0; w = x1", "else: u = x1; w = x0"]
    assert not any(word in line for line in row for word in ("try", "means.", " <= "))
    assert row[-1] == ("y0 = u if v < u else v" if s > 0 else "y0 = w if v > w else v")
    assert not any("y0" in line for line in row[:-1])
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    step = two_row_step(s)
    monkeypatch.setattr(means, "_power_mean", no_handover)
    assert bits(step(x, 1)) == (want, want)


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
def test_order_0_and_small_order_closed_forms(monkeypatch, s, x, branch):
    # every branch is inline: the root inside 2^+-509, the mantissas and
    # exponents multiplied apart (split) outside it, and the log1p form
    want = oracle_power_mean(iv.PowerMeanSpec(s, 2), x).hex()
    step = two_row_step(s)
    monkeypatch.setattr(means, "_power_mean", no_handover)
    assert bits(step(x, 1)) == (want, want)


class TestPlan:
    def test_built_on_the_first_step_not_at_construction(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(
            averaging, "compile", lambda *a: compiled.append(a[1]) or compile(*a), raising=False
        )
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        assert "_steps" not in vars(m) and compiled == []
        m.apply((1.0, 2.0, 3.0, 4.0))
        steps = vars(m)["_steps"]
        assert steps.__qualname__ == "ComposedMapping._steps"
        assert steps.__code__.co_filename == "<invmean ComposedMapping._steps p=4>"
        m.nth_iterate((1.0, 2.0, 3.0, 4.0), 5)
        assert m._steps is steps
        assert compiled == ["<invmean ComposedMapping._steps p=4>"]

    def test_no_step_taken_compiles_nothing(self):
        m = iv.load_mapping_spec(iv.fixture_path("example2.json")).build()
        x = (1.0, 2.0, 3.0, 4.0)
        assert m.iterate(x, 0) == (x,)
        assert "_steps" not in vars(m)
        assert m.nth_iterate(x, 0) == x
        assert "_steps" not in vars(m)
        report = iv.invariant_mean_eval(m, (2.5,) * 4)  # a constant start is converged
        assert report.iterations_used == 0 and report.value == 2.5
        assert "_steps" not in vars(m)
        assert m.nth_iterate(x, 1) == m.iterate(x, 1)[1]
        assert "_steps" in vars(m)

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

    def test_kernel_names_no_general_power_mean(self, monkeypatch):
        # rows of arity 1-5, self-loops included, on every order path
        sources = []
        monkeypatch.setattr(
            averaging, "compile", lambda *a: sources.append(a[0]) or compile(*a), raising=False
        )
        rows = ((1,), (1, 2), (2, 3, 1), (1, 2, 3, 4), (4, 4, 1, 3, 5), (6, 6))
        for s in ORDER_PATHS:
            m, _ = power_mapping((s,) * len(rows), rows)
            steps = m._steps
            assert "means" not in steps.__globals__
            assert "_power_mean" not in steps.__code__.co_names
        assert len(sources) == len(ORDER_PATHS)
        for source in sources:
            assert "means." not in source and "try" not in source

    def test_power_evaluator_of_another_arity_keeps_its_checks(self):
        # a Mean of arity 3 around a 2-argument power mean is not compiled:
        # power_mean_eval raises its ShapeError at the step
        evaluator = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2)).evaluator
        mean = iv.Mean(arity=3, domain=iv.POSITIVE_REALS, evaluator=evaluator)
        m = iv.ComposedMapping((mean,) * 3, iv.POSITIVE_REALS,
                               iv.IndexVector(((1, 2, 3),) * 3))
        with pytest.raises(iv.ShapeError, match="arity 2 got 3 arguments"):
            m.apply((1.0, 2.0, 3.0))


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

    def test_message_names_the_step_that_leaves_the_interval(self):
        # (1, 3) -> (4, 2) -> max(4, 2) + 1 = 5, outside the open (0, 5)
        m = self.mapping()
        assert m.nth_iterate((1.0, 3.0), 1) == (4.0, 2.0)
        with pytest.raises(iv.DomainError) as info:
            m.nth_iterate((1.0, 3.0), 2)
        assert str(info.value) == "mean 1 ('max+1') returned 5.0 outside (0, 5)"


def power_mapping(orders, rows):
    specs = tuple(iv.PowerMeanSpec(s, len(row)) for s, row in zip(orders, rows))
    m = iv.ComposedMapping(
        tuple(iv.make_power_mean(spec) for spec in specs), iv.POSITIVE_REALS, iv.IndexVector(rows)
    )
    return m, specs


def assert_steps_match_the_oracle(m, specs, x, n):
    y = x
    for _ in range(n):
        y_want = oracle_apply(m, specs, y)
        assert bits(m._steps(y, 1)) == bits(y_want)
        y = y_want


# one order of each path of `_power_mean`: order 0, the pow-free orders 1,
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
    def test_n_ary_row_at_the_ends_of_the_floats(self, monkeypatch, s, d):
        # row 1 reads all d coordinates, the others one each
        rows = (tuple(range(1, d + 1)),) + tuple((j,) for j in range(2, d + 1))
        m, specs = power_mapping((s,) * d, rows)
        monkeypatch.setattr(means, "_power_mean", no_handover)
        for x in n_ary_points(d):
            assert_steps_match_the_oracle(m, specs, x, 2)

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
        assert m._steps.__code__.co_filename == "<invmean ComposedMapping._steps p=1024>"

    def test_random_rows_across_chunks(self):
        # rows that read arguments far from their own index, arities 1-3
        p = 200
        rng = Random(200)
        rows = [tuple(rng.randint(1, p) for _ in range(rng.randint(1, 3))) for _ in range(p)]
        orders = [rng.choice((-1.0, 0.0, 5e-3, 1.0, 2.0)) for _ in range(p)]
        m, specs = power_mapping(orders, rows)
        x = tuple(rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-5, 5) for _ in range(p))
        assert_steps_match_the_oracle(m, specs, x, 6)
