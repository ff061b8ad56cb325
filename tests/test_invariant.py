"""Convergence to the invariant mean, cyclic-class limits, verification."""

import math
import re
from random import Random

import mpmath
import numpy as np
import pytest

import invmean as iv
from census import (
    digraph_from_mask,
    incidence_graph_masks,
    one_aperiodic_initial_class,
)
from invariant_equation_oracle import solve_invariant_equation
from invmean import (
    check_bracket_dichotomy,
    check_oscillation_monotonicity,
    invariant_mean_eval,
    verify_invariance,
    verify_mean_properties,
)


def mp_invariant_mean(orders, rows, x0, digits=50):
    """K(x0) by iterating the same mapping in `digits`-digit arithmetic
    until the oscillation is below 10^-(digits-10) relative."""
    with mpmath.workdps(digits):
        x = [mpmath.mpf(t) for t in x0]
        eps = mpmath.mpf(10) ** (10 - digits)
        while max(x) - min(x) > eps * max(x):
            nxt = []
            for s, row in zip(orders, rows):
                args = [x[a - 1] for a in row]
                if s == 0:
                    nxt.append(mpmath.root(mpmath.fprod(args), len(args)))
                else:
                    s = mpmath.mpf(s)
                    nxt.append((mpmath.fsum(t ** s for t in args) / len(args)) ** (1 / s))
            x = nxt
        return x[0]


def power_mapping(orders, rows):
    means = tuple(iv.make_power_mean(iv.PowerMeanSpec(s, len(r))) for s, r in zip(orders, rows))
    return iv.ComposedMapping(means, iv.POSITIVE_REALS, iv.IndexVector(rows))


def first_argument_mapping(rows):
    """Every row returns its first argument: a mean, but not a strict one."""
    first = iv.Mean(arity=2, domain=iv.POSITIVE_REALS, evaluator=lambda xs: xs[0],
                    label="first")
    return iv.ComposedMapping((first,) * len(rows), iv.POSITIVE_REALS, iv.IndexVector(rows))


class TestInvariantMeanEval:
    def test_enclosure_through_subnormal_geometric_product(self):
        # the order-0 row multiplies (1e-160, 1e-160, 1e100), whose partial
        # product is subnormal; the enclosure used to miss by 100 radii
        orders = (0.0, 2.0, 5.0, 1.0)
        rows = ((1, 2, 3), (2, 3), (3, 4), (4, 1))
        m = power_mapping(orders, rows)
        x0 = (1e-160, 1e-160, 1e100, 1e299)
        report = invariant_mean_eval(m, x0)
        assert report.converged
        want = mp_invariant_mean(orders, rows, x0)
        assert abs(mpmath.mpf(report.value) - want) <= report.error_radius

    def test_constant_start_needs_no_iterations(self, ex2):
        report = invariant_mean_eval(ex2, (3.0, 3.0, 3.0, 3.0))
        assert report.converged
        assert report.iterations_used == 0
        assert report.value == 3.0  # diagonal idempotence, exact
        assert report.error_radius == 0.0

    def test_one_way_feed_limit_is_sqrt_xy(self, ex5):
        report = invariant_mean_eval(ex5, (1.0, 4.0, 9.0, 16.0))
        assert report.converged
        assert report.value == pytest.approx(2.0, abs=1e-9)
        # the limit ignores the last two coordinates entirely
        other = invariant_mean_eval(ex5, (1.0, 4.0, 0.37, 55.0))
        assert other.value == pytest.approx(report.value, abs=1e-9)

    def test_value_agrees_from_x_and_from_mx(self, ex2, rng):
        for _ in range(20):
            x = tuple(rng.uniform(0.3, 8.0) for _ in range(4))
            r1 = invariant_mean_eval(ex2, x)
            r2 = invariant_mean_eval(ex2, ex2.apply(x))
            assert r1.converged and r2.converged
            assert r1.value == pytest.approx(r2.value, abs=1e-10)

    def test_value_within_start_bracket(self, ex2, rng):
        for _ in range(50):
            x = tuple(rng.uniform(0.1, 10.0) for _ in range(4))
            report = invariant_mean_eval(ex2, x)
            assert min(x) <= report.value <= max(x)

    def test_bracket_traps_the_limit(self, ex2):
        x = (1.0, 2.0, 3.0, 4.0)
        limit = invariant_mean_eval(ex2, x).value
        trace = ex2.iterate(x, 30)
        for point in trace:
            assert min(point) <= limit <= max(point)

    def test_periodic_structure_reports_nonconvergence(self, ex6):
        report = invariant_mean_eval(ex6, (1.0, 4.0, 9.0, 16.0))
        assert not report.converged
        assert report.value is None
        # the two cyclic classes stay 10 apart, each bracket closed
        assert max(report.final_iterate) - min(report.final_iterate) > 9.0
        assert report.error_radius <= 1e-12 * 16.0
        assert report.iterations_used < 10

    def test_disconnected_structure_reports_nonconvergence(self, ex3):
        report = invariant_mean_eval(ex3, (1.0, 4.0, 9.0, 16.0))
        assert not report.converged
        assert report.value is None

    def test_error_radius_respects_tolerance(self, ex2):
        x = (1.0, 2.0, 3.0, 4.0)
        report = invariant_mean_eval(ex2, x, tol=1e-10)
        assert report.converged
        assert report.error_radius <= 1e-10 * max(1.0, max(x))

    def test_parameter_validation(self, ex2):
        with pytest.raises(iv.ValidationError):
            invariant_mean_eval(ex2, (1.0,) * 4, tol=0.0)
        with pytest.raises(iv.ValidationError):
            invariant_mean_eval(ex2, (1.0,) * 4, max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, True, "3", None])
    def test_max_iter_must_be_an_int_not_a_bool(self, ex2, max_iter):
        # 2.5 used to run 3 iterations, True 1
        with pytest.raises(iv.ValidationError, match="max_iter must be an integer >= 1"):
            invariant_mean_eval(ex2, (1.0, 2.0, 3.0, 4.0), max_iter=max_iter)


BAD_TOLS = (0.0, -1.0, math.nan, math.inf, -math.inf, True, "1e-9", None)


class TestTolValidation:
    """Every function that takes tol rejects a tol that is not a finite
    positive number: a NaN threshold passes every residual comparison or
    none, and a nonpositive or infinite one decides nothing.  True used to
    read as a tol of 1 and "1e-9" to raise TypeError."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_every_entry_point_rejects(self, ex2, ex6, tol):
        message = "^tol must be finite and > 0, got " if isinstance(tol, float) else (
            "^tol must be a number, got ")
        x = (1.0, 2.0, 3.0, 4.0)
        calls = (
            lambda: invariant_mean_eval(ex2, x, tol=tol),
            lambda: invariant_mean_eval(ex6, x, tol=tol),
            lambda: verify_invariance(ex2, tol=tol, rng=Random(0), n_samples=3),
            lambda: solve_invariant_equation(max, ex2, tol=tol, rng=Random(0), n_samples=3),
        )
        for call in calls:
            with pytest.raises(iv.ValidationError, match=message):
                call()

    def test_checked_before_any_sample(self, ex3):
        # ex3 skips every invariance sample, and p = 1 draws none: tol is
        # still checked
        with pytest.raises(iv.ValidationError, match="tol must be"):
            verify_invariance(ex3, tol=math.nan, rng=Random(0), n_samples=3)
        m = power_mapping((1.0,), ((1, 1),))
        with pytest.raises(iv.ValidationError, match="tol must be"):
            verify_invariance(m, tol=-1.0, n_samples=3)

    def test_default_tol_of_a_property_is_unchanged(self, ex2):
        report = verify_mean_properties(ex2, "homogeneous", rng=Random(0), n_samples=5)
        assert report.passed and report.n_evaluated == 15

    @pytest.mark.parametrize("tol, stop_reason, iterations", [
        (5e-324, "max_iter", 5),    # the smallest positive float
        (0.1, "converged", 5),
        (1e300, "converged", 0),
    ])
    def test_finite_positive_tol_accepted(self, ex2, tol, stop_reason, iterations):
        report = invariant_mean_eval(ex2, (1.0, 2.0, 3.0, 4.0), tol=tol, max_iter=5)
        assert (report.stop_reason, report.iterations_used) == (stop_reason, iterations)


def one_mean_spec(arity):
    """A spec of one arithmetic mean of the given arity, on a self-loop."""
    return iv.mapping_spec_from_dict({
        "p": 1,
        "interval": {"lower": 0, "upper": None},
        "means": [{"kind": "arithmetic", "arity": arity}],
        "alpha": [[1]],
    })


COUNTED = {
    "check_mean_property": lambda m, n: iv.check_mean_property(m.means[0], Random(0), n),
    "validate_mean": lambda m, n: iv.validate_mean(m.means[0], n_samples=n),
    "verify_invariance": lambda m, n: verify_invariance(m, n_samples=n),
    "verify_mean_properties": lambda m, n: verify_mean_properties(m, "strict", n_samples=n),
    "check_oscillation_monotonicity": lambda m, n: check_oscillation_monotonicity(
        m, n_samples=n),
    "check_bracket_dichotomy": lambda m, n: check_bracket_dichotomy(m, n_samples=n),
    "solve_invariant_equation": lambda m, n: solve_invariant_equation(max, m, n_samples=n),
    "Mean": lambda m, n: iv.Mean(n, iv.POSITIVE_REALS, max),
    "PowerMeanSpec": lambda m, n: iv.PowerMeanSpec(1.0, n),
    "Digraph": lambda m, n: iv.Digraph.from_edges(n, frozenset()),
    "spec_mean": lambda m, n: one_mean_spec(n),
}
#: what the error names, where it is not n_samples; the spec loader's
#: SpecError keeps the location of the mean
COUNTED_NAMES = {
    "Mean": "mean arity",
    "PowerMeanSpec": "power-mean arity",
    "Digraph": "n_vertices",
    "spec_mean": r"means\[1\]: power-mean arity",
}


class TestCountValidation:
    """A number of samples, an arity or a number of vertices is an int >= 1,
    never a bool: 2.5 used to be counted up to in whole samples, True to
    read as 1 and -3 as none (ValidationError, as for max_iter), and every
    count error reads alike."""

    @pytest.mark.parametrize("count", [2.5, True, False, -3, 0, "3"])
    @pytest.mark.parametrize("name", COUNTED)
    def test_rejected(self, ex2, name, count):
        what = COUNTED_NAMES.get(name, "n_samples")
        with pytest.raises(iv.ValidationError, match=f"^{what} must be an integer >= 1, got "):
            COUNTED[name](ex2, count)

    @pytest.mark.parametrize("name", COUNTED)
    def test_one_is_accepted(self, ex2, name):
        COUNTED[name](ex2, 1)


class TestLimitMappingEval:
    """The limit (K(x), ..., K(x)) of the iterates, read off the report."""

    def test_constant_vector_returned(self, ex5):
        report = invariant_mean_eval(ex5, (1.0, 4.0, 9.0, 16.0))
        assert report.converged
        assert all(abs(t - report.value) <= report.error_radius for t in report.final_iterate)
        assert report.value == pytest.approx(2.0, abs=1e-9)

    def test_constant_input(self, ex2):
        report = invariant_mean_eval(ex2, (2.5,) * 4)
        assert report.converged and report.value == 2.5

    def test_nonconvergence_raises(self, ex6):
        report = invariant_mean_eval(ex6, (1.0, 4.0, 9.0, 16.0))
        assert not report.converged and report.value is None

    def test_stall_window_is_polynomial_in_p(self):
        # the p=8 ring with loops where every row returns its first
        # argument (not strict): M is the identity, so the bracket never
        # closes; a 3^p window (6561 at p=8) would run far longer before
        # it could see the stall
        m = first_argument_mapping(tuple((i, i % 8 + 1) for i in range(1, 9)))
        report = invariant_mean_eval(m, tuple(float(i) for i in range(1, 9)))
        assert not report.converged
        assert report.iterations_used < 3 ** 8
        assert report.stop_reason == "stalled"


class TestStopReason:
    def test_converged(self, ex2):
        report = invariant_mean_eval(ex2, (1.0, 2.0, 3.0, 4.0))
        assert report.converged and report.stop_reason == "converged"
        assert report.to_json_dict()["stop_reason"] == "converged"

    def test_iteration_cap(self, ex2):
        report = invariant_mean_eval(ex2, (1.0, 2.0, 3.0, 4.0), max_iter=3)
        assert not report.converged
        assert report.iterations_used == 3
        assert report.stop_reason == "max_iter"
        assert report.to_json_dict()["stop_reason"] == "max_iter"

    def test_periodic_structure_stalls(self):
        # the shuttle graph of example6, every row returning its first
        # argument: M swaps the classes {1, 2} and {3, 4} and never shrinks
        # either bracket, so the stall window ends the run
        m = first_argument_mapping(((3, 4), (4, 3), (1, 2), (2, 1)))
        report = invariant_mean_eval(m, (1.0, 4.0, 9.0, 16.0))
        assert report.stop_reason == "stalled"
        assert report.iterations_used == 200
        assert [vertices for vertices, _, _ in report.classes] == [(1, 2), (3, 4)]

    def test_periodic_structure_closes_its_classes(self, ex6):
        report = invariant_mean_eval(ex6, (1.0, 4.0, 9.0, 16.0))
        assert report.stop_reason == "classes-converged"
        assert report.to_json_dict()["stop_reason"] == "classes-converged"


def class_values(report):
    return {vertices: value for vertices, value, _ in report.classes}


class TestSubsequenceLimits:
    """The limits of the iterate subsequences n = r (mod d), read off the
    cyclic classes of the initial classes: each class closes to one value,
    and the values move one class per step."""

    def test_ergodic_all_residues_agree(self, ex2):
        report = invariant_mean_eval(ex2, (1.0, 2.0, 3.0, 4.0))
        assert report.converged and report.classes == ()
        assert "classes" not in report.to_json_dict()
        for t in report.final_iterate:
            assert abs(t - report.value) <= report.error_radius

    def test_periodic_two_cluster_points(self, ex6):
        report = invariant_mean_eval(ex6, (1.0, 4.0, 9.0, 16.0))
        assert [vertices for vertices, _, _ in report.classes] == [(1, 2), (3, 4)]
        want = (2.0, 12.0) if report.iterations_used % 2 == 0 else (12.0, 2.0)
        assert tuple(class_values(report).values()) == pytest.approx(want, abs=1e-9)
        for vertices, value, radius in report.classes:
            assert radius <= report.error_radius
            for v in vertices:  # the radius reaches the farther end of the class
                assert abs(report.final_iterate[v - 1] - value) <= radius
        # class {1, 2} holds two adjacent floats and its midpoint rounds onto
        # the upper one
        assert min(report.final_iterate[:2]) == math.nextafter(12.0, 0.0)

    def test_periodic_cyclic_consistency(self, ex6):
        # one more step carries the limit of each class to the next class
        x = (1.0, 4.0, 9.0, 16.0)
        now = invariant_mean_eval(ex6, x)
        later = invariant_mean_eval(ex6, x, max_iter=now.iterations_used + 1, tol=1e-300)
        assert later.iterations_used == now.iterations_used + 1
        a, b = class_values(now).values()
        assert tuple(class_values(later).values()) == pytest.approx((b, a), abs=1e-12)
        limit = (a, a, b, b)
        assert ex6.apply(limit) == pytest.approx((b, b, a, a), abs=1e-10)

    def test_periodic_full_sequence_flagged(self, ex6):
        report = invariant_mean_eval(ex6, (1.0, 4.0, 9.0, 16.0))
        assert not report.converged and report.value is None

    def test_disconnected_componentwise_limits(self, ex3):
        x, y, z, t = 1.0, 4.0, 9.0, 16.0
        report = invariant_mean_eval(ex3, (x, y, z, t))
        assert report.stop_reason == "classes-converged"
        assert class_values(report) == pytest.approx(
            {(1, 2): math.sqrt(x * y), (3, 4): math.sqrt(z * t)}, abs=1e-9
        )

    @pytest.mark.parametrize("name", ["ex3", "ex6"])
    def test_harmonic_arithmetic_classes_close_at_geometric_means(self, request, name, rng):
        # H(a, b) * A(a, b) = ab, so each harmonic/arithmetic pair keeps its
        # product and closes at sqrt(ab); on example6 the pairs swap classes
        m = request.getfixturevalue(name)
        for _ in range(20):
            x = tuple(rng.uniform(0.1, 10.0) for _ in range(4))
            report = invariant_mean_eval(m, x)
            low, high = math.sqrt(x[0] * x[1]), math.sqrt(x[2] * x[3])
            if name == "ex6" and report.iterations_used % 2:
                low, high = high, low
            assert class_values(report) == pytest.approx({(1, 2): low, (3, 4): high}, abs=1e-9)

    def test_every_three_vertex_incidence_graph(self):
        # arithmetic means, so M is the averaging matrix A: the run closes
        # its classes exactly when K is not unique, and each class value lies
        # within its radius of the class's coordinates of A^n x
        x = np.array([1.0, 4.0, 9.0])
        for mask in incidence_graph_masks(3):
            g = digraph_from_mask(3, mask)
            rows = [sorted(a for a, b in g.edges if b == w) for w in range(1, 4)]
            m = power_mapping((1.0,) * 3, rows)
            report = invariant_mean_eval(m, tuple(x))
            has_k = one_aperiodic_initial_class(g.in_masks)
            assert report.stop_reason == ("converged" if has_k else "classes-converged"), mask
            a = np.zeros((3, 3))
            for w, row in enumerate(rows):
                a[w, [v - 1 for v in row]] = 1.0 / len(row)
            y = x
            for _ in range(report.iterations_used):
                y = a @ y
            brackets = report.classes or (((1, 2, 3), report.value, report.error_radius),)
            for vertices, value, radius in brackets:
                for v in vertices:
                    assert abs(y[v - 1] - value) <= radius + 1e-12 * value, (mask, v)


class TestVerifyInvariance:
    def test_certified_mapping_clean(self, ex2):
        report = verify_invariance(ex2, tol=1e-9, rng=Random(11), n_samples=100)
        assert report.passed
        assert report.n_evaluated == 100
        assert report.max_residual <= 1e-9

    def test_violation_below_the_iterations_own_tol(self, ex2):
        # both sides converge to DEFAULT_TOL, so a tol of 1e-300 sees the
        # difference of the two runs' midpoints as a violation
        report = verify_invariance(ex2, tol=1e-300, rng=Random(11), n_samples=20)
        assert report.violations and report.n_evaluated == 20
        for w in report.violations:
            assert re.fullmatch(r"\|K\(M\(x\)\) - K\(x\)\| = \S+ exceeds 1e-300\*scale", w.message)
        assert report.max_residual > 0.0

    def test_one_way_feed_still_invariant(self, ex5):
        report = verify_invariance(ex5, tol=1e-9, rng=Random(11), n_samples=50)
        assert report.passed
        assert report.n_evaluated == 50

    def test_disconnected_all_skipped(self, ex3):
        report = verify_invariance(ex3, tol=1e-9, rng=Random(11), n_samples=10)
        assert report.n_evaluated == 0
        assert report.n_skipped == 10

    def test_residual_bounded_by_both_radii(self, ex2, rng):
        # both runs bracket the same limit, so their midpoints can differ
        # by at most the two radii combined
        for _ in range(25):
            x = tuple(rng.uniform(0.1, 10.0) for _ in range(4))
            r1 = invariant_mean_eval(ex2, x)
            r2 = invariant_mean_eval(ex2, ex2.apply(x))
            residual = abs(r1.value - r2.value)
            assert residual <= 2.0 * (r1.error_radius + r2.error_radius) + 1e-15


def shared_mean_mapping(evaluator, label, domain=iv.POSITIVE_REALS):
    """Both coordinates read one two-argument mean that declares nothing, so
    K is that mean of the start point."""
    mean = iv.Mean(arity=2, domain=domain, evaluator=evaluator, label=label)
    return iv.ComposedMapping((mean, mean), domain, iv.IndexVector(((1, 2), (1, 2))))


class TestVerifyMeanProperties:
    def test_strict_clean_on_certified(self, ex2):
        report = verify_mean_properties(ex2, "strict", rng=Random(5), n_samples=100)
        assert report.passed

    def test_monotone_clean_on_certified(self, ex2):
        report = verify_mean_properties(ex2, "monotone", rng=Random(5), n_samples=80)
        assert report.passed

    def test_monotone_samples_a_narrow_interval(self):
        # the bump is a share of the sample box, so no sample on (1, 1.05)
        # is dropped for leaving the interval
        means = tuple(iv.make_power_mean(iv.PowerMeanSpec(s, 2), iv.Interval(1.0, 1.05))
                      for s in (-1.0, 1.0))
        m = iv.ComposedMapping(means, iv.Interval(1.0, 1.05), iv.IndexVector(((1, 2), (2, 1))))
        report = verify_mean_properties(m, "monotone", rng=Random(0), n_samples=20)
        assert report.passed
        assert (report.n_samples, report.n_evaluated) == (20, 20)

    def test_homogeneous_clean_on_certified(self, ex2):
        report = verify_mean_properties(ex2, "homogeneous", rng=Random(5), n_samples=60)
        assert report.passed
        assert report.max_residual <= 1e-10  # relative residual

    def test_monotone_falsified(self):
        # strict, but its weight on max(x) drops from 0.9 to 0.1 once the
        # spread reaches 0.5: raising the larger coordinate across it lowers K
        def jump(xs):
            lo, hi = min(xs), max(xs)
            return lo + (0.9 if hi - lo < 0.5 else 0.1) * (hi - lo)

        m = shared_mean_mapping(jump, "jump")
        report = verify_mean_properties(m, "monotone", rng=Random(5), n_samples=100)
        assert not report.passed
        for w in report.violations:
            assert re.fullmatch(r"K decreased by \S+ after \+0\.1 on coordinate [12]", w.message)
            k = int(w.message[-1]) - 1
            raised = w.point[:k] + (w.point[k] + 0.1,) + w.point[k + 1:]
            assert jump(raised) < jump(w.point)

    def test_homogeneous_falsified(self):
        # log((e^a + e^b) / 2): strict and monotone, but not homogeneous
        def log_exp(xs):
            return math.log((math.exp(xs[0]) + math.exp(xs[1])) / 2)

        m = shared_mean_mapping(log_exp, "log-exp")
        report = verify_mean_properties(m, "homogeneous", rng=Random(5), n_samples=20)
        assert not report.passed
        for w in report.violations:
            assert re.fullmatch(
                r"\|K\((0\.5|2\.0|10\.0)x\) - \1K\(x\)\| = \S+ \(relative \S+\)", w.message
            )

    @pytest.mark.parametrize("which", ["monotone", "homogeneous"])
    def test_no_invariant_mean_skips_every_sample(self, ex3, which):
        # example3 has two initial classes: no K, no run converges
        report = verify_mean_properties(ex3, which, rng=Random(5), n_samples=4)
        assert report.passed and report.n_evaluated == 0
        assert report.n_skipped == report.n_samples > 0

    def test_absorbing_coordinate_breaks_strictness(self, ex4):
        report = verify_mean_properties(ex4, "strict", rng=Random(5), n_samples=40)
        assert not report.passed
        assert any("coordinate 4" in w.message for w in report.violations)

    def test_flag_gate(self):
        maxmean = iv.Mean(arity=2, domain=iv.POSITIVE_REALS, evaluator=max, label="max")
        means = (maxmean, iv.make_power_mean(iv.PowerMeanSpec(1.0, 2)))
        m = iv.ComposedMapping(means, iv.POSITIVE_REALS, iv.IndexVector(((1, 2), (2, 1))))
        with pytest.raises(iv.PreconditionError, match="^strict flag not asserted for max$"):
            verify_mean_properties(m, "strict", rng=Random(5), n_samples=10)

    @pytest.mark.parametrize("which", ["monotone", "homogeneous"])
    def test_sampled_on_means_that_declare_nothing(self, which):
        # the samplers only falsify, so they need no declaration: K of the
        # arithmetic mean read by both coordinates is monotone and homogeneous
        m = shared_mean_mapping(lambda xs: (xs[0] + xs[1]) / 2, "mean")
        report = verify_mean_properties(m, which, rng=Random(5), n_samples=10)
        assert report.passed and report.n_evaluated == report.n_samples > 0

    def test_homogeneity_needs_the_positive_reals(self):
        m = shared_mean_mapping(lambda xs: (xs[0] + xs[1]) / 2, "mean", iv.Interval(1.0, 5.0))
        want = r"^homogeneity needs the domain \(0, \+inf\), got \(1, 5\)$"
        with pytest.raises(iv.PreconditionError, match=want):
            verify_mean_properties(m, "homogeneous", rng=Random(5), n_samples=10)
        assert verify_mean_properties(m, "monotone", rng=Random(5), n_samples=10).passed

    def test_unknown_property_rejected(self, ex2):
        with pytest.raises(iv.ValidationError):
            verify_mean_properties(ex2, "bounded", rng=Random(5))

    def test_restriction_consistency_of_absorbing_coordinate(self, ex4, rng):
        # the invariant mean never reads the fourth coordinate
        for _ in range(10):
            x123 = tuple(rng.uniform(0.3, 7.0) for _ in range(3))
            a = invariant_mean_eval(ex4, x123 + (rng.uniform(0.3, 7.0),))
            b = invariant_mean_eval(ex4, x123 + (rng.uniform(0.3, 7.0),))
            assert a.converged and b.converged
            assert a.value == pytest.approx(b.value, abs=1e-10)


class TestSingleCoordinate:
    """p = 1: every vector is constant, so everything is trivially settled."""

    @pytest.fixture
    def identity(self):
        return power_mapping((1.0,), ((1,),))

    def test_invariant_is_identity(self, identity):
        report = invariant_mean_eval(identity, (4.2,))
        assert report.converged and report.value == 4.2
        assert report.iterations_used == 0

    def test_certificate(self, identity):
        cert = iv.falsify_contractivity(identity)
        assert cert.status == iv.CERTIFIED
        assert cert.n0 == 3

    def test_sampling_sweeps_terminate(self, identity):
        report = verify_invariance(identity, rng=Random(1), n_samples=5)
        assert report.passed and report.n_samples == 0
        strict = verify_mean_properties(identity, "strict", rng=Random(1), n_samples=5)
        assert strict.passed and strict.n_evaluated == 0


class TestChecks:
    def test_oscillation_monotonicity_clean(self, ex2):
        report = check_oscillation_monotonicity(ex2, Random(2), n_samples=60)
        assert report.passed
        assert report.max_residual <= 0.0

    def test_oscillation_monotonicity_scales_with_the_bracket(self):
        # far below 1 an absolute slack would let a mean leave [min, max]
        # by 5e-17 unnoticed; one ulp of the bracket end does not
        interval = iv.Interval(0.0, 1e-10)
        above = iv.Mean(arity=2, domain=interval, evaluator=lambda xs: max(xs) + 5e-17,
                        label="max+5e-17")
        assert not iv.check_mean_property(above, Random(0), n_samples=20).passed
        arithmetic = iv.make_power_mean(iv.PowerMeanSpec(1.0, 2), interval)
        m = iv.ComposedMapping((above, arithmetic), interval, iv.IndexVector(((1, 2), (1, 2))))
        report = check_oscillation_monotonicity(m, Random(0), n_samples=20)
        assert not report.passed
        assert report.violations[0].message.startswith("bracket widened at step 1")

    def test_bracket_dichotomy_clean(self, ex2):
        report = check_bracket_dichotomy(ex2, Random(2), n_samples=30)
        assert report.passed


class TestBracketDichotomySteps:
    """`check_bracket_dichotomy` steps each sample q0 times, the uniform
    walk length of the incidence graph, not the certificate's n0 = 3^p."""

    def test_ring12_steps_q0_per_sample(self, monkeypatch):
        # ring with loops, row i reads (i, i+1): q0 = p - 1 = 11, n0 = 3^12
        p = 12
        m = power_mapping(
            [-1.0 if i % 2 == 0 else 1.0 for i in range(p)],
            [(i + 1, (i + 1) % p + 1) for i in range(p)],
        )
        assert iv.falsify_contractivity(m).n0 == 3 ** 12
        assert iv.is_ergodic(m.graph).uniform_walk_length == 11
        steps = []
        # the compiled kernel is cached on the instance, so it is counted
        # there, by the k steps of each call
        kernel = m._steps
        monkeypatch.setitem(vars(m), "_steps", lambda xs, k: steps.append(k) or kernel(xs, k))
        report = check_bracket_dichotomy(m, Random(4), n_samples=7)
        assert report.passed and report.n_evaluated == 7
        assert sum(steps) == 7 * 11

    def test_q0_is_enough_and_sharp_on_every_ergodic_four_vertex_graph(self, census4):
        # the one-low vector at v has S_max = V \ {v} and S_min = {v}: after
        # q0 steps both ends have moved, and for some v some coordinate is
        # still at max(x) after q0 - 1 steps (no walk of that length from v)
        orders = (-1.0, 0.0, 1.0, 2.0, 5e-3)
        for mask in census4.ergodic_masks:
            g = digraph_from_mask(4, mask)
            rows = [sorted(a for a, b in g.edges if b == w) for w in range(1, 5)]
            m = power_mapping([orders[(mask + w) % 5] for w in range(4)], rows)
            assert m.graph == g
            q0 = iv.is_ergodic(g).uniform_walk_length
            kept = False
            for v in range(4):
                x = tuple(1.0 if w == v else 2.0 for w in range(4))
                trace = m.iterate(x, q0)
                assert 1.0 < min(trace[q0]) and max(trace[q0]) < 2.0, (mask, v)
                kept = kept or max(trace[q0 - 1]) == 2.0
            assert kept, mask

    def test_uncertified_mapping_is_a_precondition_error(self, ex3, ex6):
        for m in (ex3, ex6):
            with pytest.raises(iv.PreconditionError, match="not certified"):
                check_bracket_dichotomy(m, Random(0), n_samples=5)


class TestSolveInvariantEquation:
    def test_engine_backed_k_gives_identity_phi(self, ex2):
        def f(x):
            return invariant_mean_eval(ex2, x).value

        phi, report = solve_invariant_equation(f, ex2, tol=1e-9, rng=Random(9), n_samples=40)
        assert report.passed and report.n_evaluated > 0
        assert report.max_residual == 0.0
        for t in (0.5, 1.0, 2.5):
            assert phi(t) == t

    def test_exp_of_k_is_invariant(self, ex2):
        def f(x):
            return math.exp(invariant_mean_eval(ex2, x).value)

        phi, report = solve_invariant_equation(f, ex2, tol=1e-8, rng=Random(9), n_samples=50)
        assert report.passed and report.n_evaluated > 0
        assert report.max_residual <= 1e-8
        assert phi(1.5) == math.exp(1.5)

    def test_max_is_not_invariant(self, ex2):
        phi, report = solve_invariant_equation(max, ex2, tol=1e-9, rng=Random(9), n_samples=30)
        assert not report.passed
        assert report.violations
        witness = report.violations[0]
        # a strict mean pulls the max strictly down in one step
        assert max(ex2.apply(witness.point)) < max(witness.point)

    def test_phi_is_the_diagonal_restriction_exactly(self, ex2, rng):
        def f(x):
            return sum(x) / len(x)

        phi, _ = solve_invariant_equation(f, ex2, tol=1e-9, rng=Random(9), n_samples=10)
        for _ in range(50):
            t = rng.uniform(0.1, 10.0)
            assert phi(t) == f((t, t, t, t))

    def test_a_stalled_iteration_is_skipped(self):
        # a first-argument "mean" declared strict, on rows (2, 1) and (1, 2):
        # certified, but the coordinates swap for ever and every run stalls
        first = iv.Mean(2, iv.POSITIVE_REALS, lambda xs: xs[0], strict=True, label="first")
        m = iv.ComposedMapping((first, first), iv.POSITIVE_REALS, iv.IndexVector(((2, 1), (1, 2))))
        assert iv.falsify_contractivity(m).status == iv.CERTIFIED
        _, report = solve_invariant_equation(max, m, rng=Random(9), n_samples=3)
        assert report.passed and (report.n_evaluated, report.n_skipped) == (0, 3)

    def test_requires_certified_mapping(self, ex3):
        with pytest.raises(iv.PreconditionError, match="not certified"):
            solve_invariant_equation(max, ex3, rng=Random(9))
