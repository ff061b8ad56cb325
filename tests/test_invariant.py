"""Convergence to the invariant mean, subsequence limits, verification."""

import math
from random import Random

import mpmath
import pytest

import invmean as iv
from invmean import (
    check_bracket_dichotomy,
    check_oscillation_monotonicity,
    invariant_mean_eval,
    limit_mapping_eval,
    solve_invariant_equation,
    subsequence_limits,
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


class TestInvariantMeanEval:
    def test_enclosure_through_subnormal_geometric_product(self):
        # the order-0 row multiplies (1e-160, 1e-160, 1e100), whose partial
        # product is subnormal; the enclosure used to miss by 100 radii
        orders = (0.0, 2.0, 5.0, 1.0)
        rows = ((1, 2, 3), (2, 3), (3, 4), (4, 1))
        means = tuple(
            iv.make_power_mean(iv.PowerMeanSpec(s, len(r))) for s, r in zip(orders, rows)
        )
        m = iv.ComposedMapping(
            iv.AveragingMapping(means, iv.POSITIVE_REALS), iv.IndexVector.from_rows(rows)
        )
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
        assert report.error_radius > 1.0  # the two blocks stay ~10 apart
        assert report.iterations_used < 10_000  # the stall cutoff fired

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


class TestLimitMappingEval:
    def test_constant_vector_returned(self, ex5):
        out = limit_mapping_eval(ex5, (1.0, 4.0, 9.0, 16.0))
        assert len(out) == 4
        assert all(t == out[0] for t in out)
        assert out[0] == pytest.approx(2.0, abs=1e-9)

    def test_constant_input(self, ex2):
        assert limit_mapping_eval(ex2, (2.5,) * 4) == (2.5,) * 4

    def test_nonconvergence_raises(self, ex6):
        with pytest.raises(iv.ConvergenceError):
            limit_mapping_eval(ex6, (1.0, 4.0, 9.0, 16.0))


class TestSubsequenceLimits:
    def test_ergodic_all_residues_agree(self, ex2):
        x = (1.0, 2.0, 3.0, 4.0)
        value = invariant_mean_eval(ex2, x).value
        limits = subsequence_limits(ex2, x, 2)
        assert limits.all_converged
        for entry in limits.limits:
            for t in entry.point:
                assert t == pytest.approx(value, abs=1e-9)

    def test_periodic_two_cluster_points(self, ex6):
        limits = subsequence_limits(ex6, (1.0, 4.0, 9.0, 16.0), 2)
        assert limits.all_converged
        even, odd = limits.limits
        assert even.point == pytest.approx((2.0, 2.0, 12.0, 12.0), abs=1e-9)
        assert odd.point == pytest.approx((12.0, 12.0, 2.0, 2.0), abs=1e-9)

    def test_periodic_cyclic_consistency(self, ex6):
        limits = subsequence_limits(ex6, (1.0, 4.0, 9.0, 16.0), 2)
        even, odd = limits.limits
        assert ex6.apply(even.point) == pytest.approx(odd.point, abs=1e-10)
        assert ex6.apply(odd.point) == pytest.approx(even.point, abs=1e-10)

    def test_periodic_full_sequence_flagged(self, ex6):
        limits = subsequence_limits(ex6, (1.0, 4.0, 9.0, 16.0), 1, max_iter=800)
        assert not limits.limits[0].converged

    def test_disconnected_componentwise_limits(self, ex3):
        x, y, z, t = 1.0, 4.0, 9.0, 16.0
        limits = subsequence_limits(ex3, (x, y, z, t), 1)
        assert limits.all_converged
        want = (math.sqrt(x * y),) * 2 + (math.sqrt(z * t),) * 2
        assert limits.limits[0].point == pytest.approx(want, abs=1e-9)

    def test_modulus_validation(self, ex2):
        with pytest.raises(iv.ValidationError):
            subsequence_limits(ex2, (1.0,) * 4, 0)


class TestVerifyInvariance:
    def test_certified_mapping_clean(self, ex2):
        report = verify_invariance(ex2, tol=1e-9, rng=Random(11), n_samples=100)
        assert report.passed
        assert report.n_evaluated == 100
        assert report.max_residual <= 1e-9

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


class TestVerifyMeanProperties:
    def test_strict_clean_on_certified(self, ex2):
        report = verify_mean_properties(ex2, "strict", rng=Random(5), n_samples=100)
        assert report.passed

    def test_monotone_clean_on_certified(self, ex2):
        report = verify_mean_properties(ex2, "monotone", rng=Random(5), n_samples=80)
        assert report.passed

    def test_homogeneous_clean_on_certified(self, ex2):
        report = verify_mean_properties(ex2, "homogeneous", rng=Random(5), n_samples=60)
        assert report.passed
        assert report.max_residual <= 1e-10  # relative residual

    def test_absorbing_coordinate_breaks_strictness(self, ex4):
        report = verify_mean_properties(ex4, "strict", rng=Random(5), n_samples=40)
        assert not report.passed
        assert any("coordinate 4" in w.message for w in report.violations)

    def test_flag_gate(self):
        maxmean = iv.Mean(
            arity=2,
            domain=iv.POSITIVE_REALS,
            evaluator=max,
            flags=iv.MeanFlags(strict=False),
            label="max",
        )
        base = iv.AveragingMapping(
            means=(maxmean, iv.make_power_mean(iv.PowerMeanSpec(1.0, 2))),
            interval=iv.POSITIVE_REALS,
        )
        m = iv.ComposedMapping(base, iv.IndexVector.from_rows(((1, 2), (2, 1))))
        with pytest.raises(iv.PreconditionError, match="strict flag not asserted"):
            verify_mean_properties(m, "strict", rng=Random(5), n_samples=10)

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
        base = iv.AveragingMapping(
            means=(iv.make_power_mean(iv.PowerMeanSpec(1.0, 1)),),
            interval=iv.POSITIVE_REALS,
        )
        return iv.ComposedMapping(base, iv.IndexVector.from_rows(((1,),)))

    def test_invariant_is_identity(self, identity):
        report = invariant_mean_eval(identity, (4.2,))
        assert report.converged and report.value == 4.2
        assert report.iterations_used == 0

    def test_certificate(self, identity):
        cert = iv.certify_uniform_weak_contractivity(identity)
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

    def test_bracket_dichotomy_clean(self, ex2):
        report = check_bracket_dichotomy(ex2, Random(2), n_samples=30)
        assert report.passed


class TestSolveInvariantEquation:
    def test_engine_backed_k_gives_identity_phi(self, ex2):
        def f(x):
            return invariant_mean_eval(ex2, x).value

        phi, report = solve_invariant_equation(f, ex2, tol=1e-9, rng=Random(9), n_samples=40)
        assert report.verdict == "invariant"
        assert report.max_residual == 0.0
        for t in (0.5, 1.0, 2.5):
            assert phi(t) == t

    def test_exp_of_k_is_invariant(self, ex2):
        def f(x):
            return math.exp(invariant_mean_eval(ex2, x).value)

        phi, report = solve_invariant_equation(f, ex2, tol=1e-8, rng=Random(9), n_samples=50)
        assert report.verdict == "invariant"
        assert report.max_residual <= 1e-8
        assert phi(1.5) == math.exp(1.5)

    def test_max_is_not_invariant(self, ex2):
        phi, report = solve_invariant_equation(max, ex2, tol=1e-9, rng=Random(9), n_samples=30)
        assert report.verdict == "not invariant"
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

    def test_requires_certified_mapping(self, ex3):
        with pytest.raises(iv.PreconditionError, match="not certified"):
            solve_invariant_equation(max, ex3, rng=Random(9))
