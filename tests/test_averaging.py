"""Composition, iteration, oscillation, and contractivity certificates."""

import math
from random import Random

import pytest

import invmean as iv
from invmean import (
    CERTIFIED,
    CONTRACTIVE_SAMPLED,
    FALSIFIED,
    UNKNOWN,
    AveragingMapping,
    ComposedMapping,
    IndexVector,
    Mean,
    MeanFlags,
    POSITIVE_REALS,
    PowerMeanSpec,
    certify_uniform_weak_contractivity,
    falsify_contractivity,
    make_power_mean,
    oscillation,
)


def power_base(orders, arity=2):
    means = tuple(make_power_mean(PowerMeanSpec(s, arity)) for s in orders)
    return AveragingMapping(means=means, interval=POSITIVE_REALS)


def example2_mapping():
    return ComposedMapping(power_base((-1.0, 0.0, 1.0, 2.0)),
                           IndexVector.from_rows(((1, 2), (2, 3), (3, 4), (4, 1))))


def example3_mapping():
    return ComposedMapping(power_base((-1.0, 1.0, -1.0, 1.0)),
                           IndexVector.from_rows(((1, 2), (1, 2), (3, 4), (3, 4))))


class TestCompose:
    def test_example2_coordinates(self, rng):
        m = example2_mapping()
        for _ in range(25):
            x, y, z, t = (rng.uniform(0.2, 9.0) for _ in range(4))
            got = m.apply((x, y, z, t))
            want = (
                2 * x * y / (x + y),
                math.sqrt(y * z),
                (z + t) / 2,
                math.sqrt((t * t + x * x) / 2),
            )
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12)

    def test_identity_on_one_variable(self):
        base = power_base((1.0,), arity=1)
        m = ComposedMapping(base, IndexVector.from_rows(((1,),)))
        assert m.apply((3.7,)) == (3.7,)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(iv.ValidationError, match="outside 1..4"):
            IndexVector.from_rows(((1, 2), (2, 3), (3, 4), (4, 5)))

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "2"])
    def test_non_integer_index_rejected(self, bad):
        # no silent int(): 1.7 must not become 1
        with pytest.raises(iv.ValidationError, match="row 1, position 2: .* not an integer"):
            IndexVector.from_rows(((1, bad), (1, 2)))

    def test_arity_mismatch_rejected(self):
        base = power_base((-1.0, 1.0), arity=2)
        with pytest.raises(iv.ShapeError, match="row 2"):
            ComposedMapping(base, IndexVector.from_rows(((1, 2), (1,))))

    def test_row_count_mismatch_rejected(self):
        base = power_base((-1.0, 1.0), arity=2)
        with pytest.raises(iv.ShapeError):
            ComposedMapping(base, IndexVector.from_rows(((1, 1),)))

    def test_graph_is_cached_incidence_graph(self):
        m = example2_mapping()
        assert m.graph == iv.build_incidence_graph(m.alpha)
        assert m.graph is m.graph  # derived once, then cached
        assert m == example2_mapping()  # the cache is not part of equality

    def test_means_must_share_interval(self):
        narrow = iv.Interval(1.0, 5.0)
        mixed = (
            make_power_mean(PowerMeanSpec(1.0, 2)),
            make_power_mean(PowerMeanSpec(1.0, 2), domain=narrow),
        )
        with pytest.raises(iv.ValidationError, match="lives on"):
            AveragingMapping(means=mixed, interval=POSITIVE_REALS)


class TestApply:
    def test_constant_vector_is_fixed_exactly(self):
        m = example2_mapping()
        for c in (0.5, 1.0, 3.25):
            assert m.apply((c, c, c, c)) == (c, c, c, c)

    def test_disconnected_fixed_point_exact(self):
        m = example3_mapping()
        assert m.apply((1.0, 1.0, 2.0, 2.0)) == (1.0, 1.0, 2.0, 2.0)

    def test_example2_at_1234(self):
        got = example2_mapping().apply((1.0, 2.0, 3.0, 4.0))
        want = (4.0 / 3.0, math.sqrt(6.0), 3.5, math.sqrt(8.5))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-14)

    def test_block_vector_keeps_oscillation_one_step(self):
        # (1, sqrt(2), 2, sqrt(5/2)): same min and max as the input
        got = example2_mapping().apply((1.0, 1.0, 2.0, 2.0))
        want = (1.0, math.sqrt(2.0), 2.0, math.sqrt(2.5))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-14)
        assert oscillation(got) == oscillation((1.0, 1.0, 2.0, 2.0))

    def test_domain_violation(self):
        m = example2_mapping()
        with pytest.raises(iv.DomainError, match="coordinate 3"):
            m.apply((1.0, 2.0, -3.0, 4.0))

    def test_shape_violation(self):
        with pytest.raises(iv.ShapeError):
            example2_mapping().apply((1.0, 2.0, 3.0))

    def test_output_within_bracket(self, rng):
        m = example2_mapping()
        for _ in range(200):
            x = tuple(rng.uniform(0.1, 10.0) for _ in range(4))
            y = m.apply(x)
            assert min(x) <= min(y) and max(y) <= max(x)

    def test_homogeneous_mapping_scales(self, rng):
        m = example2_mapping()
        for c in (0.5, 2.0, 10.0):
            for _ in range(25):
                x = tuple(rng.uniform(0.1, 5.0) for _ in range(4))
                cx = tuple(c * t for t in x)
                left = m.apply(cx)
                right = tuple(c * t for t in m.apply(x))
                for a, b in zip(left, right):
                    assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_equivariance(self, rng):
        m = example2_mapping()
        perm = (2, 0, 3, 1)  # pi(i) = perm[i], 0-based
        base_means = m.base.means
        new_means = [None] * 4
        new_rows = [None] * 4
        for i in range(4):
            new_means[perm[i]] = base_means[i]
            new_rows[perm[i]] = tuple(perm[a - 1] + 1 for a in m.alpha.rows[i])
        conj = ComposedMapping(
            AveragingMapping(means=tuple(new_means), interval=POSITIVE_REALS),
            IndexVector.from_rows(new_rows),
        )
        for _ in range(30):
            x = tuple(rng.uniform(0.2, 8.0) for _ in range(4))
            px = [None] * 4
            for i in range(4):
                px[perm[i]] = x[i]
            left = conj.apply(tuple(px))
            right = m.apply(x)
            for i in range(4):
                assert left[perm[i]] == right[i]


class TestIterate:
    def test_zero_steps(self):
        m = example2_mapping()
        assert m.iterate((1.0, 2.0, 3.0, 4.0), 0) == ((1.0, 2.0, 3.0, 4.0),)

    def test_trace_length_and_chain(self):
        m = example2_mapping()
        trace = m.iterate((1.0, 2.0, 3.0, 4.0), 5)
        assert len(trace) == 6
        for k in range(5):
            assert trace[k + 1] == m.apply(trace[k])

    def test_disconnected_split_limits(self):
        # the two independent halves both settle at the geometric mean
        m = example3_mapping()
        trace = m.iterate((1.0, 4.0, 1.0, 4.0), 60)
        final = trace[-1]
        for t in final:
            assert t == pytest.approx(2.0, abs=1e-12)

    def test_bracket_monotone_along_trace(self, rng):
        m = example2_mapping()
        for _ in range(40):
            x = tuple(rng.uniform(0.1, 10.0) for _ in range(4))
            trace = m.iterate(x, 50)
            mins = [min(pt) for pt in trace]
            maxs = [max(pt) for pt in trace]
            assert all(a <= b for a, b in zip(mins, mins[1:]))
            assert all(a >= b for a, b in zip(maxs, maxs[1:]))

    def test_negative_steps_rejected(self):
        with pytest.raises(iv.ValidationError):
            example2_mapping().iterate((1.0, 1.0, 1.0, 1.0), -1)


class TestOscillation:
    def test_constant(self):
        assert oscillation((4.2, 4.2, 4.2)) == 0.0

    def test_one_to_four(self):
        assert oscillation((1.0, 2.0, 3.0, 4.0)) == 3.0

    def test_pair(self):
        assert oscillation((2.0, 1.0)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(iv.ShapeError):
            oscillation(())


class TestCertify:
    def test_example2_certified(self):
        cert = certify_uniform_weak_contractivity(example2_mapping())
        assert cert.status == CERTIFIED
        assert cert.n0 == 81

    def test_disconnected_unknown(self):
        cert = certify_uniform_weak_contractivity(example3_mapping())
        assert cert.status == UNKNOWN
        assert "graph not irreducible" in cert.evidence
        assert cert.n0 is None

    def test_periodic_unknown(self):
        m = ComposedMapping(power_base((-1.0, 1.0, -1.0, 1.0)),
                            IndexVector.from_rows(((3, 4), (3, 4), (1, 2), (1, 2))))
        cert = certify_uniform_weak_contractivity(m)
        assert cert.status == UNKNOWN
        assert "period 2" in cert.evidence

    def test_nonstrict_mean_unknown(self):
        maxmean = Mean(
            arity=2,
            domain=POSITIVE_REALS,
            evaluator=max,
            flags=MeanFlags(strict=False, monotone=True),
            label="max",
        )
        base = AveragingMapping(
            means=(maxmean, make_power_mean(PowerMeanSpec(1.0, 2))),
            interval=POSITIVE_REALS,
        )
        m = ComposedMapping(base, IndexVector.from_rows(((1, 2), (2, 1))))
        cert = certify_uniform_weak_contractivity(m)
        assert cert.status == UNKNOWN
        assert "strictness not asserted" in cert.evidence


class TestFalsify:
    def test_example2_single_step_witness(self):
        cert = falsify_contractivity(example2_mapping(), 1, Random(3), 200)
        assert cert.status == FALSIFIED
        a, b = cert.witness[0], cert.witness[2]
        assert cert.witness == (a, a, b, b)
        assert cert.witness == (1.0, 1.0, 2.0, 2.0)

    def test_example2_two_steps_clean(self):
        cert = falsify_contractivity(example2_mapping(), 2, Random(3), 500)
        assert cert.status == CONTRACTIVE_SAMPLED
        assert "evidence only" in cert.evidence

    def test_disconnected_falsified_at_any_n0(self):
        for n0 in (1, 2, 81):
            cert = falsify_contractivity(example3_mapping(), n0, Random(3), 50)
            assert cert.status == FALSIFIED
            assert cert.witness == (1.0, 1.0, 2.0, 2.0)

    def test_bad_n0(self):
        with pytest.raises(iv.ValidationError):
            falsify_contractivity(example2_mapping(), 0, Random(3))


class TestConstantVectorPredicate:
    def test_exact_constant(self):
        assert iv.is_constant_vector((3.0, 3.0, 3.0))

    def test_tolerance_scales_with_magnitude(self):
        assert iv.is_constant_vector((1e6, 1e6 + 1e-8))
        assert not iv.is_constant_vector((1.0, 1.0 + 1e-9))
