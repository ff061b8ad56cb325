"""Composition, iteration, oscillation, and the contractivity decision."""

import math
from random import Random

import pytest

import invmean as iv
from invmean import (
    CERTIFIED,
    CONTRACTIVE,
    FALSIFIED,
    UNKNOWN,
    ComposedMapping,
    IndexVector,
    Mean,
    MeanFlags,
    POSITIVE_REALS,
    PowerMeanSpec,
    falsify_contractivity,
    is_ergodic,
    make_power_mean,
    oscillation,
)

from census import digraph_from_mask, incidence_graph_masks, one_aperiodic_initial_class


def power_means(orders, arity=2):
    return tuple(make_power_mean(PowerMeanSpec(s, arity)) for s in orders)


def example2_mapping():
    return ComposedMapping(power_means((-1.0, 0.0, 1.0, 2.0)), POSITIVE_REALS,
                           IndexVector(((1, 2), (2, 3), (3, 4), (4, 1))))


def example3_mapping():
    return ComposedMapping(power_means((-1.0, 1.0, -1.0, 1.0)), POSITIVE_REALS,
                           IndexVector(((1, 2), (1, 2), (3, 4), (3, 4))))


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
        means = power_means((1.0,), arity=1)
        m = ComposedMapping(means, POSITIVE_REALS, IndexVector(((1,),)))
        assert m.apply((3.7,)) == (3.7,)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(iv.ValidationError, match="outside 1..4"):
            IndexVector(((1, 2), (2, 3), (3, 4), (4, 5)))

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "2"])
    def test_non_integer_index_rejected(self, bad):
        # no silent int(): 1.7 must not become 1
        with pytest.raises(iv.ValidationError, match="row 1, position 2: .* not an integer"):
            IndexVector(((1, bad), (1, 2)))

    @pytest.mark.parametrize("rows", [[1, 2], 5, ((1, 2), 3)])
    def test_rows_that_are_not_sequences_rejected(self, rows):
        # a flat list of indexes is not a ValidationError's TypeError
        with pytest.raises(iv.ValidationError, match="alpha must be a sequence of rows"):
            IndexVector(rows)

    def test_arity_mismatch_rejected(self):
        means = power_means((-1.0, 1.0), arity=2)
        with pytest.raises(iv.ShapeError, match="row 2"):
            ComposedMapping(means, POSITIVE_REALS, IndexVector(((1, 2), (1,))))

    def test_row_count_mismatch_rejected(self):
        means = power_means((-1.0, 1.0), arity=2)
        with pytest.raises(iv.ShapeError):
            ComposedMapping(means, POSITIVE_REALS, IndexVector(((1, 1),)))

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
            ComposedMapping(mixed, POSITIVE_REALS, IndexVector(((1, 2), (2, 1))))


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
        new_means = [None] * 4
        new_rows = [None] * 4
        for i in range(4):
            new_means[perm[i]] = m.means[i]
            new_rows[perm[i]] = tuple(perm[a - 1] + 1 for a in m.alpha.rows[i])
        conj = ComposedMapping(tuple(new_means), POSITIVE_REALS, IndexVector(new_rows))
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


def example4_mapping():
    # coordinates 1 and 2 read each other; 3 and 4 read them: one aperiodic
    # initial class {1, 2} that leaves two vertices out
    return ComposedMapping(power_means((-1.0, 1.0, 0.0, 2.0)), POSITIVE_REALS,
                           IndexVector(((1, 2), (1, 2), (1, 2), (1, 2))))


def periodic_mapping():
    # rows 1, 2 read (3, 4) and rows 3, 4 read (1, 2): one initial class
    # of period 2 whose cyclic classes are {1, 2} and {3, 4}
    return ComposedMapping(power_means((-1.0, 1.0, -1.0, 1.0)), POSITIVE_REALS,
                           IndexVector(((3, 4), (3, 4), (1, 2), (1, 2))))


class TestCertify:
    """`falsify_contractivity` issues the paper's n0 = 3^p certificate on an
    ergodic graph of strict means, and no certificate on any other graph."""

    def test_example2_certified(self):
        cert = falsify_contractivity(example2_mapping())
        assert cert.status == CERTIFIED
        assert cert.n0 == 81
        # the evidence names the uniform walk length, which only the
        # graph's classification carries
        assert "(uniform walk length 3)" in cert.evidence
        assert is_ergodic(example2_mapping().graph).uniform_walk_length == 3
        assert list(cert.to_json_dict()) == ["class", "n0", "evidence"]

    def test_certified_needs_n0(self):
        with pytest.raises(iv.ValidationError, match="must carry n0"):
            iv.ContractivityCertificate(CERTIFIED, None, "no step count")

    def test_disconnected_falsified(self):
        cert = falsify_contractivity(example3_mapping())
        assert cert.status == FALSIFIED and cert.n0 == 10
        assert "the initial classes read only themselves" in cert.evidence

    def test_periodic_falsified(self):
        cert = falsify_contractivity(periodic_mapping())
        assert cert.status == FALSIFIED and cert.n0 == 10
        assert "cyclic classes of the only initial class" in cert.evidence

    def test_nonstrict_mean_unknown(self):
        maxmean = Mean(
            arity=2,
            domain=POSITIVE_REALS,
            evaluator=max,
            flags=MeanFlags(strict=False, monotone=True),
            label="max",
        )
        means = (maxmean, make_power_mean(PowerMeanSpec(1.0, 2)))
        m = ComposedMapping(means, POSITIVE_REALS, IndexVector(((1, 2), (2, 1))))
        assert is_ergodic(m.graph).ergodic
        cert = falsify_contractivity(m)
        assert cert.status == UNKNOWN and cert.n0 is None
        assert "strictness not asserted for max" in cert.evidence


class TestFalsify:
    """`falsify_contractivity(m)` reads the initial classes of the incidence
    graph and takes no step; the tests iterate its witnesses."""

    def test_example2_single_step_witness(self):
        # one step keeps the oscillation of (a, a, b, b), but the graph is
        # ergodic, so the (p-1)^2 + 1 = 10 steps of the decision shrink it
        m = example2_mapping()
        x = m.nth_iterate((1.0, 1.0, 2.0, 2.0), 1)
        assert (min(x), max(x)) == (1.0, 2.0)
        assert oscillation(m.nth_iterate((1.0, 1.0, 2.0, 2.0), 10)) < 1.0
        cert = falsify_contractivity(m)
        assert cert.status == CERTIFIED and cert.witness is None

    def test_example2_two_steps_clean(self):
        # every nonconstant 1/2 block vector has shrunk after two steps
        m = example2_mapping()
        assert falsify_contractivity(m).status == CERTIFIED
        for bits in range(1, 15):
            x = tuple(2.0 if bits >> i & 1 else 1.0 for i in range(4))
            assert oscillation(m.nth_iterate(x, 2)) < 1.0, x

    def test_one_aperiodic_initial_class_contractive(self):
        m = example4_mapping()
        assert not is_ergodic(m.graph).ergodic
        cert = falsify_contractivity(m)
        assert cert.status == CONTRACTIVE and cert.n0 == 10 and cert.witness is None
        assert "share a walk source after 10 step(s)" in cert.evidence
        assert oscillation(m.nth_iterate((1.0, 2.0, 2.0, 2.0), 10)) < 1.0

    def test_disconnected_falsified_at_any_n0(self):
        # two initial classes {1, 2} and {3, 4}: hi on the one whose lowest
        # vertex is highest, and the witness keeps its oscillation for ever
        m = example3_mapping()
        cert = falsify_contractivity(m)
        assert cert.status == FALSIFIED and cert.n0 == 10
        assert cert.witness == (1.0, 1.0, 2.0, 2.0)
        assert cert.evidence.startswith("oscillation not reduced after 10 step(s)")
        for n in (1, 2, 81):
            assert oscillation(m.nth_iterate(cert.witness, n)) == 1.0, n

    def test_periodic_witness_is_off_the_lowest_cyclic_class(self):
        m = periodic_mapping()
        cert = falsify_contractivity(m)
        assert cert.status == FALSIFIED
        assert cert.witness == (1.0, 1.0, 2.0, 2.0)
        for n in (1, 2, 10):
            assert oscillation(m.nth_iterate(cert.witness, n)) == 1.0, n

    def test_decision_takes_no_step_and_evaluates_no_power_mean(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a power mean was evaluated")

        monkeypatch.setattr(iv.means, "power_mean_eval", refused)
        for m in (example2_mapping(), example3_mapping(), example4_mapping(), periodic_mapping()):
            falsify_contractivity(m)
            assert "_step" not in vars(m)

    def test_every_three_vertex_incidence_graph(self):
        # each coordinate takes the arithmetic mean of its in-neighbours; the
        # hi and lo sets of a witness must both survive (p-1)^2 + 1 = 5 steps
        # of f(S) = {v : in(v) subset of S}, computed here by brute force
        def survives(in_masks, s):
            for _ in range(5):
                s = sum(1 << v for v, m in enumerate(in_masks) if m & ~s == 0)
            return s != 0

        for mask in incidence_graph_masks(3):
            g = digraph_from_mask(3, mask)
            rows = tuple(tuple(v + 1 for v in range(3) if m >> v & 1) for m in g.in_masks)
            m = ComposedMapping(tuple(make_power_mean(PowerMeanSpec(1.0, len(r))) for r in rows),
                                POSITIVE_REALS, IndexVector(rows))
            cert = falsify_contractivity(m)
            if is_ergodic(g).ergodic:
                assert cert.status == CERTIFIED and cert.n0 == 27, mask
                continue
            if one_aperiodic_initial_class(g.in_masks):
                assert cert.status == CONTRACTIVE, mask
                continue
            assert cert.status == FALSIFIED, mask
            hi = sum(1 << i for i, t in enumerate(cert.witness) if t == max(cert.witness))
            assert survives(g.in_masks, hi) and survives(g.in_masks, 0b111 ^ hi), mask

    def test_one_coordinate_is_vacuously_contractive(self):
        # I^1 has no nonconstant vector, so no pair of coordinates to
        # separate; the one vertex with its loop is an ergodic graph
        m = ComposedMapping(power_means((1.0,)), POSITIVE_REALS, IndexVector(((1, 1),)))
        cert = falsify_contractivity(m)
        assert cert.status == CERTIFIED and cert.witness is None
        assert cert.n0 == 3

    def test_nonstrict_mean_on_ergodic_graph_unknown(self):
        # rows (2, 1) and (1, 2) make the complete graph with loops, so every
        # two coordinates share a walk source; the non-strict first-argument
        # mean swaps the coordinates and keeps the oscillation forever
        first = Mean(arity=2, domain=POSITIVE_REALS, evaluator=lambda xs: xs[0],
                     flags=MeanFlags(strict=False, monotone=True), label="first")
        m = ComposedMapping((first, first), POSITIVE_REALS, IndexVector(((2, 1), (1, 2))))
        assert is_ergodic(m.graph).ergodic
        cert = falsify_contractivity(m)
        assert cert.status == UNKNOWN and cert.witness is None and cert.n0 is None
        assert "strictness not asserted for first" in cert.evidence
        assert m.nth_iterate((1.0, 2.0), 2) == (1.0, 2.0)

    def test_witness_shrunk_by_a_mean_that_moves_constants_unknown(self):
        # a "mean" that returns 1.5 everywhere maps (1, 1) to 1.5, which no
        # mean may do, and so it shrinks the block witness of two loops
        const = Mean(arity=2, domain=POSITIVE_REALS, evaluator=lambda xs: 1.5,
                     flags=MeanFlags(strict=True), label="const")
        m = ComposedMapping((const, const), POSITIVE_REALS, IndexVector(((1, 1), (2, 2))))
        cert = falsify_contractivity(m)
        assert cert.status == UNKNOWN and cert.witness is None and cert.n0 is None
        assert cert.evidence == (
            "the block vector x=(1.0, 2.0) keeps its oscillation only if every mean "
            "returns c at (c, ..., c), but mean 1 (const) returns 1.5 at c=1.0; "
            "mean 1 (const) returns 1.5 at c=2.0; mean 2 (const) returns 1.5 at c=1.0; "
            "mean 2 (const) returns 1.5 at c=2.0"
        )
        assert oscillation(m.nth_iterate((1.0, 2.0), 1)) == 0.0

    def test_mean_that_moves_only_the_high_constant_unknown(self):
        # capped returns c at (1, 1) but 1.5 at (2, 2); the power mean on the
        # other loop is not evaluated and not named
        capped = Mean(arity=2, domain=POSITIVE_REALS, evaluator=lambda xs: min(*xs, 1.5),
                      flags=MeanFlags(strict=True), label="capped")
        m = ComposedMapping((make_power_mean(PowerMeanSpec(1.0, 2)), capped), POSITIVE_REALS,
                            IndexVector(((1, 1), (2, 2))))
        cert = falsify_contractivity(m)
        assert cert.status == UNKNOWN and cert.witness is None
        assert cert.evidence.endswith("but mean 2 (capped) returns 1.5 at c=2.0")
        assert oscillation(m.nth_iterate((1.0, 2.0), 1)) == 0.5

