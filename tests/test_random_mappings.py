"""Property tests over randomly generated composed mappings.

The fixtures pin specific mappings; these strategies draw arbitrary
index vectors and power-mean tuples and assert the structural
guarantees that must hold for every composition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import (
    CERTIFIED,
    CONTRACTIVE,
    FALSIFIED,
    TriStateColoring,
    invariant_mean_eval,
    is_ergodic,
    oscillation,
    tg_stabilize,
)

orders = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def composed_mappings(draw, min_p=2, max_p=5):
    p = draw(st.integers(min_p, max_p))
    arities = [draw(st.integers(1, 3)) for _ in range(p)]
    rows = tuple(
        tuple(draw(st.integers(1, p)) for _ in range(d)) for d in arities
    )
    means = tuple(
        iv.make_power_mean(iv.PowerMeanSpec(draw(orders), d)) for d in arities
    )
    return iv.ComposedMapping(means, iv.POSITIVE_REALS, iv.IndexVector(rows))


@st.composite
def mapping_and_point(draw, **kwargs):
    m = draw(composed_mappings(**kwargs))
    x = tuple(
        draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        for _ in range(m.p)
    )
    return m, x


class TestStructure:
    @given(m=composed_mappings())
    @settings(max_examples=150, deadline=None)
    def test_incidence_graph_always_feeds_every_coordinate(self, m):
        # row i is nonempty, so vertex i always has an in-edge; tg_step can
        # never hit its empty-in-neighborhood precondition on these graphs
        for v in range(1, m.p + 1):
            assert {a for a, b in m.graph.edges if b == v}
        stepped = iv.tg_step(m.graph, TriStateColoring((0,) * m.p))
        assert stepped.values == (0,) * m.p

    @given(m=composed_mappings())
    @settings(max_examples=150, deadline=None)
    def test_certificate_coheres_with_classification(self, m):
        # all generated means are strict power means, so the graph decides
        cert = iv.falsify_contractivity(m)
        cls = is_ergodic(m.graph)
        if cls.ergodic:
            assert (cert.status, cert.n0) == (CERTIFIED, 3 ** m.p)
        elif cls.one_aperiodic_initial_class:
            assert (cert.status, cert.n0) == (CONTRACTIVE, (m.p - 1) ** 2 + 1)
        else:
            assert (cert.status, cert.n0) == (FALSIFIED, (m.p - 1) ** 2 + 1)
            # the decision takes no step: iterating the witness is the oracle
            kept = oscillation(m.nth_iterate(cert.witness, cert.n0))
            assert kept == oscillation(cert.witness) > 0.0


class TestDynamics:
    @given(mx=mapping_and_point())
    @settings(max_examples=150, deadline=None)
    def test_apply_stays_in_bracket(self, mx):
        m, x = mx
        y = m.apply(x)
        assert len(y) == m.p
        assert min(x) <= min(y) and max(y) <= max(x)

    @given(mx=mapping_and_point())
    @settings(max_examples=100, deadline=None)
    def test_iterated_brackets_are_monotone(self, mx):
        m, x = mx
        trace = m.iterate(x, 30)
        mins = [min(pt) for pt in trace]
        maxs = [max(pt) for pt in trace]
        assert all(a <= b for a, b in zip(mins, mins[1:]))
        assert all(a >= b for a, b in zip(maxs, maxs[1:]))

    @given(mx=mapping_and_point(max_p=4))
    @settings(max_examples=40, deadline=None)
    def test_certified_mappings_converge_and_are_invariant(self, mx):
        m, x = mx
        if iv.falsify_contractivity(m).status != CERTIFIED:
            return
        r1 = invariant_mean_eval(m, x)
        assert r1.converged
        assert min(x) <= r1.value <= max(x)
        r2 = invariant_mean_eval(m, m.apply(x))
        assert r2.converged
        assert abs(r1.value - r2.value) <= 2.0 * (r1.error_radius + r2.error_radius) + 1e-15

    @given(mx=mapping_and_point(max_p=4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ergodic_tristate_always_settles(self, mx, data):
        m, _ = mx
        cls = is_ergodic(m.graph)
        if not cls.ergodic:
            return
        c0 = TriStateColoring(
            tuple(data.draw(st.sampled_from([-1, 0, 1])) for _ in range(m.p))
        )
        report = tg_stabilize(m.graph, c0)
        assert report.steps_to_constant is not None
        assert report.steps_to_constant <= cls.uniform_walk_length
        if len(set(c0.values)) > 1 or c0.values[0] == 0:
            assert report.constant_value == 0

    @given(mx=mapping_and_point(max_p=4))
    @settings(max_examples=30, deadline=None)
    def test_oscillation_never_grows_after_many_steps(self, mx):
        m, x = mx
        y = x
        for _ in range(3 ** m.p):
            y = m.apply(y)
        assert oscillation(y) <= oscillation(x)