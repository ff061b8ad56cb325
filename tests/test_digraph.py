"""Graph construction, classification, walk lengths, tri-state dynamics.

The classifier is checked three ways: against hand-read edge sets of the
bundled mappings, against the census oracle in census.py, and (for
n <= 3, exhaustively) against a second brute-force oracle written here
with sets instead of bitmasks.
"""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import (
    Digraph,
    IndexVector,
    TriStateColoring,
    build_incidence_graph,
    in_neighbors,
    is_ergodic,
    is_irreducible,
    period,
    tg_stabilize,
    tg_step,
    uniform_walk_length,
)

from census import classify_all_small_graphs, digraph_from_mask

# incidence graphs of the bundled index vectors
ALPHA2 = ((1, 2), (2, 3), (3, 4), (4, 1))
ALPHA3 = ((1, 2), (1, 2), (3, 4), (3, 4))
ALPHA5 = ((1, 2), (1, 2), (2, 4), (3, 4))
ALPHA6 = ((3, 4), (3, 4), (1, 2), (1, 2))


def incidence(rows) -> Digraph:
    return build_incidence_graph(IndexVector.from_rows(rows))


def graph2() -> Digraph:
    return incidence(ALPHA2)


def graph3() -> Digraph:
    return incidence(ALPHA3)


def graph5() -> Digraph:
    return incidence(ALPHA5)


def graph6() -> Digraph:
    return incidence(ALPHA6)


# ---------------------------------------------------------------------------
# independent oracles (sets, not bitmasks; distinct from the census oracle)


def walks_reach(g: Digraph, max_len: int) -> dict[int, list[set[int]]]:
    """exact[q][v] = set of w reachable from v by a walk of length exactly q."""
    out = {v: {w for (a, w) in g.edges if a == v} for v in range(1, g.n_vertices + 1)}
    exact = {1: out}
    for q in range(2, max_len + 1):
        prev = exact[q - 1]
        exact[q] = {
            v: set().union(*(prev[u] for u in out[v])) if out[v] else set()
            for v in out
        }
    return exact


def oracle_irreducible(g: Digraph) -> bool:
    exact = walks_reach(g, g.n_vertices)
    verts = set(range(1, g.n_vertices + 1))
    reach = {v: set() for v in verts}
    for q in exact:
        for v in verts:
            reach[v] |= exact[q][v]
    return all(reach[v] == verts for v in verts)


def oracle_cycle_lengths(g: Digraph) -> set[int]:
    """Lengths of all simple cycles, by DFS over vertex-disjoint paths."""
    out = {v: sorted(w for (a, w) in g.edges if a == v) for v in range(1, g.n_vertices + 1)}
    lengths = set()

    def extend(start: int, current: int, seen: frozenset, length: int) -> None:
        for w in out[current]:
            if w == start:
                lengths.add(length + 1)
            elif w > start and w not in seen:
                extend(start, w, seen | {w}, length + 1)

    for start in range(1, g.n_vertices + 1):
        extend(start, start, frozenset({start}), 0)
    return lengths


def oracle_period(g: Digraph):
    lengths = oracle_cycle_lengths(g)
    return math.gcd(*lengths) if lengths else None


def oracle_uniform_walk_length(g: Digraph, horizon: int = 17) -> int:
    """Minimal q0 with all-pairs exact-length walks for every q in
    [q0, horizon], by enumerating walk frontiers length by length."""
    exact = walks_reach(g, horizon)
    verts = set(range(1, g.n_vertices + 1))
    full = {q for q in range(1, horizon + 1) if all(exact[q][v] == verts for v in verts)}
    assert horizon in full, "no stable all-pairs walk length within the horizon"
    q0 = horizon
    while q0 - 1 in full:
        q0 -= 1
    return q0


# ---------------------------------------------------------------------------


class TestBuildIncidenceGraph:
    def test_cyclic_example_edges(self):
        g = graph2()
        assert g.edges == frozenset(
            {(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (1, 4)}
        )
        # every vertex carries a loop and the 4 -> 3 -> 2 -> 1 chain is present
        assert all((v, v) in g.edges for v in range(1, 5))

    def test_disconnected_example_edges(self):
        g = graph3()
        assert g.edges == frozenset(
            {(1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (4, 3), (3, 4), (4, 4)}
        )

    def test_identity_composition(self):
        g = incidence(((1,),))
        assert g.edges == frozenset({(1, 1)})

    def test_out_of_range_index(self):
        # the index vector rejects it before any graph is built
        with pytest.raises(iv.ValidationError, match="outside 1..4"):
            incidence(((1, 2), (2, 3), (3, 4), (4, 5)))

    def test_accepts_index_vector(self):
        g = build_incidence_graph(IndexVector.from_rows(ALPHA2))
        assert g.n_vertices == 4
        assert g == Digraph(4, frozenset((a, i) for i, row in enumerate(ALPHA2, 1) for a in row))

    def test_duplicates_collapse(self):
        g = incidence(((1, 1, 1),))
        assert g.edges == frozenset({(1, 1)})


class TestInNeighbors:
    def test_cyclic_example(self):
        g = graph2()
        assert in_neighbors(g, 1) == frozenset({1, 2})
        assert in_neighbors(g, 4) == frozenset({4, 1})

    def test_empty_graph(self):
        g = Digraph(3, frozenset())
        assert in_neighbors(g, 2) == frozenset()

    def test_loop_only(self):
        g = Digraph(2, frozenset({(1, 1), (2, 2)}))
        assert in_neighbors(g, 1) == frozenset({1})

    def test_bad_vertex(self):
        with pytest.raises(iv.ValidationError):
            in_neighbors(graph2(), 5)


class TestIrreducible:
    def test_cyclic_example_true(self):
        assert is_irreducible(graph2())

    def test_disconnected_false(self):
        assert not is_irreducible(graph3())

    def test_one_way_feed_false(self):
        assert not is_irreducible(graph5())

    def test_single_vertex_needs_loop(self):
        assert not is_irreducible(Digraph(1, frozenset()))
        assert is_irreducible(Digraph(1, frozenset({(1, 1)})))


class TestPeriod:
    def test_loops_everywhere_gives_one(self):
        assert period(graph2()) == 1

    def test_bipartite_shuttle_gives_two(self):
        assert period(graph6()) == 2

    def test_directed_triangle_gives_three(self):
        g = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        assert period(g) == 3

    def test_acyclic_graph_has_none(self):
        g = Digraph(3, frozenset({(1, 2), (2, 3)}))
        assert period(g) is None
        cls = is_ergodic(g)
        assert not cls.aperiodic and not cls.ergodic


class TestErgodic:
    def test_cyclic_example(self):
        cls = is_ergodic(graph2())
        assert cls.ergodic and cls.irreducible and cls.aperiodic
        assert cls.period == 1
        assert cls.uniform_walk_length is not None

    def test_periodic_example(self):
        cls = is_ergodic(graph6())
        assert cls.irreducible and not cls.aperiodic and not cls.ergodic
        assert cls.period == 2
        assert cls.uniform_walk_length is None

    def test_complete_with_loops(self):
        edges = {(v, w) for v in range(1, 4) for w in range(1, 4)}
        cls = is_ergodic(Digraph(3, frozenset(edges)))
        assert cls.ergodic
        assert cls.uniform_walk_length == 1


class TestUniformWalkLength:
    def test_single_loop(self):
        assert uniform_walk_length(Digraph(1, frozenset({(1, 1)}))) == 1

    def test_cyclic_example_matches_oracle(self):
        g = graph2()
        q0 = uniform_walk_length(g)
        assert q0 == oracle_uniform_walk_length(g)
        assert q0 == 3  # the longest shortest path; loops pad everything longer

    def test_triangle_plus_loop_matches_oracle(self):
        g = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1), (1, 1)}))
        q0 = uniform_walk_length(g)
        assert q0 == oracle_uniform_walk_length(g)
        assert q0 == 4

    def test_requires_ergodic(self):
        with pytest.raises(iv.PreconditionError):
            uniform_walk_length(graph6())

    def test_matches_oracle_on_all_ergodic_four_vertex_graphs(self, census4):
        for mask in census4.ergodic_masks:
            g = digraph_from_mask(4, mask)
            assert uniform_walk_length(g) == oracle_uniform_walk_length(g), mask


class TestTgStep:
    def test_constant_colorings_are_fixed(self):
        g = graph2()
        for c in (1, 0, -1):
            coloring = TriStateColoring((c,) * 4)
            assert tg_step(g, coloring) == coloring

    def test_cyclic_example_single_plus_dies(self):
        g = graph2()
        out = tg_step(g, TriStateColoring((1, 0, 0, 0)))
        assert out.values == (0, 0, 0, 0)

    def test_requires_in_neighbors_everywhere(self):
        g = Digraph(2, frozenset({(1, 2)}))  # vertex 1 has no in-edge
        with pytest.raises(iv.PreconditionError, match="vertex 1"):
            tg_step(g, TriStateColoring((1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(iv.ShapeError):
            tg_step(graph2(), TriStateColoring((1, 0)))


class TestTgStabilize:
    def test_constant_start_stops_at_zero(self):
        report = tg_stabilize(graph2(), TriStateColoring((1, 1, 1, 1)))
        assert report.steps_to_constant == 0
        assert report.constant_value == 1

    def test_mixed_start_reaches_zero(self):
        report = tg_stabilize(graph2(), TriStateColoring((1, 0, -1, 0)))
        assert report.steps_to_constant is not None
        assert report.steps_to_constant <= 3 ** 4
        assert report.constant_value == 0

    def test_periodic_graph_never_stabilizes(self):
        report = tg_stabilize(graph6(), TriStateColoring((1, 1, -1, -1)))
        assert report.steps_to_constant is None
        assert report.constant_value is None
        # the labels shuttle between the two blocks forever; the run stops
        # at the first repeat
        assert report.trace[1].values == (-1, -1, 1, 1)
        assert report.trace[2].values == (1, 1, -1, -1)
        assert len(report.trace) == 3
        assert report.repeats_step == 0

    def test_directed_cycle_stops_at_first_repeat(self):
        # on the 10-cycle the tri-state step is a rotation: the coloring
        # comes back after 10 steps, long before the 3^10 cap
        g = incidence(tuple(((i - 1) % 10 or 10,) for i in range(1, 11)))
        c0 = TriStateColoring((1, -1, 0, 0, 0, 0, 0, 0, 0, 0))
        report = tg_stabilize(g, c0)
        assert report.steps_to_constant is None and report.constant_value is None
        assert len(report.trace) == 11
        assert report.final == c0 and report.repeats_step == 0
        assert len(set(c.values for c in report.trace[:-1])) == 10

    def test_cap_still_applies(self):
        report = tg_stabilize(graph6(), TriStateColoring((1, 1, -1, -1)), max_steps=1)
        assert len(report.trace) == 2
        assert report.steps_to_constant is None and report.repeats_step is None

    def test_trace_starts_at_c0(self):
        c0 = TriStateColoring((0, 1, 0, -1))
        report = tg_stabilize(graph2(), c0)
        assert report.trace[0] == c0


colorings4 = st.tuples(*([st.sampled_from([-1, 0, 1])] * 4))


class TestTgMonotone:
    @given(a=colorings4, b=colorings4)
    @settings(max_examples=300, deadline=None)
    def test_step_preserves_pointwise_order(self, a, b):
        lo = tuple(min(x, y) for x, y in zip(a, b))
        hi = tuple(max(x, y) for x, y in zip(a, b))
        g = graph2()
        out_lo = tg_step(g, TriStateColoring(lo)).values
        out_hi = tg_step(g, TriStateColoring(hi)).values
        assert all(x <= y for x, y in zip(out_lo, out_hi))


class TestCensus:
    def test_one_vertex(self):
        census = classify_all_small_graphs(1)
        assert census.total == 2
        assert census.agreed
        assert census.ergodic_count == 1  # just the loop

    def test_two_vertices(self):
        census = classify_all_small_graphs(2)
        assert census.total == 16
        assert census.agreed

    def test_three_vertices(self):
        census = classify_all_small_graphs(3)
        assert census.total == 512
        assert census.agreed

    def test_five_vertices_refused(self):
        with pytest.raises(ValueError, match="n <= 4"):
            classify_all_small_graphs(5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_production_matches_set_based_oracle(self, n):
        # exhaustive third opinion, written with sets instead of bitmasks
        for mask in range(1 << (n * n)):
            g = digraph_from_mask(n, mask)
            assert is_irreducible(g) == oracle_irreducible(g), mask
            assert period(g) == oracle_period(g), mask

    def test_mask_roundtrip(self):
        g = graph2()
        mask = 0
        for a, b in g.edges:
            mask |= 1 << ((a - 1) * 4 + (b - 1))
        assert digraph_from_mask(4, mask) == g


class TestTriStateBoundSampled:
    """Stabilization within 3^n steps on sampled ergodic 5-vertex graphs."""

    def _random_ergodic(self, rng: Random, n: int) -> Digraph:
        while True:
            edges = {
                (v, w)
                for v in range(1, n + 1)
                for w in range(1, n + 1)
                if rng.random() < 0.35
            }
            g = Digraph(n, frozenset(edges))
            if is_ergodic(g).ergodic:
                return g

    def test_sampled_five_vertex_graphs(self):
        rng = Random(505)
        cap = 3 ** 5
        runs = 0
        for _ in range(100):
            g = self._random_ergodic(rng, 5)
            for _ in range(100):
                c0 = TriStateColoring(tuple(rng.choice((-1, 0, 1)) for _ in range(5)))
                report = tg_stabilize(g, c0, max_steps=cap)
                runs += 1
                assert report.steps_to_constant is not None
                assert report.steps_to_constant <= cap
                if not c0.is_constant or c0.constant_value == 0:
                    assert report.constant_value == 0
        assert runs == 10_000
