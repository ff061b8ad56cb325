"""Graph construction, classification, walk lengths, tri-state dynamics.

The classifier is checked four ways: against hand-read edge sets of the
bundled mappings, against the census oracle in census.py, (for n <= 3,
exhaustively) against a second brute-force oracle written here with sets
instead of bitmasks, and (for drawn graphs up to n = 40) against a numpy
reference built from adjacency matrix powers.  The uniform walk length
of circulant graphs, searched on one row of the powers, is held to the
same reference, and to the search over every row.  The tri-state run,
which stops at step (n-1)^2 + 1, is held to a run with no bound
(census.py) and to the index of convergence of numpy Boolean powers.
"""

import itertools
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmean as iv
from invmean import (
    Digraph,
    IndexVector,
    TriStateColoring,
    build_incidence_graph,
    is_ergodic,
    tg_stabilize,
    tg_step,
)
from invmean import digraph
from invmean.digraph import InitialClass, _classify_masks, _is_circulant
from census import (
    classify_all_small_graphs,
    digraph_from_mask,
    disjoint_survivors,
    incidence_graph_masks,
    one_aperiodic_initial_class,
    tg_until_repeat,
)

# incidence graphs of the bundled index vectors
ALPHA2 = ((1, 2), (2, 3), (3, 4), (4, 1))
ALPHA3 = ((1, 2), (1, 2), (3, 4), (3, 4))
ALPHA5 = ((1, 2), (1, 2), (2, 4), (3, 4))
ALPHA6 = ((3, 4), (3, 4), (1, 2), (1, 2))


def incidence(rows) -> Digraph:
    return build_incidence_graph(IndexVector(rows))


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


def _bool_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.minimum(a @ b, 1)


def _trace_period(a: np.ndarray) -> int | None:
    """gcd of the k <= n with tr A^k > 0 (every simple cycle has length
    <= n); None without a cycle."""
    lengths = []
    power = a.copy()
    for k in range(1, len(a) + 1):
        if np.trace(power) > 0:
            lengths.append(k)
        power = _bool_mul(power, a)
    return math.gcd(*lengths) if lengths else None


def numpy_reference(g: Digraph) -> tuple[bool, int | None, int | None, list[tuple]]:
    """(irreducible, period, q0, initial classes) from 0/1 adjacency matrix
    powers: irreducible iff sum_{k=1..n} A^k > 0 everywhere, period by
    `_trace_period`, q0 = the least q with A^q > 0 everywhere, None when no
    power up to Wielandt's bound (n-1)^2 + 1 is.  The initial classes are
    the classes of mutual reachability that no edge enters from outside,
    ordered by lowest vertex, each as (vertices, period, cyclic classes):
    the period d is the trace period of the class's own adjacency matrix,
    and cyclic class C_k holds the vertices that the lowest one reaches by
    walks of a length = k mod d, for k = 0..d-1 (1-based vertex tuples; a
    class without a cycle is its own cyclic class)."""
    n = g.n_vertices
    a = np.zeros((n, n), dtype=np.int64)
    for v, w in g.edges:
        a[v - 1, w - 1] = 1
    power = a.copy()
    reach = a.copy()
    for _ in range(n - 1):
        power = _bool_mul(power, a)
        reach |= power
    power = a.copy()
    q0 = None
    for q in range(1, (n - 1) ** 2 + 2):
        if power.all():
            q0 = q
            break
        power = _bool_mul(power, a)
    same = (reach > 0) & (reach > 0).T | np.eye(n, dtype=bool)
    initial = []
    for cls in sorted({tuple(int(v) for v in np.flatnonzero(row)) for row in same}):
        outside = [v for v in range(n) if v not in cls]
        if a[np.ix_(outside, cls)].any():
            continue
        sub = a[np.ix_(cls, cls)]
        d = _trace_period(sub)
        step = np.eye(len(cls), dtype=np.int64)
        for _ in range(d or 1):
            step = _bool_mul(step, sub)
        seen = np.zeros(len(cls), dtype=np.int64)
        seen[0] = 1
        for _ in range(len(cls)):
            seen |= _bool_mul(seen, step)
        cyclic = []
        for _ in range(d or 1):  # C_(k+1) is what one step reaches from C_k
            cyclic.append(tuple(cls[k] + 1 for k in np.flatnonzero(seen)))
            seen = _bool_mul(seen, sub)
        initial.append((tuple(v + 1 for v in cls), d, tuple(cyclic)))
    return bool(reach.all()), _trace_period(a), q0, initial


def initial_sets(g: Digraph) -> list[tuple]:
    """`is_ergodic(g).initial_classes` as (vertices, period, cyclic
    classes), the vertex sets as 1-based tuples."""

    def vertices(mask: int) -> tuple[int, ...]:
        return tuple(v + 1 for v in range(g.n_vertices) if mask >> v & 1)

    return [(vertices(c.vertices), c.period, tuple(map(vertices, c.cyclic_classes)))
            for c in is_ergodic(g).initial_classes]


def wielandt_graph(n: int) -> Digraph:
    """The n-cycle 1 -> 2 -> ... -> n -> 1 plus the chord n -> 2: the
    graph whose uniform walk length meets Wielandt's bound (n-1)^2 + 1."""
    edges = {(v, v % n + 1) for v in range(1, n + 1)} | {(n, 2)}
    return Digraph.from_edges(n, frozenset(edges))


def ring_with_loops(p: int) -> Digraph:
    """Incidence graph of the ring with loops: coordinate i reads i and i+1."""
    return incidence(tuple((i, i % p + 1) for i in range(1, p + 1)))


def circulant(n: int, offsets) -> Digraph:
    """The circulant digraph on 1..n: an edge (v, v + c mod n) for every
    vertex v and offset c."""
    return Digraph.from_edges(
        n, frozenset((v, (v - 1 + c) % n + 1) for v in range(1, n + 1) for c in offsets))


@st.composite
def drawn_graphs(draw, max_n: int = 40) -> Digraph:
    """A digraph on 1..n, n <= max_n: a base (nothing, an n-cycle or a
    path) plus a few drawn edges, or independently drawn out-neighbor
    sets.  Sparse cycles with chords give long walk lengths and periods
    above one; the drawn sets give dense graphs."""
    n = draw(st.integers(1, max_n))
    base = draw(st.sampled_from(["none", "cycle", "path", "dense"]))
    edges = set()
    if base == "cycle":
        edges |= {(v, v % n + 1) for v in range(1, n + 1)}
    elif base == "path":
        edges |= {(v, v + 1) for v in range(1, n)}
    elif base == "dense":
        for v in range(1, n + 1):
            row = draw(st.integers(0, (1 << n) - 1))
            edges |= {(v, w) for w in range(1, n + 1) if row >> (w - 1) & 1}
    vertex = st.integers(1, n)
    edges |= set(draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)))
    return Digraph.from_edges(n, frozenset(edges))


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
        g = build_incidence_graph(IndexVector(ALPHA2))
        assert g.n_vertices == 4
        edges = frozenset((a, i) for i, row in enumerate(ALPHA2, 1) for a in row)
        assert g == Digraph.from_edges(4, edges)

    def test_duplicates_collapse(self):
        g = incidence(((1, 1, 1),))
        assert g.edges == frozenset({(1, 1)})

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_checked_digraph(self, data):
        # the graph makes both masks in one pass over the checked rows, and
        # no edge pair: it equals the graph of its edges, checked pair by pair
        p = data.draw(st.integers(1, 12))
        rows = data.draw(st.lists(
            st.lists(st.integers(1, p), min_size=1, max_size=4), min_size=p, max_size=p,
        ))
        g = build_incidence_graph(IndexVector(rows))
        checked = Digraph.from_edges(p, [(a, i) for i, row in enumerate(rows, 1) for a in row])
        assert g == checked and hash(g) == hash(checked)
        assert (g.out_masks, g.in_masks) == (checked.out_masks, checked.in_masks)
        assert is_ergodic(g) == is_ergodic(checked)
        assert g.sorted_edges() == sorted(checked.edges)
        assert "edges" not in vars(g)  # no edge set on the incidence-graph path

    def test_index_of_an_int_subclass_is_an_int_edge(self):
        class Index(int):
            pass

        g = build_incidence_graph(IndexVector(((Index(2),), (1,))))
        assert g == Digraph.from_edges(2, frozenset({(2, 1), (1, 2)}))
        assert {type(v) for edge in g.edges for v in edge} == {int}


class TestInNeighbors:
    def test_cyclic_example(self):
        g = graph2()
        assert {a for a, b in g.edges if b == 1} == frozenset({1, 2})
        assert {a for a, b in g.edges if b == 4} == frozenset({4, 1})

    def test_empty_graph(self):
        g = Digraph.from_edges(3, frozenset())
        assert {a for a, b in g.edges if b == 2} == frozenset()

    def test_loop_only(self):
        g = Digraph.from_edges(2, frozenset({(1, 1), (2, 2)}))
        assert {a for a, b in g.edges if b == 1} == frozenset({1})

    def test_non_integer_vertices_rejected(self):
        with pytest.raises(iv.ValidationError, match="non-integer"):
            Digraph.from_edges(2, frozenset({(1.7, 2)}))
        with pytest.raises(iv.ValidationError, match="non-integer"):
            Digraph.from_edges(2, frozenset({(True, 2)}))

    def test_vertex_outside_the_range_rejected(self):
        with pytest.raises(iv.ValidationError, match=r"^edge \(1, 3\) outside vertex range 1\.\.2$"):
            Digraph.from_edges(2, {(1, 3)})

    @pytest.mark.parametrize("edges", [{(1, 2, 3)}, [1], 5, [([1], 2)]])
    def test_edges_that_are_not_pairs_rejected(self, edges):
        with pytest.raises(iv.ValidationError, match="edges must be pairs of vertices"):
            Digraph.from_edges(2, edges)

    @pytest.mark.parametrize("n", [True, 2.0, 0])
    def test_vertex_count_must_be_a_positive_int(self, n):
        # a bool is rejected here as it is as an edge vertex
        with pytest.raises(iv.ValidationError, match="^n_vertices must be an integer >= 1, got "):
            Digraph.from_edges(n, frozenset())
        with pytest.raises(iv.ValidationError, match="^n_vertices must be an integer >= 1, got "):
            Digraph(n, (0, 0))


class TestMasks:
    """A `Digraph` is its out-masks; the in-masks, the edge set and the
    sorted edges are read off them."""

    def test_the_fields_are_the_masks(self):
        g = Digraph(3, (0b011, 0b100, 0b001))
        assert g.sorted_edges() == [(1, 1), (1, 2), (2, 3), (3, 1)]
        assert g.edges == frozenset(g.sorted_edges())
        assert g.in_masks == (0b101, 0b001, 0b010)
        assert g == Digraph.from_edges(3, g.edges) == incidence(((1, 3), (1,), (2,)))

    @pytest.mark.parametrize("masks", [
        [0, 0], (0,), (0, 0, 0), (0, 4), (-1, 0), (0, True), (0, 1.0), "ab",
    ])
    def test_masks_are_n_ints_below_two_to_the_n(self, masks):
        message = r"^out_masks must be 2 ints in \[0, 2\^2\), got "
        with pytest.raises(iv.ValidationError, match=message):
            Digraph(2, masks)

    @staticmethod
    def assert_read_off(n, mask):
        """The graph of census mask: its edges in order, as a sort of the
        checked edge list gives them, and its in-masks their transpose."""
        edges = [(v, w) for v in range(1, n + 1) for w in range(1, n + 1)
                 if mask >> ((v - 1) * n + (w - 1)) & 1]
        g = Digraph.from_edges(n, edges[::-1])
        assert g.sorted_edges() == sorted(Digraph.from_edges(n, edges).edges) == edges, mask
        assert g.in_masks == tuple(sum(1 << (v - 1) for v, x in edges if x == w)
                                   for w in range(1, n + 1)), mask

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_graph(self, n):
        for mask in range(1 << (n * n)):
            self.assert_read_off(n, mask)

    def test_ergodic_four_vertex_graphs(self, census4):
        for mask in census4.ergodic_masks:
            self.assert_read_off(4, mask)


class TestIrreducible:
    def test_cyclic_example_true(self):
        assert is_ergodic(graph2()).irreducible

    def test_disconnected_false(self):
        assert not is_ergodic(graph3()).irreducible

    def test_one_way_feed_false(self):
        assert not is_ergodic(graph5()).irreducible

    def test_single_vertex_needs_loop(self):
        assert not is_ergodic(Digraph.from_edges(1, frozenset())).irreducible
        assert is_ergodic(Digraph.from_edges(1, frozenset({(1, 1)}))).irreducible


class TestPeriod:
    def test_loops_everywhere_gives_one(self):
        assert is_ergodic(graph2()).period == 1

    def test_bipartite_shuttle_gives_two(self):
        assert is_ergodic(graph6()).period == 2

    def test_directed_triangle_gives_three(self):
        g = Digraph.from_edges(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        assert is_ergodic(g).period == 3

    def test_acyclic_graph_has_none(self):
        g = Digraph.from_edges(3, frozenset({(1, 2), (2, 3)}))
        cls = is_ergodic(g)
        assert cls.period is None
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
        cls = is_ergodic(Digraph.from_edges(3, frozenset(edges)))
        assert cls.ergodic
        assert cls.uniform_walk_length == 1


class TestUniformWalkLength:
    def test_single_loop(self):
        assert is_ergodic(Digraph.from_edges(1, frozenset({(1, 1)}))).uniform_walk_length == 1

    def test_cyclic_example_matches_oracle(self):
        g = graph2()
        q0 = is_ergodic(g).uniform_walk_length
        assert q0 == oracle_uniform_walk_length(g)
        assert q0 == 3  # the longest shortest path; loops pad everything longer

    def test_triangle_plus_loop_matches_oracle(self):
        g = Digraph.from_edges(3, frozenset({(1, 2), (2, 3), (3, 1), (1, 1)}))
        q0 = is_ergodic(g).uniform_walk_length
        assert q0 == oracle_uniform_walk_length(g)
        assert q0 == 4

    def test_requires_ergodic(self):
        assert is_ergodic(graph6()).uniform_walk_length is None

    def test_matches_oracle_on_all_ergodic_four_vertex_graphs(self, census4):
        for mask in census4.ergodic_masks:
            g = digraph_from_mask(4, mask)
            assert is_ergodic(g).uniform_walk_length == oracle_uniform_walk_length(g), mask

    @pytest.mark.parametrize("n", range(2, 41))
    def test_wielandt_graph_meets_the_bound(self, n):
        assert is_ergodic(wielandt_graph(n)).uniform_walk_length == (n - 1) ** 2 + 1

    def test_ring_with_loops_is_p_minus_one(self):
        for p in range(2, 257):
            assert is_ergodic(ring_with_loops(p)).uniform_walk_length == p - 1, p

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 10, 16, 25, 40])
    def test_mixed_out_degrees_match_the_numpy_reference(self, n):
        # the n-cycle makes the graph irreducible; each vertex adds a drawn
        # number of other out-neighbours, mostly none to two, so many rows
        # of out-degree 1 to 3 (stepped in blocks) sit beside rows of up to
        # n successors (stepped one by one)
        rng = Random(f"q0:{n}")
        ergodic_degrees = []  # the out-degrees of each ergodic graph
        for _ in range(30):
            edges = {(v, v % n + 1) for v in range(1, n + 1)}
            for v in range(1, n + 1):
                extra = min(n, rng.choice([0, 0, 1, 1, 1, 2, 2, rng.randint(0, n - 1)]))
                edges |= {(v, w) for w in rng.sample(range(1, n + 1), extra)}
            if n == 1 or rng.random() < 0.3:
                edges.add((1, 1))  # a loop makes the graph aperiodic
            g = Digraph.from_edges(n, frozenset(edges))
            degrees = [bin(m).count("1") for m in g.out_masks]
            q0 = numpy_reference(g)[2]
            assert is_ergodic(g).uniform_walk_length == q0, sorted(edges)
            if q0 is not None:
                ergodic_degrees.append(degrees)
        assert len(ergodic_degrees) >= 10
        assert any(1 in degrees and max(degrees) > 1 for degrees in ergodic_degrees) or n == 1


class TestCirculantWalkLength:
    """q0 of a circulant graph is searched on row 0 of its powers alone;
    every other graph steps all its rows.  Both are held to the numpy
    reference, and `_is_circulant` says which search a graph takes."""

    @staticmethod
    def blocked(g: Digraph) -> int:
        """q0 by stepping every row, as a graph that is not circulant is."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(digraph, "_is_circulant", lambda out_masks, n: False)
            return digraph._uniform_walk_length_masks(g.out_masks, g.n_vertices)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_connection_set(self, n):
        ergodic = 0
        for connections in range(1 << n):
            g = circulant(n, [c for c in range(n) if connections >> c & 1])
            assert _is_circulant(g.out_masks, n)
            q0 = numpy_reference(g)[2]
            assert is_ergodic(g).uniform_walk_length == q0, connections
            if q0 is not None:
                ergodic += 1
                assert self.blocked(g) == q0, connections
        # every set holding offsets 0 and 1 (loops and the n-cycle) is ergodic
        assert ergodic >= 1 << max(0, n - 2)

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_seeded_random_circulants(self, n):
        # offsets with gcd 1 with n, and differences with gcd 1 with n, give
        # an irreducible and aperiodic graph: the reference then stops at
        # q0 rather than stepping its powers up to Wielandt's cap
        rng = Random(f"circulant:{n}")
        drawn = 0
        while drawn < 4:
            offsets = rng.sample(range(n), rng.randint(2, 4))
            if math.gcd(n, *offsets) > 1 or math.gcd(n, *(c - offsets[0] for c in offsets)) > 1:
                continue
            drawn += 1
            g = circulant(n, offsets)
            assert _is_circulant(g.out_masks, n)
            q0 = numpy_reference(g)[2]
            assert q0 is not None, sorted(offsets)
            assert is_ergodic(g).uniform_walk_length == q0, sorted(offsets)

    @pytest.mark.parametrize("p", [3, 8, 17, 32])
    def test_ring_with_one_chord_steps_every_row(self, p):
        rng = Random(f"chord:{p}")
        ring = ring_with_loops(p)
        assert _is_circulant(ring.out_masks, p)
        for _ in range(4):
            chord = rng.choice(sorted({(v, w) for v in range(1, p + 1)
                                       for w in range(1, p + 1)} - ring.edges))
            g = Digraph.from_edges(p, ring.edges | {chord})
            assert not _is_circulant(g.out_masks, p), chord
            q0 = numpy_reference(g)[2]
            assert q0 is not None
            assert is_ergodic(g).uniform_walk_length == q0, chord

    @pytest.mark.parametrize("n", [4, 9, 16, 33])
    def test_circulant_less_one_edge_steps_every_row(self, n):
        rng = Random(f"less-one:{n}")
        for _ in range(4):
            full = circulant(n, [0, 1, *rng.sample(range(2, n), 2)])
            edge = rng.choice(sorted(full.edges))
            g = Digraph.from_edges(n, full.edges - {edge})
            assert not _is_circulant(g.out_masks, n), edge
            assert is_ergodic(g).uniform_walk_length == numpy_reference(g)[2], edge


class TestSeparatedWalkSources:
    """Two coordinates keep disjoint walk-source sets for ever unless the
    graph has exactly one initial class and it is aperiodic; the initial
    classes come from the cached classification."""

    def test_example2_separates_for_one_step_only(self):
        # B_1(1) = in(1) = {1, 2} and B_1(3) = {3, 4}; B_2 rows all meet
        assert initial_sets(graph2()) == [((1, 2, 3, 4), 1, ((1, 2, 3, 4),))]
        assert disjoint_survivors(graph2().in_masks, (1, 2)) == [True, False]

    def test_periodic_graph_separates_at_every_length(self):
        assert initial_sets(graph6()) == [((1, 2, 3, 4), 2, ((1, 2), (3, 4)))]
        assert disjoint_survivors(graph6().in_masks, (1, 2, 3, 10)) == [True] * 4
        # the p-cycle: one class of period p, and each vertex is a cyclic
        # class, C_k = {k + 1}
        for p in (2, 5, 64, 128):
            cycle = Digraph.from_edges(p, frozenset((v, v % p + 1) for v in range(1, p + 1)))
            singletons = tuple((v,) for v in range(1, p + 1))
            assert initial_sets(cycle) == [(tuple(range(1, p + 1)), p, singletons)], p

    def test_two_rings_separate_at_a_large_length(self):
        # two disjoint rings with loops on 32 vertices each: one aperiodic
        # initial class each, so the rings' sources stay apart for every n
        edges = {(v, v) for v in range(1, 65)}
        edges |= {(v, v % 32 + 1) for v in range(1, 33)}
        edges |= {(v, (v - 32) % 32 + 33) for v in range(33, 65)}
        rings = [tuple(range(1, 33)), tuple(range(33, 65))]
        assert initial_sets(Digraph.from_edges(64, edges)) == [(r, 1, (r,)) for r in rings]
        ring = tuple(range(1, 65))
        assert initial_sets(ring_with_loops(64)) == [(ring, 1, (ring,))]

    def test_downstream_vertices_and_sources(self):
        # example5 reads rows (1,2), (1,2), (2,4), (3,4): {1, 2} is the only
        # initial class, and a vertex with no in-edge is an acyclic one
        assert initial_sets(graph5()) == [((1, 2), 1, ((1, 2),))]
        g = Digraph.from_edges(3, frozenset({(1, 2), (2, 2), (3, 2)}))
        assert initial_sets(g) == [((1,), None, ((1,),)), ((3,), None, ((3,),))]

    @pytest.mark.parametrize("p", [3, 4])
    def test_census_matches_the_survivor_oracle(self, p):
        # every incidence graph on p vertices, at the step count (p-1)^2 + 1
        # of `falsify_contractivity`: disjoint sets survive exactly when the
        # graph does not have one aperiodic initial class
        n0 = (p - 1) ** 2 + 1
        for mask in incidence_graph_masks(p):
            g = digraph_from_mask(p, mask)
            single = is_ergodic(g).one_aperiodic_initial_class
            assert single == one_aperiodic_initial_class(g.in_masks), mask
            assert single != disjoint_survivors(g.in_masks, (n0,))[0], mask


class TestNumpyReference:
    @given(g=drawn_graphs())
    @settings(max_examples=200, deadline=None)
    def test_classification_matches(self, g):
        cls = is_ergodic(g)
        got = (cls.irreducible, cls.period, cls.uniform_walk_length, initial_sets(g))
        assert got == numpy_reference(g)

    def test_reference_reads_the_closed_forms(self):
        # the reference itself agrees with the known walk lengths
        nine, twelve = tuple(range(1, 10)), tuple(range(1, 13))
        assert numpy_reference(wielandt_graph(9)) == (True, 1, 65, [(nine, 1, (nine,))])
        assert numpy_reference(ring_with_loops(12)) == (True, 1, 11, [(twelve, 1, (twelve,))])
        assert numpy_reference(graph6()) == (
            True, 2, None, [((1, 2, 3, 4), 2, ((1, 2), (3, 4)))]
        )
        # the 3-cycle with the chord 1 -> 3 closes a 2-cycle: period 1
        chord = Digraph.from_edges(3, frozenset({(1, 2), (2, 3), (3, 1), (1, 3)}))
        assert numpy_reference(chord)[3] == [((1, 2, 3), 1, ((1, 2, 3),))]
        # the 6-cycle with the chord 3 -> 1 closes a 3-cycle: period 3
        six = Digraph.from_edges(6, frozenset({(v, v % 6 + 1) for v in range(1, 7)} | {(3, 1)}))
        assert numpy_reference(six)[3] == [(tuple(range(1, 7)), 3, ((1, 4), (2, 5), (3, 6)))]
        # two sources with no in-edge feeding a loop
        assert numpy_reference(Digraph.from_edges(3, frozenset({(1, 2), (2, 2), (3, 2)})))[3] == [
            ((1,), None, ((1,),)), ((3,), None, ((3,),))
        ]


class TestDeepGraphs:
    """3000-vertex graphs against their closed forms.  Their DFS trees are
    3000 deep, past the default recursion limit, so these pass only with
    an iterative DFS; the periods and cyclic classes come from the tree
    depths.  `_classify_masks` is called directly: the chord graph is
    ergodic, and its uniform walk length is of order 3000^2 powers."""

    N = 3000

    def classify(self, edges):
        g = Digraph.from_edges(self.N, frozenset(edges))
        return _classify_masks(g.out_masks, g.in_masks, self.N)

    def cycle(self):
        return {(v, v % self.N + 1) for v in range(1, self.N + 1)}

    def test_cycle_has_period_n(self):
        # one class of period N; vertex k + 1 alone is the cyclic class C_k
        irreducible, period, initial = self.classify(self.cycle())
        assert (irreducible, period) == (True, self.N)
        assert initial == (InitialClass((1 << self.N) - 1, self.N,
                                        tuple(1 << k for k in range(self.N))),)

    @pytest.mark.parametrize("chord, period", [((1, 3), 1), ((3, 1), 3)])
    def test_cycle_with_a_chord(self, chord, period):
        # 1 -> 3 closes a (N-1)-cycle, gcd(N, N-1) = 1; 3 -> 1 closes a
        # 3-cycle, gcd(N, 3) = 3 and C_k = {v : v - 1 = k mod 3}
        irreducible, got, initial = self.classify(self.cycle() | {chord})
        assert (irreducible, got) == (True, period)
        cyclic = tuple(
            sum(1 << v for v in range(k, self.N, period)) for k in range(period)
        )
        assert initial == (InitialClass((1 << self.N) - 1, period, cyclic),)

    def test_path_is_acyclic_with_one_source(self):
        irreducible, period, initial = self.classify(
            {(v, v + 1) for v in range(1, self.N)}
        )
        assert (irreducible, period) == (False, None)
        assert initial == (InitialClass(1, None, (1,)),)


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
        g = Digraph.from_edges(2, frozenset({(1, 2)}))  # vertex 1 has no in-edge
        with pytest.raises(iv.PreconditionError, match="vertex 1"):
            tg_step(g, TriStateColoring((1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(iv.ShapeError):
            tg_step(graph2(), TriStateColoring((1, 0)))

    def test_non_integer_colors_rejected(self):
        with pytest.raises(iv.ValidationError):
            TriStateColoring((0.5, 1, -1.2))
        with pytest.raises(iv.ValidationError):
            TriStateColoring((True, 0, -1))

    def test_empty_coloring_rejected(self):
        with pytest.raises(iv.ValidationError, match="^coloring must cover at least one vertex$"):
            TriStateColoring(())

    def test_coloring_that_is_not_a_sequence_rejected(self):
        with pytest.raises(iv.ValidationError, match="coloring must be a sequence, got 5"):
            TriStateColoring(5)


class TestTgStabilize:
    def test_constant_start_stops_at_zero(self):
        report = tg_stabilize(graph2(), TriStateColoring((1, 1, 1, 1)))
        assert report.steps_to_constant == 0
        assert report.constant_value == 1

    def test_mixed_start_reaches_zero(self):
        report = tg_stabilize(graph2(), TriStateColoring((1, 0, -1, 0)))
        assert report.steps_to_constant is not None
        assert report.steps_to_constant <= is_ergodic(graph2()).uniform_walk_length
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
        # comes back after 10 steps, before the bound (10-1)^2 + 1 = 82
        g = incidence(tuple(((i - 1) % 10 or 10,) for i in range(1, 11)))
        c0 = TriStateColoring((1, -1, 0, 0, 0, 0, 0, 0, 0, 0))
        report = tg_stabilize(g, c0)
        assert report.steps_to_constant is None and report.constant_value is None
        assert len(report.trace) == 11
        assert report.trace[-1] == c0 and report.repeats_step == 0
        assert len(set(c.values for c in report.trace[:-1])) == 10

    @pytest.mark.parametrize("values", [(1, 1), (1, 0), (1, 1, 1, 1, 1)])
    def test_coloring_length_checked_before_any_step(self, values):
        # a constant c0 of the wrong length used to stop at 0 steps unchecked
        with pytest.raises(iv.ShapeError, match=f"covers {len(values)} vertices, graph has 4"):
            tg_stabilize(graph2(), TriStateColoring(values))

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
            cls = is_ergodic(g)
            assert cls.irreducible == oracle_irreducible(g), mask
            assert cls.period == oracle_period(g), mask

    def test_mask_roundtrip(self):
        g = graph2()
        mask = 0
        for a, b in g.edges:
            mask |= 1 << ((a - 1) * 4 + (b - 1))
        assert digraph_from_mask(4, mask) == g


class TestTriStateBoundSampled:
    """Stabilization within q0 steps, the uniform walk length, on sampled
    ergodic 5-vertex graphs."""

    def _random_ergodic(self, rng: Random, n: int) -> Digraph:
        while True:
            edges = {
                (v, w)
                for v in range(1, n + 1)
                for w in range(1, n + 1)
                if rng.random() < 0.35
            }
            g = Digraph.from_edges(n, frozenset(edges))
            if is_ergodic(g).ergodic:
                return g

    def test_sampled_five_vertex_graphs(self):
        rng = Random(505)
        runs = 0
        for _ in range(100):
            g = self._random_ergodic(rng, 5)
            q0 = is_ergodic(g).uniform_walk_length
            for _ in range(100):
                c0 = TriStateColoring(tuple(rng.choice((-1, 0, 1)) for _ in range(5)))
                report = tg_stabilize(g, c0)
                runs += 1
                assert report.steps_to_constant is not None
                assert report.steps_to_constant <= q0
                if len(set(c0.values)) > 1 or c0.values[0] == 0:
                    assert report.constant_value == 0
        assert runs == 10_000


def prime_cycles(lengths) -> tuple[list[list[int]], list[int]]:
    """The index vector of disjoint directed cycles of the given lengths,
    each vertex reading its predecessor on its cycle, and the coloring with
    +1 on the first vertex of each cycle and 0 elsewhere: the first repeat
    comes at the lcm of the lengths."""
    rows, c0, start = [], [], 1
    for n in lengths:
        rows += [[start + (i - 1) % n] for i in range(n)]
        c0 += [1] + [0] * (n - 1)
        start += n
    return rows, c0


def convergence_index(g: Digraph) -> int:
    """The index of convergence k(A) of the adjacency matrix, by numpy
    Boolean powers: the least k >= 0 such that A^k recurs as a later
    power."""
    n = g.n_vertices
    a = np.zeros((n, n), dtype=np.int64)
    for v, w in g.edges:
        a[v - 1, w - 1] = 1
    first = {}
    power = np.eye(n, dtype=np.int64)
    for j in range(10_000):
        key = power.tobytes()
        if key in first:
            return first[key]
        first[key] = j
        power = _bool_mul(power, a)
    raise AssertionError("no recurring power")


def random_tg_graph(rng: Random, n: int) -> Digraph:
    """A digraph on 1..n with an in-neighbour at every vertex: dense drawn
    edges, or disjoint cycles plus a few drawn edges, which give periods
    above one and long transients."""
    edges = set()
    if rng.random() < 0.4:
        density = rng.uniform(0.05, 0.5)
        edges = {(v, w) for v in range(1, n + 1) for w in range(1, n + 1)
                 if rng.random() < density}
    else:
        vertices = list(range(1, n + 1))
        rng.shuffle(vertices)
        while vertices:
            k = rng.randint(1, len(vertices))
            cycle, vertices = vertices[:k], vertices[k:]
            edges |= {(cycle[i - 1], cycle[i]) for i in range(k)}
        for _ in range(rng.randint(0, 3)):
            edges.add((rng.randint(1, n), rng.randint(1, n)))
    for w in range(1, n + 1):
        if not any(b == w for _, b in edges):
            edges.add((rng.randint(1, n), w))
    return Digraph.from_edges(n, frozenset(edges))


def assert_bounded_run_agrees(g: Digraph, c0: TriStateColoring) -> tuple:
    """tg_stabilize from c0 against the run with no bound: the same step
    and constant, a trace that is a prefix of the unbounded one, and an
    end at the first constant, the first repeat or step (n-1)^2 + 1.
    Returns the unbounded run."""
    bound = (g.n_vertices - 1) ** 2 + 1
    want = tg_until_repeat(g.in_masks, c0.values)
    trace, steps, constant, repeats = want
    report = tg_stabilize(g, c0)
    got = [c.values for c in report.trace]
    assert got == trace[:bound + 1], (g.sorted_edges(), c0.values)
    assert (report.steps_to_constant, report.constant_value) == (steps, constant)
    assert report.repeats_step == (repeats if len(trace) <= bound + 1 else None)
    return want


class TestTgBound:
    """`tg_stabilize` stops at step (n-1)^2 + 1, which bounds the index of
    convergence k(A) of every n x n Boolean matrix: a coloring that ever
    becomes constant does so by step k(A), so the bound loses no run."""

    def test_bound_loses_nothing_on_the_census(self):
        """Every 4-vertex graph with an in-neighbour at each vertex (15^4 =
        50 625 graphs) with every coloring in {-1, 0, 1}^4 (4 100 625 runs):
        no run that is ever constant gets there after step 10 = (4-1)^2 + 1,
        so stopping at step 10 changes no run's step or constant.

        The +1 set P and the -1 set M of a coloring step independently by
        f(S) = {v : in(v) subset S}, and the empty set and V are fixed
        points of f, so the run is first constant at step max(h(P), h(M)),
        where h(S) is the first step at which f^h(S) is empty or V, and never
        when either set never gets there.  numpy steps all 16 subsets of all
        graphs at once, 16 steps, which runs each subset's orbit past its
        first repeat.  tg_stabilize itself is held to `tg_until_repeat` on
        every coloring of every graph that takes the full 10 steps, and of
        a seeded sample of the others."""
        in_masks = np.array(list(itertools.product(range(1, 16), repeat=4)), dtype=np.int64)
        subsets = np.arange(16)
        inside = (in_masks[:, None, :] & ~subsets[None, :, None] & 15) == 0
        f = inside @ (1 << np.arange(4))  # f[g, S] as a bitmask
        cur = np.broadcast_to(subsets, f.shape).copy()
        hit = np.full(f.shape, -1)
        for k in range(17):
            hit[(hit < 0) & ((cur == 0) | (cur == 15))] = k
            cur = np.take_along_axis(f, cur, axis=1)
        pairs = [(p, m) for p in range(16) for m in range(16) if not p & m]
        plus, minus = np.array(pairs).T
        hp, hm = hit[:, plus], hit[:, minus]
        steps = np.where((hp >= 0) & (hm >= 0), np.maximum(hp, hm), -1)
        assert steps.size == 4_100_625
        assert steps.max() == 10  # the bound is met, by Wielandt's graph
        slowest = set(np.flatnonzero((steps == 10).any(axis=1)).tolist())
        rng = Random(41)
        chosen = slowest | set(rng.sample(range(len(in_masks)), 200))
        colorings = [TriStateColoring(c) for c in itertools.product((-1, 0, 1), repeat=4)]
        for index in sorted(chosen):
            masks = in_masks[index].tolist()
            g = Digraph.from_edges(4, frozenset((u + 1, v + 1) for v, m in enumerate(masks)
                                     for u in range(4) if m >> u & 1))
            for c0 in colorings:
                _, first, _, _ = assert_bounded_run_agrees(g, c0)
                p = sum(1 << v for v, x in enumerate(c0.values) if x == 1)
                m = sum(1 << v for v, x in enumerate(c0.values) if x == -1)
                tabled = steps[index, pairs.index((p, m))]
                assert first == (None if tabled < 0 else tabled)

    def test_random_graphs_index_within_the_bound(self):
        """Graphs up to n = 12: the numpy index of convergence is at most
        (n-1)^2 + 1, a run that is ever constant is constant by step k(A),
        and the bounded run agrees with the unbounded one."""
        rng = Random(1970)
        constant_late = 0
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_tg_graph(rng, n)
            k = convergence_index(g)
            assert k <= (n - 1) ** 2 + 1, g.sorted_edges()
            for _ in range(12):
                c0 = TriStateColoring(tuple(rng.choice((-1, 0, 1)) for _ in range(n)))
                _, steps, _, _ = assert_bounded_run_agrees(g, c0)
                if steps is not None:
                    assert steps <= k, (g.sorted_edges(), c0.values)
                    constant_late += steps > n
        assert constant_late  # some runs are constant only after n steps

    @pytest.mark.parametrize("lengths, lcm", [((2, 3, 5, 7, 11), 2310),
                                              ((2, 3, 5, 7, 11, 13), 30030)])
    def test_prime_cycles_stop_at_the_bound(self, lengths, lcm):
        # the first repeat would come at the lcm of the lengths; the bound
        # (p-1)^2 + 1 ends the run long before it
        rows, c0 = prime_cycles(lengths)
        p = len(rows)
        bound = (p - 1) ** 2 + 1
        assert bound < lcm == math.lcm(*lengths)
        report = tg_stabilize(incidence(rows), TriStateColoring(tuple(c0)))
        assert len(report.trace) == bound + 1
        assert report.steps_to_constant is None and report.constant_value is None
        assert report.repeats_step is None
        # each cycle rotates its one +1 a vertex per step
        starts = list(itertools.accumulate((0,) + lengths[:-1]))
        for k, c in enumerate(report.trace):
            want = [0] * p
            for start, n in zip(starts, lengths):
                want[start + k % n] = 1
            assert c.values == tuple(want), k


class TestTgChecksOnce:
    """`tg_stabilize` checks c0 once, not at every step: one coverage check
    per run, one in-neighbour check when c0 is not constant and none when it
    is, and one coloring made per step, for the trace.  The runs are those
    of `TestTgBound.test_random_graphs_index_within_the_bound`, and each is
    held to the run with no bound as there."""

    def test_one_check_per_run(self, monkeypatch):
        calls = dict.fromkeys(["_sign_masks", "_check_in_neighbours", "_coloring"], 0)
        for name in calls:
            def counted(*args, fn=getattr(digraph, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(digraph, name, counted)
        rng = Random(1970)
        runs = steps = 0
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_tg_graph(rng, n)
            for _ in range(12):
                c0 = TriStateColoring(tuple(rng.choice((-1, 0, 1)) for _ in range(n)))
                calls.update(dict.fromkeys(calls, 0))
                trace = assert_bounded_run_agrees(g, c0)[0]
                taken = min(len(trace), (n - 1) ** 2 + 2) - 1
                assert calls == {"_sign_masks": 1, "_check_in_neighbours": len(set(c0.values)) > 1,
                                 "_coloring": taken}, (g.sorted_edges(), c0.values)
                runs += 1
                steps += taken
        assert runs == 1800 and steps > 4 * runs  # a check per step would show

    def test_tg_step_is_the_same_step(self):
        rng = Random(42)
        for _ in range(100):
            n = rng.randint(1, 12)
            g = random_tg_graph(rng, n)
            c0 = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
            trace = tg_until_repeat(g.in_masks, c0)[0]
            # a constant coloring is its own step
            assert tg_step(g, TriStateColoring(c0)).values == trace[min(1, len(trace) - 1)], c0
