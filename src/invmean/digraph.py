"""Directed graphs on {1, ..., n}: ergodicity and tri-state label dynamics.

Conventions
-----------
Vertices are the integers 1..n.  A walk of length q is a sequence of q
edges; a cycle is a nonempty walk whose first and last vertices are its
only repeated vertices.  A digraph is

* irreducible  -- every ordered pair (v, w) is joined by a walk of
  length >= 1 (so a single loopless vertex is NOT irreducible);
* aperiodic    -- it has a cycle and the gcd of all cycle lengths is 1
  (an acyclic graph is classified as not aperiodic: it cannot be
  ergodic anyway, and "no period" reads better than "period 1");
* ergodic      -- irreducible and aperiodic.

For an ergodic digraph there is a least q0 such that every ordered pair
is joined by a walk of every exact length q >= q0 (the index of
primitivity of the adjacency matrix); Wielandt's bound caps it at
(n-1)^2 + 1.

The tri-state operator T maps a coloring c: V -> {-1, 0, +1} to the
coloring that assigns a vertex +1 when all its in-neighbors are +1, -1
when all are -1, and 0 otherwise.  Its +1 set evolves as
f(S) = {v : in(v) subset S}, and so does its -1 set; after q steps the
set is {v : every walk of length q into v starts in S}.  On an ergodic
digraph every coloring therefore reaches a constant one within q0 steps
(A^q0 is all-ones, so f^q0 empties every S != V), and that constant is
0 unless the start was constant +1 or -1.  The bound is attained: a
coloring that is +1 everywhere except a 0 at a vertex v whose row
A^q[v] becomes all-ones last stays nonconstant for q0 - 1 steps.  On any
digraph T is deterministic on the 3^n colorings, so every trajectory is
constant from some step on or cycles through nonconstant colorings
forever; `tg_stabilize` records the trajectory up to the first constant
or first repeated coloring.

An initial class is a strongly connected class that no edge enters
from outside.  Walks into it start in it, and walking back from any
vertex that has an in-neighbour ends in one.  An initial class of period
d splits into d cyclic classes C_0, ..., C_(d-1), and each of its edges
goes from some C_k to C_(k+1 mod d).  These classes decide whether a
mapping on a graph that is not ergodic still contracts (see
`averaging.falsify_contractivity`), and when it does not, they are the
brackets its iteration closes (see `invariant.invariant_mean_eval`).

Internally adjacency is held as per-vertex bitmasks (bit w-1 of
out_masks[v-1] set iff edge (v, w)), without any array dependency.
Classification costs what the graph is: one pass finds the SCCs, their
periods and the initial classes and visits each edge a constant number
of times, and q0 takes O(q0 * |E|) word ORs (one OR per edge per
adjacency power).  `Digraph` computes it once and caches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InternalConsistencyError, PreconditionError, ShapeError, ValidationError

if TYPE_CHECKING:
    from .averaging import IndexVector

__all__ = [
    "Digraph",
    "TriStateColoring",
    "GraphClassification",
    "InitialClass",
    "TgReport",
    "build_incidence_graph",
    "is_ergodic",
    "tg_step",
    "tg_stabilize",
]


@dataclass(frozen=True)
class Digraph:
    """A digraph on vertices 1..n_vertices with a set of ordered edges.

    Loops (v, v) are allowed; duplicate edges collapse into the set.
    """

    n_vertices: int
    edges: frozenset

    def __post_init__(self) -> None:
        n = self.n_vertices
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"n_vertices must be a positive integer, got {n!r}")
        edges = frozenset((a, b) for a, b in self.edges)
        for a, b in edges:
            if type(a) is not int or type(b) is not int:  # also rejects bool
                raise ValidationError(f"edge ({a!r}, {b!r}) has a non-integer vertex")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValidationError(f"edge ({a}, {b}) outside vertex range 1..{n}")
        object.__setattr__(self, "edges", edges)

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n_vertices
        for a, b in self.edges:
            masks[a - 1] |= 1 << (b - 1)
        return tuple(masks)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n_vertices
        for a, b in self.edges:
            masks[b - 1] |= 1 << (a - 1)
        return tuple(masks)

    @cached_property
    def _classification(self) -> GraphClassification:
        n = self.n_vertices
        irreducible, per, initial = _classify_masks(self.out_masks, n)
        ergodic = irreducible and per == 1
        q0 = _uniform_walk_length_masks(self.out_masks, n) if ergodic else None
        return GraphClassification(irreducible, per, q0, initial)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __str__(self) -> str:
        return f"Digraph(n={self.n_vertices}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class TriStateColoring:
    """A total map from vertices 1..n to {-1, 0, +1}, stored positionally:
    values[v-1] is the color of vertex v."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        for v in vals:
            if type(v) is not int or v not in (-1, 0, 1):  # also rejects bool
                raise ValidationError(f"coloring value {v!r} not in {{-1, 0, 1}}")
        if not vals:
            raise ValidationError("coloring must cover at least one vertex")
        object.__setattr__(self, "values", vals)

    @property
    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    @property
    def constant_value(self) -> int | None:
        return self.values[0] if self.is_constant else None


class InitialClass(NamedTuple):
    """One initial class, its vertex sets as bitmasks (bit v-1 for vertex v).

    `cyclic_classes` are its d cyclic classes C_0, ..., C_(d-1), where d
    is its period and C_0 holds its lowest vertex; each edge of the class
    goes from some C_k to C_(k+1 mod d).  A class without a cycle, a
    vertex with no in-neighbour, has period None and is its own cyclic
    class."""

    vertices: int
    period: int | None
    cyclic_classes: tuple[int, ...]


@dataclass(frozen=True)
class GraphClassification:
    """Irreducibility, period, ergodicity and initial classes of one digraph.

    `uniform_walk_length` is the least q0 with all-pairs walks of every
    exact length >= q0; it exists iff the graph is ergodic.
    `initial_classes` are ordered by their lowest vertex.
    """

    irreducible: bool
    period: int | None
    uniform_walk_length: int | None
    initial_classes: tuple[InitialClass, ...]

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    @property
    def ergodic(self) -> bool:
        return self.irreducible and self.aperiodic

    @property
    def one_aperiodic_initial_class(self) -> bool:
        """Exactly one initial class, and it is aperiodic: the graph shape on
        which a mapping of strict means has an invariant mean K (see
        `averaging.falsify_contractivity`)."""
        return len(self.initial_classes) == 1 and self.initial_classes[0].period == 1


@dataclass(frozen=True)
class TgReport:
    """Result of iterating the tri-state operator from a start coloring.

    `repeats_step` is the index of the earlier trace entry that `final`
    repeats, when the run stopped on a cycle of nonconstant colorings.
    """

    final: TriStateColoring
    steps_to_constant: int | None
    constant_value: int | None
    trace: tuple[TriStateColoring, ...]
    repeats_step: int | None = None


# ---------------------------------------------------------------------------
# construction


def build_incidence_graph(alpha: IndexVector) -> Digraph:
    """Incidence graph of an index vector: an edge from alpha[i][j] to i+1
    for every row i and position j ("argument k feeds coordinate i").

    Duplicate edges collapse.  The IndexVector has already checked that
    every index lies in 1..p.
    """
    edges = frozenset((a, i) for i, row in enumerate(alpha.rows, start=1) for a in row)
    return Digraph(alpha.p, edges)


# ---------------------------------------------------------------------------
# classification


def _tarjan_sccs(out_masks: Sequence[int], n: int) -> list[list[int]]:
    """Strongly connected components (0-based), iterative Tarjan."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, next_w = work[-1]
            if next_w == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            m = out_masks[v] >> next_w << next_w
            while m:
                bit = m & -m
                m ^= bit
                w = bit.bit_length() - 1
                if index[w] == -1:
                    work[-1] = (v, w + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
    return comps


def _classify_masks(out_masks: Sequence[int], n: int) -> tuple[bool, int | None, tuple]:
    """(irreducible, period, initial classes) from bitmask adjacency.

    The period is the gcd of all cycle lengths, computed per strongly
    connected component from BFS-level differences across internal edges
    (0 for an acyclic singleton), then combined over the components; None
    when the graph is acyclic.  Tarjan emits the components sinks first, so
    in reverse every edge between two components goes to a later one: a
    component is initial when no earlier one has an edge into it.  Its
    cyclic classes are its BFS levels mod its period, counted from the
    level of its lowest vertex and filled in one pass over the component.
    """
    comps = _tarjan_sccs(out_masks, n)
    irreducible = len(comps) == 1 and any(out_masks)
    g = 0
    entered = 0  # the heads of the edges out of the components seen so far
    initial = []
    for comp in reversed(comps):
        comp_mask = 0
        for v in comp:
            comp_mask |= 1 << v
        is_initial = not entered & comp_mask
        root = comp[0]
        level = {root: 0}
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            m = out_masks[v] & comp_mask
            while m:
                bit = m & -m
                m ^= bit
                w = bit.bit_length() - 1
                if w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
        d = 0
        for v in comp:
            entered |= out_masks[v]
            m = out_masks[v] & comp_mask
            lv = level[v] + 1
            while m:
                bit = m & -m
                m ^= bit
                d = math.gcd(d, lv - level[bit.bit_length() - 1])
        g = math.gcd(g, d)
        if is_initial:
            low = level[min(comp)]
            cyclic = [0] * (d or 1)
            for v in comp:
                cyclic[(level[v] - low) % len(cyclic)] |= 1 << v
            initial.append(InitialClass(comp_mask, d or None, tuple(cyclic)))
    initial.sort(key=lambda c: c.vertices & -c.vertices)
    return irreducible, (g if g > 0 else None), tuple(initial)


def _uniform_walk_length_masks(out_masks: Sequence[int], n: int) -> int:
    """Least q with the boolean adjacency power A^q all-ones; hard-capped
    at Wielandt's bound (n-1)^2 + 1.

    Rows are stepped with the successor recurrence
    A^(q+1)[v] = OR_{w in out(v)} A^q[w], one OR per edge per power, so
    the whole search costs O(q0 * |E|) word ORs.

    The least all-ones power is q0 without checking A^(q+1): if A^q is
    all-ones, every ordered pair is joined by a walk of length q >= 1, so
    the graph is irreducible and every vertex v has an out-neighbour;
    then A^(q+1)[v] ORs at least one all-ones row and is all-ones itself,
    and by induction so is every later power.
    """
    full = (1 << n) - 1
    cap = (n - 1) ** 2 + 1
    successors = []
    for m in out_masks:
        ws = []
        while m:
            bit = m & -m
            m ^= bit
            ws.append(bit.bit_length() - 1)
        successors.append(ws)
    power = list(out_masks)
    for q in range(1, cap + 1):
        if power.count(full) == n:
            return q
        nxt = []
        for ws in successors:
            row = 0
            for w in ws:
                row |= power[w]
            nxt.append(row)
        power = nxt
    raise InternalConsistencyError(
        f"no all-ones adjacency power up to the Wielandt bound {cap}; "
        "the graph cannot be ergodic"
    )


def is_ergodic(g: Digraph) -> GraphClassification:
    """Full classification record; ergodic iff irreducible and aperiodic.

    Computed on the first call for a graph and cached on it, so every
    caller holding the same `Digraph` shares one classification."""
    return g._classification


# ---------------------------------------------------------------------------
# tri-state dynamics


def _coloring_masks(c: TriStateColoring) -> tuple[int, int]:
    plus = 0
    minus = 0
    for i, v in enumerate(c.values):
        if v == 1:
            plus |= 1 << i
        elif v == -1:
            minus |= 1 << i
    return plus, minus


def tg_step(g: Digraph, c: TriStateColoring) -> TriStateColoring:
    """One step of the tri-state operator: a vertex becomes +1 when all of
    its in-neighbors are +1, -1 when all are -1, and 0 otherwise.

    Every vertex must have at least one in-neighbor: on a vertex with none
    the rule is vacuous for both signs at once, so it is rejected rather
    than silently resolved.
    """
    n = g.n_vertices
    if len(c.values) != n:
        raise ShapeError(f"coloring covers {len(c.values)} vertices, graph has {n}")
    in_masks = g.in_masks
    for v in range(n):
        if in_masks[v] == 0:
            raise PreconditionError(f"vertex {v + 1} has no in-neighbors")
    plus, minus = _coloring_masks(c)
    new_values = []
    for v in range(n):
        m = in_masks[v]
        if m & plus == m:
            new_values.append(1)
        elif m & minus == m:
            new_values.append(-1)
        else:
            new_values.append(0)
    return TriStateColoring(tuple(new_values))


def tg_stabilize(g: Digraph, c0: TriStateColoring, max_steps: int | None = None) -> TgReport:
    """Iterate tg_step until the coloring is constant, repeats an earlier
    coloring, or max_steps is hit.

    steps_to_constant is the first index at which the coloring is constant
    (0 when c0 already is).  A repeated nonconstant coloring proves that
    the trajectory never becomes constant, as happens on periodic graphs:
    the run stops there with steps_to_constant and constant_value None and
    the repeat as the last trace entry.  On an ergodic graph the coloring
    is constant within q0 steps, the graph's uniform walk length, and some
    coloring needs exactly q0 (see the module docstring).  On any graph,
    without max_steps, one of the two happens within 3^n steps, the
    number of colorings.
    """
    if max_steps is not None and max_steps < 1:
        raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
    c = c0
    trace = [c]
    seen = {c.values: 0}
    k = 0
    while not c.is_constant:
        if k == max_steps:
            return TgReport(c, None, None, tuple(trace))
        c = tg_step(g, c)
        k += 1
        trace.append(c)
        if c.values in seen:
            return TgReport(c, None, None, tuple(trace), repeats_step=seen[c.values])
        seen[c.values] = k
    return TgReport(c, k, c.constant_value, tuple(trace))
