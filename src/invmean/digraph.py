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
when all are -1, and 0 otherwise.  On an ergodic digraph every coloring
reaches a constant one within 3^n steps, and that constant is 0 unless
the start was constant +1 or -1.  T is deterministic on finitely many
colorings, so every trajectory is constant from some step on or cycles
through nonconstant colorings forever; `tg_stabilize` records the
trajectory up to the first constant or first repeated coloring.

Internally adjacency is held as per-vertex bitmasks (bit w-1 of
out_masks[v-1] set iff edge (v, w)), which keeps classification fast
without any array dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .errors import InternalConsistencyError, PreconditionError, ShapeError, ValidationError

if TYPE_CHECKING:
    from .averaging import IndexVector

__all__ = [
    "Digraph",
    "TriStateColoring",
    "GraphClassification",
    "TgReport",
    "build_incidence_graph",
    "in_neighbors",
    "is_irreducible",
    "period",
    "is_ergodic",
    "uniform_walk_length",
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
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
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
        vals = tuple(int(v) for v in self.values)
        for v in vals:
            if v not in (-1, 0, 1):
                raise ValidationError(f"coloring value {v!r} not in {{-1, 0, 1}}")
        if not vals:
            raise ValidationError("coloring must cover at least one vertex")
        object.__setattr__(self, "values", vals)

    def value(self, v: int) -> int:
        return self.values[v - 1]

    @property
    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    @property
    def constant_value(self) -> int | None:
        return self.values[0] if self.is_constant else None


@dataclass(frozen=True)
class GraphClassification:
    """Irreducibility, period, and ergodicity of one digraph.

    `uniform_walk_length` is the least q0 with all-pairs walks of every
    exact length >= q0; it exists iff the graph is ergodic.
    """

    irreducible: bool
    period: int | None
    aperiodic: bool
    ergodic: bool
    uniform_walk_length: int | None

    def __post_init__(self) -> None:
        if self.ergodic != (self.irreducible and self.aperiodic):
            raise ValidationError("ergodic must equal irreducible and aperiodic")
        if (self.uniform_walk_length is not None) != self.ergodic:
            raise ValidationError("uniform_walk_length must be present iff ergodic")


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


def in_neighbors(g: Digraph, v: int) -> frozenset:
    """The set {w : (w, v) is an edge}."""
    if not 1 <= v <= g.n_vertices:
        raise ValidationError(f"vertex {v} outside 1..{g.n_vertices}")
    mask = g.in_masks[v - 1]
    return frozenset(w + 1 for w in range(g.n_vertices) if mask >> w & 1)


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
            m = out_masks[v] >> next_w
            w = next_w
            while m:
                if m & 1:
                    if index[w] == -1:
                        work[-1] = (v, w + 1)
                        work.append((w, 0))
                        descended = True
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                m >>= 1
                w += 1
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


def _classify_masks(out_masks: Sequence[int], n: int) -> tuple[bool, int | None]:
    """(irreducible, period) from bitmask adjacency.

    The period is the gcd of all cycle lengths, computed per strongly
    connected component from BFS-level differences across internal edges,
    then combined over the components that contain a cycle; None when the
    graph is acyclic.
    """
    comps = _tarjan_sccs(out_masks, n)
    irreducible = len(comps) == 1 and any(out_masks)
    g = 0
    for comp in comps:
        comp_mask = 0
        for v in comp:
            comp_mask |= 1 << v
        if not any(out_masks[v] & comp_mask for v in comp):
            continue  # acyclic singleton component
        root = comp[0]
        level = {root: 0}
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            m = out_masks[v] & comp_mask
            w = 0
            while m:
                if (m & 1) and w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
                m >>= 1
                w += 1
        d = 0
        for v in comp:
            m = out_masks[v] & comp_mask
            lv = level[v]
            w = 0
            while m:
                if m & 1:
                    d = math.gcd(d, lv + 1 - level[w])
                m >>= 1
                w += 1
        g = math.gcd(g, d)
    return irreducible, (g if g > 0 else None)


def _bool_matmul(a: Sequence[int], out_masks: Sequence[int], n: int) -> list[int]:
    """Rows of the boolean product A*B where B is the adjacency itself."""
    result = []
    for v in range(n):
        m = a[v]
        row = 0
        w = 0
        while m:
            if m & 1:
                row |= out_masks[w]
            m >>= 1
            w += 1
        result.append(row)
    return result


def _uniform_walk_length_masks(out_masks: Sequence[int], n: int) -> int:
    """Least q with the boolean adjacency power A^q all-ones, confirmed
    stable by also checking A^(q+1); hard-capped at Wielandt's bound."""
    full = (1 << n) - 1
    cap = (n - 1) ** 2 + 1
    power = list(out_masks)
    for q in range(1, cap + 1):
        if all(row == full for row in power):
            nxt = _bool_matmul(power, out_masks, n)
            if all(row == full for row in nxt):
                return q
        power = _bool_matmul(power, out_masks, n)
    raise InternalConsistencyError(
        f"no stable all-ones adjacency power up to the Wielandt bound {cap}; "
        "the graph cannot be ergodic"
    )


def is_irreducible(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a walk of length >= 1.

    Equivalent to: one strongly connected component and at least one edge
    (so v = w needs a genuine closed walk, not the empty one).
    """
    irreducible, _ = _classify_masks(g.out_masks, g.n_vertices)
    return irreducible


def period(g: Digraph) -> int | None:
    """Gcd of the lengths of all cycles; None when the graph has no cycle."""
    _, per = _classify_masks(g.out_masks, g.n_vertices)
    return per


def is_ergodic(g: Digraph) -> GraphClassification:
    """Full classification record; ergodic iff irreducible and aperiodic."""
    irreducible, per = _classify_masks(g.out_masks, g.n_vertices)
    aperiodic = per == 1
    ergodic = irreducible and aperiodic
    q0 = _uniform_walk_length_masks(g.out_masks, g.n_vertices) if ergodic else None
    return GraphClassification(
        irreducible=irreducible,
        period=per,
        aperiodic=aperiodic,
        ergodic=ergodic,
        uniform_walk_length=q0,
    )


def uniform_walk_length(g: Digraph) -> int:
    """Least q0 such that for all q >= q0 and all pairs (v, w) there is a
    walk from v to w of length exactly q.  Requires an ergodic graph."""
    cls = is_ergodic(g)
    if not cls.ergodic:
        raise PreconditionError(
            "uniform walk length exists only for ergodic digraphs "
            f"(irreducible={cls.irreducible}, period={cls.period})"
        )
    assert cls.uniform_walk_length is not None
    return cls.uniform_walk_length


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
    the repeat as the last trace entry.  Without max_steps one of the two
    always happens within 3^n steps.
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
