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
Classification costs what the graph is: one iterative Tarjan DFS finds
the SCCs and, from the depths of its tree (Denardo 1977), their periods
and cyclic classes, and from the in-masks the initial classes; it visits
each edge once.  q0 takes O(q0 * |E|) word ORs (one OR per edge per
adjacency power), except on a circulant graph, where row v of the
adjacency is row 0 rotated by v: every power of it is circulant too, so
row 0 of each power decides, and q0 takes O(q0 * deg) shifts and ORs of
2n-bit words after an O(n) check that the graph is circulant.  The
incidence graph of every cyclic mapping M_i(x_i, x_(i+1)) is circulant.
`Digraph` computes the classification once and caches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter, or_
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    InternalConsistencyError, PreconditionError, ShapeError, ValidationError, check_count,
)

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
        check_count(n, "n_vertices")
        try:
            edges = frozenset((a, b) for a, b in self.edges)
        except (TypeError, ValueError):  # not iterable, or an edge not a pair
            raise ValidationError(f"edges must be pairs of vertices, got {self.edges!r}") from None
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
        irreducible, per, initial = _classify_masks(self.out_masks, self.in_masks, n)
        ergodic = irreducible and per == 1
        q0 = _uniform_walk_length_masks(self.out_masks, n) if ergodic else None
        return GraphClassification(irreducible, per, q0, initial)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @classmethod
    def _unchecked(cls, n: int, edges: frozenset, out_masks: tuple, in_masks: tuple) -> Digraph:
        """The digraph on n vertices with these edges and adjacency masks,
        made without `__post_init__`: for edges already known to be pairs
        of ints in 1..n, and the masks they give."""
        g = object.__new__(cls)
        g.__dict__.update(n_vertices=n, edges=edges, out_masks=out_masks, in_masks=in_masks)
        return g


@dataclass(frozen=True)
class TriStateColoring:
    """A total map from vertices 1..n to {-1, 0, +1}, stored positionally:
    values[v-1] is the color of vertex v."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            vals = tuple(self.values)
        except TypeError:  # TriStateColoring(5)
            raise ValidationError(f"coloring must be a sequence, got {self.values!r}") from None
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

    `repeats_step` is the index of the earlier trace entry that the last
    one repeats, when the run stopped on a cycle of nonconstant colorings.
    """

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
    every index is an int in 1..p, so the edges are not checked again: one
    pass over the rows gives the edges and both adjacency masks.
    """
    rows = alpha.rows
    out_masks = [0] * len(rows)
    in_masks = []
    edges = set()
    for i, row in enumerate(rows):
        bit = 1 << i
        mask = 0
        for a in row:
            out_masks[a - 1] |= bit
            mask |= 1 << (a - 1)
            edges.add((a, i + 1))
        in_masks.append(mask)
    return Digraph._unchecked(len(rows), frozenset(edges), tuple(out_masks), tuple(in_masks))


# ---------------------------------------------------------------------------
# classification


def _classify_masks(
    out_masks: Sequence[int], in_masks: Sequence[int], n: int
) -> tuple[bool, int | None, tuple]:
    """(irreducible, period, initial classes) from bitmask adjacency, in
    one iterative Tarjan DFS that also records each vertex's tree depth.

    An edge v -> w that the DFS finds with w on the stack joins two
    vertices of one strongly connected component, and every other edge
    inside a component is a tree edge.  The tree path from a component's
    root to a member stays inside the component (the root reaches each
    vertex on it, and each reaches the member, which reaches the root),
    so the depths less the root's are the levels l of a spanning out-tree
    of the component.  Its period d is the gcd g of l(v) + 1 - l(w) over
    its edges (Denardo 1977).  Along a cycle these terms sum to the cycle
    length, so g divides every cycle length and hence d.  Conversely a
    tree path is a walk from the root, so l(v) mod d is the cyclic class
    of v; each edge goes from one class to the next, so d divides every
    term and hence g.  A tree edge adds 0 and the root's depth cancels,
    so the DFS takes the gcd of depth(v) + 1 - depth(w) over the edges to
    stacked vertices only.  A component without an edge, an acyclic
    singleton, has period None; the graph's period is the gcd over its
    components, None when it is acyclic.  A component is initial when no
    in-edge of a member comes from outside it, and its cyclic classes are
    its depths mod d, counted from the depth of its lowest vertex.
    """
    index = [-1] * n  # -1 before the visit, n once the component is done
    low = [0] * n
    depth = [0] * n
    cycle_gcd = [0] * n  # per vertex, over its edges to stacked vertices
    stack: list[int] = []
    initial = []
    g = 0
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
            m = out_masks[v] >> next_w << next_w
            while m:
                bit = m & -m
                m ^= bit
                w = bit.bit_length() - 1
                if index[w] == -1:
                    work[-1] = (v, w + 1)
                    work.append((w, 0))
                    depth[w] = depth[v] + 1
                    break
                if index[w] < n:  # on the stack
                    if index[w] < low[v]:
                        low[v] = index[w]
                    cycle_gcd[v] = math.gcd(cycle_gcd[v], depth[v] + 1 - depth[w])
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                comp = []
                comp_mask = entering = d = 0
                while True:
                    u = stack.pop()
                    index[u] = n
                    comp.append(u)
                    comp_mask |= 1 << u
                    entering |= in_masks[u]
                    d = math.gcd(d, cycle_gcd[u])
                    if u == v:
                        break
                g = math.gcd(g, d)
                if not entering & ~comp_mask:
                    base = depth[min(comp)]
                    cyclic = [0] * (d or 1)
                    for u in comp:
                        cyclic[(depth[u] - base) % len(cyclic)] |= 1 << u
                    initial.append(InitialClass(comp_mask, d or None, tuple(cyclic)))
    initial.sort(key=lambda c: c.vertices & -c.vertices)
    # a single component (it is then initial) with a cycle, not a lone vertex
    irreducible = initial[0].vertices == (1 << n) - 1 and g > 0
    return irreducible, (g if g > 0 else None), tuple(initial)


def _is_circulant(out_masks: Sequence[int], n: int) -> bool:
    """Whether out_masks[v] is out_masks[0] rotated left by v, for every v:
    edge (u, w) iff edge (u + 1, w + 1), vertices counted mod n.  One
    rotation and one compare per row; on most other graphs the compare
    fails at the second row."""
    full = (1 << n) - 1
    row = out_masks[0]
    for m in out_masks[1:]:
        row = (row << 1 | row >> (n - 1)) & full
        if m != row:
            return False
    return True


def _uniform_walk_length_masks(out_masks: Sequence[int], n: int) -> int:
    """Least q with the boolean adjacency power A^q all-ones; hard-capped
    at Wielandt's bound (n-1)^2 + 1.

    A circulant graph (`_is_circulant`) steps row 0 only.  Every power of
    a circulant boolean matrix is circulant, so row w of A^q is row 0
    rotated by w, A^q is all-ones exactly when its row 0 is, and
    A^(q+1)[0] = OR over the offsets c in out(0) of rot(A^q[0], c): one
    shift and OR of a 2n-bit word per offset per power, O(q0 * deg(0))
    word operations after the O(n) check.  Every incidence graph of a
    cyclic mapping M_i(x_i, x_(i+1)), the ring with loops among them, is
    circulant.

    Every other graph steps all its rows with the successor recurrence
    A^(q+1)[v] = OR_{w in out(v)} A^q[w], one word OR per edge per power,
    so that search costs O(q0 * |E|) ORs.  The rows of out-degree d,
    when there are more than 4d of them, are stepped as one block: slot j
    gathers each row's j-th successor with one `itemgetter` (of at least
    five indexes, so it returns a tuple), and each slot after the first is
    ORed in with one `map(or_)`.  A block takes d Python steps however
    many rows it holds.  Each other row is stepped by a Python loop over
    its successors: every OR of big ints allocates, so C saves only the
    per-row overhead that a block spreads over its rows, and `reduce(or_)`
    over an `itemgetter` measured slower than the loop.

    The least all-ones power is q0 without checking A^(q+1): if A^q is
    all-ones, every ordered pair is joined by a walk of length q >= 1, so
    the graph is irreducible and every vertex v has an out-neighbour;
    then A^(q+1)[v] ORs at least one all-ones row and is all-ones itself,
    and by induction so is every later power.  A row without successors
    is 0 in every power.
    """
    full = (1 << n) - 1
    cap = (n - 1) ** 2 + 1
    if _is_circulant(out_masks, n):
        row = out_masks[0]
        # rot(r, c) is (r | r << n) >> (n - c), cut to n bits
        shifts = [n - c for c in range(n) if row >> c & 1]
        for q in range(1, cap + 1):
            if row == full:
                return q
            doubled = row | row << n
            row = 0
            for shift in shifts:
                row |= doubled >> shift
            row &= full
    elif all(degrees := list(map(int.bit_count, out_masks))):
        blocked = {d for d in set(degrees) if degrees.count(d) > 4 * d}
        # a power holds the rows of the blocks, by out-degree, then every
        # other row, in vertex order
        order = sorted([v for v in range(n) if degrees[v] in blocked], key=degrees.__getitem__)
        in_blocks = len(order)
        order += [v for v in range(n) if degrees[v] not in blocked]
        at = sorted(range(n), key=order.__getitem__)  # at[v]: where row v is held
        successors = []  # per row held, where its successors are held
        for v in order:
            m = out_masks[v]
            ws = []
            while m:
                bit = m & -m
                m ^= bit
                ws.append(at[bit.bit_length() - 1])
            successors.append(ws)
        blocks = []  # per block, the getter of each slot
        for d, group in groupby(successors[:in_blocks], key=len):
            group = list(group)
            blocks.append([itemgetter(*[ws[j] for ws in group]) for j in range(d)])
        singles = successors[in_blocks:]
        power = [out_masks[v] for v in order]
        for q in range(1, cap + 1):
            if power.count(full) == n:
                return q
            rows = []
            for slots in blocks:
                block = slots[0](power)
                for get in slots[1:]:
                    block = map(or_, block, get(power))
                rows += block
            for ws in singles:
                row = 0
                for w in ws:
                    row |= power[w]
                rows.append(row)
            power = rows
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


def _check_covers(g: Digraph, c: TriStateColoring) -> None:
    if len(c.values) != g.n_vertices:
        raise ShapeError(f"coloring covers {len(c.values)} vertices, graph has {g.n_vertices}")


def tg_step(g: Digraph, c: TriStateColoring) -> TriStateColoring:
    """One step of the tri-state operator: a vertex becomes +1 when all of
    its in-neighbors are +1, -1 when all are -1, and 0 otherwise.

    Every vertex must have at least one in-neighbor: on a vertex with none
    the rule is vacuous for both signs at once, so it is rejected rather
    than silently resolved.
    """
    _check_covers(g, c)
    in_masks = g.in_masks
    if not all(in_masks):
        raise PreconditionError(f"vertex {in_masks.index(0) + 1} has no in-neighbors")
    plus = sum(1 << i for i, v in enumerate(c.values) if v == 1)
    minus = sum(1 << i for i, v in enumerate(c.values) if v == -1)
    return TriStateColoring(tuple(
        1 if m & plus == m else -1 if m & minus == m else 0 for m in in_masks
    ))


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
    number of colorings.  A c0 that does not cover the vertices of g is a
    ShapeError, constant or not, and a max_steps that is not an int >= 1,
    or is a bool, a ValidationError.
    """
    _check_covers(g, c0)  # before a constant c0 ends the run with no step
    if max_steps is not None:
        check_count(max_steps, "max_steps")
    c = c0
    trace = [c]
    seen = {c.values: 0}
    k = 0
    while not c.is_constant:
        if k == max_steps:
            return TgReport(None, None, tuple(trace))
        c = tg_step(g, c)
        k += 1
        trace.append(c)
        if c.values in seen:
            return TgReport(None, None, tuple(trace), repeats_step=seen[c.values])
        seen[c.values] = k
    return TgReport(k, c.constant_value, tuple(trace))
