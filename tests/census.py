"""Exhaustive small-graph census: the package's classifier against a
brute-force cycle-enumeration oracle on every digraph with n <= 4 vertices,
brute-force oracles for the contractivity dichotomy (surviving sets of
f(S) = {v : in(v) subset of S}, and initial classes) on every incidence
graph with n <= 4 vertices, and the tri-state run with no step bound.

A census graph is an edge bitmask: bit (v-1)*n + (w-1) set iff edge (v, w).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from invmean import Digraph
from invmean.digraph import _classify_masks


def digraph_from_mask(n: int, mask: int) -> Digraph:
    """Decode the census encoding: bit (v-1)*n + (w-1) set iff edge (v, w)."""
    edges = {
        (v, w)
        for v in range(1, n + 1)
        for w in range(1, n + 1)
        if mask >> ((v - 1) * n + (w - 1)) & 1
    }
    return Digraph.from_edges(n, frozenset(edges))


@dataclass(frozen=True)
class CensusMismatch:
    """One digraph where the production classifier and the brute-force
    oracle disagreed; triples are (irreducible, period, ergodic)."""

    n: int
    edge_mask: int
    production: tuple
    oracle: tuple

    @property
    def edges(self) -> list[tuple[int, int]]:
        return digraph_from_mask(self.n, self.edge_mask).sorted_edges()


@dataclass(frozen=True)
class SmallGraphCensus:
    """Outcome of classifying every digraph on n vertices twice."""

    n: int
    total: int
    mismatches: tuple[CensusMismatch, ...]
    irreducible_count: int
    ergodic_count: int
    ergodic_masks: tuple[int, ...]

    @property
    def agreed(self) -> bool:
        return not self.mismatches


def _candidate_simple_cycles(n: int) -> list[tuple[int, int]]:
    """All simple directed cycles on n labelled vertices as
    (edge_mask, length), each cycle listed once (smallest vertex first)."""
    cycles = []
    for k in range(1, n + 1):
        for verts in itertools.permutations(range(n), k):
            if verts[0] != min(verts):
                continue
            mask = 0
            for i in range(k):
                a = verts[i]
                b = verts[(i + 1) % k]
                mask |= 1 << (a * n + b)
            cycles.append((mask, k))
    return cycles


def _bool_product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Rows of the boolean matrix product A*B, both given as row bitmasks:
    row v ORs the rows b[w] for every bit w set in a[v]."""
    rows = []
    for v in range(n):
        row = 0
        for w in range(n):
            if a[v] >> w & 1:
                row |= b[w]
        rows.append(row)
    return rows


def _oracle_classify(edge_mask: int, out_masks: Sequence[int], n: int,
                     cycles: Sequence[tuple[int, int]]) -> tuple[bool, int | None]:
    """(irreducible, period) by brute force: period is the gcd over every
    simple cycle actually present, irreducibility is all-pairs reachability
    accumulated over walk lengths 1..n."""
    g = 0
    for cmask, length in cycles:
        if edge_mask & cmask == cmask:
            g = math.gcd(g, length)
    per = g if g > 0 else None
    full = (1 << n) - 1
    power = list(out_masks)
    reach = list(out_masks)
    for _ in range(n - 1):
        power = _bool_product(power, out_masks, n)
        for v in range(n):
            reach[v] |= power[v]
    irreducible = all(row == full for row in reach)
    return irreducible, per


def classify_all_small_graphs(n: int) -> SmallGraphCensus:
    """Classify every digraph on n vertices (2^(n^2) of them) with both the
    production algorithm and the brute-force oracle; report disagreements.

    Limited to n <= 4: the count is 2^(n^2) and n = 5 would already mean
    33 million graphs.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > 4:
        raise ValueError(f"census limited to n <= 4 (2^{n * n} graphs requested)")
    cycles = _candidate_simple_cycles(n)
    total = 1 << (n * n)
    row_mask = (1 << n) - 1
    mismatches = []
    irreducible_count = 0
    ergodic_count = 0
    ergodic_masks = []
    for edge_mask in range(total):
        out_masks = [(edge_mask >> (v * n)) & row_mask for v in range(n)]
        in_masks = [sum((m >> w & 1) << v for v, m in enumerate(out_masks)) for w in range(n)]
        irr, per, _ = _classify_masks(out_masks, in_masks, n)
        erg = irr and per == 1
        o_irr, o_per = _oracle_classify(edge_mask, out_masks, n, cycles)
        o_erg = o_irr and o_per == 1
        if (irr, per, erg) != (o_irr, o_per, o_erg):
            mismatches.append(CensusMismatch(n, edge_mask, (irr, per, erg), (o_irr, o_per, o_erg)))
        if irr:
            irreducible_count += 1
        if erg:
            ergodic_count += 1
            ergodic_masks.append(edge_mask)
    return SmallGraphCensus(
        n=n,
        total=total,
        mismatches=tuple(mismatches),
        irreducible_count=irreducible_count,
        ergodic_count=ergodic_count,
        ergodic_masks=tuple(ergodic_masks),
    )


# ---------------------------------------------------------------------------
# walk sources: the contractivity dichotomy of `falsify_contractivity`


def incidence_graph_masks(n: int) -> list[int]:
    """Every census mask on n vertices in which each vertex has an
    in-neighbour, which is every incidence graph of an index vector."""
    cols = [sum(1 << (v * n + w) for v in range(n)) for w in range(n)]
    return [mask for mask in range(1 << (n * n)) if all(mask & c for c in cols)]


def disjoint_survivors(in_masks: Sequence[int], steps: Sequence[int]) -> list[bool]:
    """Brute force, for each step count n in `steps`: iterate
    f(S) = {v : in(v) subset of S} n times from every nonempty S, and report
    whether two disjoint sets both survive (f^n(S) nonempty).

    f and each power f^k are tabulated over all 2^p sets.  f is monotone,
    so a superset of a survivor survives, and two disjoint survivors exist
    exactly when some S and its complement both survive."""
    p = len(in_masks)
    full = (1 << p) - 1
    f = [0] * (full + 1)
    for v, m in enumerate(in_masks):
        s = m
        while s <= full:  # every superset s of in(v), in increasing order
            f[s] |= 1 << v
            s = (s + 1) | m
    power = list(range(full + 1))  # f^0
    found = {}
    for k in range(1, max(steps) + 1):
        power = [f[t] for t in power]
        if k in steps:
            found[k] = any(power[s] and power[full ^ s] for s in range(1, full))
    return [found[n] for n in steps]


def _union(rows: Sequence[int], mask: int) -> int:
    """The OR of rows[u] over the bits u of mask."""
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= rows[bit.bit_length() - 1]
    return out


def one_aperiodic_initial_class(in_masks: Sequence[int]) -> bool:
    """Brute force: the graph has exactly one initial class (a strongly
    connected class that no edge enters from outside), and that class is
    aperiodic: the gcd of the lengths k <= p of the closed walks at its
    vertices is 1.  A closed walk at a vertex of an initial class stays in
    the class, and every cycle is a closed walk of length <= p."""
    p = len(in_masks)
    # reach[w]: the vertices with a walk of length >= 1 to w (Warshall)
    reach = list(in_masks)
    for k in range(p):
        for w in range(p):
            if reach[w] >> k & 1:
                reach[w] |= reach[k]
    initial = set()
    for w in range(p):
        cls = 1 << w | sum(1 << v for v in range(p) if reach[w] >> v & 1 and reach[v] >> w & 1)
        if _union(in_masks, cls) & ~cls == 0:
            initial.add(cls)
    if len(initial) != 1:
        return False
    (cls,) = initial
    period = 0
    walks = [1 << w for w in range(p)]  # walks[w]: starts of the length-k walks into w
    for k in range(1, p + 1):
        walks = [_union(walks, m) for m in in_masks]
        if any(cls >> w & 1 and walks[w] >> w & 1 for w in range(p)):
            period = math.gcd(period, k)
    return period == 1


# ---------------------------------------------------------------------------
# tri-state runs without a step bound


def tg_until_repeat(in_masks: Sequence[int], c0: Sequence[int]):
    """The tri-state run from c0 with no step bound: it stops only at the
    first constant coloring or the first repeated one.  Bit u of
    in_masks[v] is set iff u + 1 is an in-neighbour of v + 1.  Returns
    (trace, steps_to_constant, constant_value, repeats_step), the trace a
    list of tuples."""
    preds = [[u for u in range(len(in_masks)) if m >> u & 1] for m in in_masks]
    trace = [tuple(c0)]
    seen = {trace[0]: 0}
    while len(set(trace[-1])) > 1:
        c = trace[-1]
        nxt = tuple(vals.pop() if len(vals := {c[u] for u in ws}) == 1 else 0 for ws in preds)
        trace.append(nxt)
        if nxt in seen:
            return trace, None, None, seen[nxt]
        seen[nxt] = len(trace) - 1
    return trace, len(trace) - 1, trace[-1][0], None
