"""Exhaustive small-graph census: the package's classifier against a
brute-force cycle-enumeration oracle on every digraph with n <= 4 vertices.

A census graph is an edge bitmask: bit (v-1)*n + (w-1) set iff edge (v, w).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from invmean import Digraph
from invmean.digraph import _bool_matmul, _classify_masks


def digraph_from_mask(n: int, mask: int) -> Digraph:
    """Decode the census encoding: bit (v-1)*n + (w-1) set iff edge (v, w)."""
    edges = {
        (v, w)
        for v in range(1, n + 1)
        for w in range(1, n + 1)
        if mask >> ((v - 1) * n + (w - 1)) & 1
    }
    return Digraph(n, frozenset(edges))


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
        power = _bool_matmul(power, out_masks, n)
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
        irr, per = _classify_masks(out_masks, n)
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
