"""Composed mean-type mappings and their contractivity certificates.

An averaging mapping is a tuple of means M_1, ..., M_p (of arities
d_1, ..., d_p) on a common interval.  An index vector alpha supplies,
for each coordinate i, the d_i argument positions (1-based) that feed
M_i.  The composition is the self-map of I^p

    x  |->  ( M_i(x[alpha[i][1]], ..., x[alpha[i][d_i]]) )_{i=1..p}

whose every coordinate is again a p-variable mean, and whose incidence
graph (edge alpha[i][j] -> i) governs the long-run behaviour of the
iteration: when all component means are strict and the incidence graph
is ergodic, the oscillation max(x) - min(x) strictly shrinks after at
most 3^p applications, uniformly in x.  `certify_uniform_weak_contractivity`
checks exactly those hypotheses and issues the n0 = 3^p certificate;
`falsify_contractivity` hunts for sampled counterexamples at any given
step count, which a single application typically provides (block
vectors such as (a, a, b, b) keep their oscillation for one step).

Both certificate directions are evidence-grade where sampling is
involved: "contractive-sampled" records that no counterexample was
found, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Sequence

from .digraph import Digraph, build_incidence_graph, is_ergodic
from .errors import DomainError, ShapeError, ValidationError
from .means import Interval, Mean, sample_box

__all__ = [
    "IndexVector",
    "AveragingMapping",
    "ComposedMapping",
    "ContractivityCertificate",
    "CERTIFIED",
    "CONTRACTIVE_SAMPLED",
    "FALSIFIED",
    "UNKNOWN",
    "oscillation",
    "certify_uniform_weak_contractivity",
    "falsify_contractivity",
    "contractivity_samples",
]

#: Certificate classes, from strongest to weakest claim.
CERTIFIED = "uniformly-weak-certified"
CONTRACTIVE_SAMPLED = "contractive-sampled"
FALSIFIED = "falsified"
UNKNOWN = "unknown"

_CLASSES = frozenset({CERTIFIED, CONTRACTIVE_SAMPLED, FALSIFIED, UNKNOWN})


@dataclass(frozen=True)
class IndexVector:
    """p rows of 1-based argument positions; row i feeds coordinate i."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # the one place alpha indices are checked; everything downstream
        # (incidence graph, composition, spec files) relies on it
        rows = tuple(tuple(row) for row in self.rows)
        p = len(rows)
        if p < 1:
            raise ValidationError("index vector needs at least one row")
        for i, row in enumerate(rows, start=1):
            if not row:
                raise ValidationError(f"alpha row {i} is empty")
            for j, a in enumerate(row, start=1):
                if not isinstance(a, int) or isinstance(a, bool):
                    raise ValidationError(
                        f"alpha row {i}, position {j}: index {a!r} is not an integer"
                    )
                if not 1 <= a <= p:
                    raise ValidationError(
                        f"alpha row {i}, position {j}: index {a} outside 1..{p}"
                    )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IndexVector":
        return cls(rows)

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)


@dataclass(frozen=True)
class AveragingMapping:
    """The raw tuple of component means, all on the same interval."""

    means: tuple[Mean, ...]
    interval: Interval

    def __post_init__(self) -> None:
        if not self.means:
            raise ValidationError("averaging mapping needs at least one mean")
        object.__setattr__(self, "means", tuple(self.means))
        for i, m in enumerate(self.means, start=1):
            if m.domain != self.interval:
                raise ValidationError(
                    f"mean {i} ({m.label!r}) lives on {m.domain}, mapping on {self.interval}"
                )

    @property
    def p(self) -> int:
        return len(self.means)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(m.arity for m in self.means)


@dataclass(frozen=True)
class ComposedMapping:
    """An averaging mapping composed with an index vector, acting on I^p."""

    base: AveragingMapping
    alpha: IndexVector

    def __post_init__(self) -> None:
        if self.alpha.p != self.base.p:
            raise ShapeError(
                f"index vector has {self.alpha.p} rows for {self.base.p} means"
            )
        for i, (row, mean) in enumerate(zip(self.alpha.rows, self.base.means), start=1):
            if len(row) != mean.arity:
                raise ShapeError(
                    f"alpha row {i} has {len(row)} indexes, mean {i} ({mean.label!r}) "
                    f"has arity {mean.arity}"
                )

    @cached_property
    def graph(self) -> Digraph:
        """The incidence graph of `alpha`, derived on first use."""
        return build_incidence_graph(self.alpha)

    @cached_property
    def _rows0(self) -> tuple[tuple[int, ...], ...]:
        # 0-based argument positions; 1-based stops at the public boundary
        return tuple(tuple(a - 1 for a in row) for row in self.alpha.rows)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def interval(self) -> Interval:
        return self.base.interval

    def _validate_point(self, x: Sequence[float]) -> tuple[float, ...]:
        xs = tuple(float(t) for t in x)
        if len(xs) != self.p:
            raise ShapeError(f"point has {len(xs)} coordinates, mapping acts on I^{self.p}")
        iv = self.interval
        for i, t in enumerate(xs, start=1):
            if not iv.contains(t):
                raise DomainError(f"coordinate {i}={t!r} outside {iv}")
        return xs

    def apply(self, x: Sequence[float]) -> tuple[float, ...]:
        """One application; every output coordinate lies in [min(x), max(x)]."""
        xs = self._validate_point(x)
        means = self.base.means
        return tuple(
            means[i](tuple(xs[j] for j in row)) for i, row in enumerate(self._rows0)
        )

    def __call__(self, x: Sequence[float]) -> tuple[float, ...]:
        return self.apply(x)

    def iterate(self, x: Sequence[float], n: int) -> tuple[tuple[float, ...], ...]:
        """The trace (x, M(x), ..., M^n(x)) of n+1 points."""
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"iteration count must be >= 0, got {n!r}")
        point = self._validate_point(x)
        trace = [point]
        for _ in range(n):
            point = self.apply(point)
            trace.append(point)
        return tuple(trace)


def oscillation(x: Sequence[float]) -> float:
    """max(x) - min(x), the quantity every contractivity notion controls."""
    xs = tuple(float(t) for t in x)
    if not xs:
        raise ShapeError("oscillation of an empty vector")
    return max(xs) - min(xs)


#: Relative oscillation below which a float vector counts as constant.
CONSTANT_VECTOR_RTOL = 1e-13


def is_constant_vector(x: Sequence[float]) -> bool:
    """Floating-point reading of "x is a constant vector": oscillation at
    most 1e-13 * max(1, |max(x)|), since exact equality of iterates is
    unattainable in floating point."""
    xs = tuple(float(t) for t in x)
    return oscillation(xs) <= CONSTANT_VECTOR_RTOL * max(1.0, abs(max(xs)))


@dataclass(frozen=True)
class ContractivityCertificate:
    """What is known about oscillation decay for one composed mapping.

    status is one of:
      * "uniformly-weak-certified" -- all component means carry the strict
        flag and the incidence graph is ergodic; n0 = 3^p steps strictly
        shrink the oscillation of every nonconstant vector.
      * "contractive-sampled"      -- sampling at the stated n0 found no
        counterexample (evidence, not proof).
      * "falsified"                -- a sampled witness kept its oscillation
        after n0 steps.
      * "unknown"                  -- a certification hypothesis failed; the
        evidence names it.
    """

    status: str
    n0: int | None
    evidence: str
    witness: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.status not in _CLASSES:
            raise ValidationError(f"unknown certificate class {self.status!r}")
        if self.status == CERTIFIED and self.n0 is None:
            raise ValidationError("a certified certificate must carry n0")

    def to_json_dict(self) -> dict:
        return {"class": self.status, "n0": self.n0, "evidence": self.evidence}


def certify_uniform_weak_contractivity(m: ComposedMapping) -> ContractivityCertificate:
    """Certify n0 = 3^p uniform oscillation decay, or name the failed
    hypothesis.

    The hypotheses are exactly: every component mean is flagged strict, and
    the incidence graph is ergodic.  Flags are trusted assertions (see
    `validate_mean` for the falsification pass)."""
    reasons = []
    non_strict = [mean.label for mean in m.base.means if not mean.flags.strict]
    if non_strict:
        reasons.append(f"strictness not asserted for {', '.join(sorted(set(non_strict)))}")
    cls = is_ergodic(m.graph)
    if not cls.irreducible:
        reasons.append("graph not irreducible")
    elif not cls.aperiodic:
        reasons.append(f"graph not aperiodic (period {cls.period})")
    if reasons:
        return ContractivityCertificate(UNKNOWN, None, "; ".join(reasons))
    n0 = 3 ** m.p
    return ContractivityCertificate(
        CERTIFIED,
        n0,
        f"all {m.p} component means strict; incidence graph ergodic "
        f"(uniform walk length {cls.uniform_walk_length}); oscillation strictly "
        f"decreases after n0 = 3^{m.p} = {n0} steps for every nonconstant vector",
    )


def contractivity_samples(m: ComposedMapping, rng: Random, n_samples: int) -> list[tuple[float, ...]]:
    """Nonconstant test vectors: two-block patterns (a..a b..b), an
    alternating pattern, near-constant perturbations, then uniform draws.

    Block vectors are where single applications fail to shrink the
    oscillation whenever two equal arguments feed a coordinate, so they
    lead the list."""
    p = m.p
    lo, hi = sample_box(m.interval)
    pts: list[tuple[float, ...]] = []
    pairs = [(lo, hi), (hi, lo)]
    for a, b in pairs:
        for k in range(1, p):
            pts.append((a,) * k + (b,) * (p - k))
        if p >= 2:
            pts.append(tuple(a if i % 2 == 0 else b for i in range(p)))
    mid = 0.5 * (lo + hi)
    eps = 1e-9
    for k in range(p):
        pts.append(tuple(mid * (1.0 + eps) if i == k else mid for i in range(p)))
    pts.append(tuple(mid * (1.0 + eps) if i % 2 else mid * (1.0 - eps) for i in range(p)))
    while len(pts) < n_samples:
        pts.append(tuple(rng.uniform(lo, hi) for _ in range(p)))
    return [x for x in pts if max(x) > min(x)]


def falsify_contractivity(
    m: ComposedMapping,
    n0: int,
    rng: Random,
    n_samples: int = 200,
) -> ContractivityCertificate:
    """Search for a nonconstant x whose oscillation fails to strictly
    decrease after n0 applications.

    The first witness found yields a "falsified" certificate; a clean sweep
    yields "contractive-sampled", which is explicitly evidence-only."""
    if not isinstance(n0, int) or n0 < 1:
        raise ValidationError(f"n0 must be a positive integer, got {n0!r}")
    samples = contractivity_samples(m, rng, n_samples)
    for x in samples:
        y = x
        for _ in range(n0):
            y = m.apply(y)
        before = oscillation(x)
        after = oscillation(y)
        if after >= before:
            return ContractivityCertificate(
                FALSIFIED,
                n0,
                f"oscillation not reduced after {n0} step(s) at x={x}: "
                f"{before!r} -> {after!r}",
                witness=x,
            )
    return ContractivityCertificate(
        CONTRACTIVE_SAMPLED,
        n0,
        f"oscillation strictly decreased after {n0} step(s) on all "
        f"{len(samples)} nonconstant samples (evidence only, not a proof)",
    )
