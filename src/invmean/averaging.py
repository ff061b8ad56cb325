"""Composed mean-type mappings and their contractivity decision.

A `ComposedMapping` is p means M_1, ..., M_p (of arities d_1, ..., d_p)
on one interval I together with an index vector alpha, which supplies,
for each coordinate i, the d_i argument positions (1-based) that feed
M_i.  It is the self-map of I^p

    x  |->  ( M_i(x[alpha[i][1]], ..., x[alpha[i][d_i]]) )_{i=1..p}

whose every coordinate is again a p-variable mean, and whose incidence
graph (edge alpha[i][j] -> i) governs the long-run behaviour of the
iteration.  `falsify_contractivity` is the one contractivity decision.
It reads the initial classes of the incidence graph and takes no step.
When the graph does not have exactly one initial class, or that class
is periodic, a block vector on the classes keeps its oscillation for
ever: "falsified", with the block as witness (on the disconnected
`example3`, (a, a, b, b)).  Otherwise, with every mean flagged strict,
the oscillation of every nonconstant vector strictly shrinks: after the
paper's n0 = 3^p steps when the graph is ergodic ("uniformly-weak-
certified"), and after (p-1)^2 + 1 steps when the one initial class
leaves vertices out ("contractive").  On an ergodic graph the uniform
walk length q0 <= (p-1)^2 + 1 (Wielandt) of its classification is
sharper: after q0 steps both ends of the bracket of every nonconstant
vector have strictly moved inward, as `invariant.check_bracket_dichotomy`
proves and checks by sampling.

Evaluation: `apply(x)` validates its argument (length, and every
coordinate in I) and then takes one step.  `iterate`, `nth_iterate` and
the iterations of `invariant` validate only their start point: every
later point is the output of a step, which stays in I.  Every step runs
in one k-step kernel per mapping, `ComposedMapping._steps(xs, k)`,
compiled on first use, so `nth_iterate` is one call and `invariant` runs
blocks of steps between its stop tests; `_compile_steps` describes what
the kernel runs.  Compiling costs a fixed time per row, which the faster
steps repay after about a hundred steps (README.md has the figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Sequence

from .digraph import Digraph, build_incidence_graph, is_ergodic
from .errors import DomainError, ShapeError, ValidationError, check_count
from .means import Interval, Mean, _compile, _point, _power_order, _power_row, sample_box

__all__ = [
    "IndexVector",
    "ComposedMapping",
    "ContractivityCertificate",
    "CERTIFIED",
    "CONTRACTIVE",
    "FALSIFIED",
    "UNKNOWN",
    "oscillation",
    "falsify_contractivity",
]

#: Certificate classes, from strongest to weakest claim.
CERTIFIED = "uniformly-weak-certified"
CONTRACTIVE = "contractive"
FALSIFIED = "falsified"
UNKNOWN = "unknown"

_CLASSES = frozenset({CERTIFIED, CONTRACTIVE, FALSIFIED, UNKNOWN})


@dataclass(frozen=True)
class IndexVector:
    """p rows of 1-based argument positions; row i feeds coordinate i."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # the one place alpha indices are checked; everything downstream
        # (incidence graph, composition, spec files) relies on it
        try:
            rows = tuple(tuple(row) for row in self.rows)
        except TypeError:  # a row, or the rows, not iterable: IndexVector([1, 2])
            raise ValidationError(f"alpha must be a sequence of rows, got {self.rows!r}") from None
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

    @property
    def p(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ComposedMapping:
    """p means on one interval composed with an index vector, acting on I^p:
    coordinate i of M(x) is means[i] applied to the alpha row i arguments."""

    means: tuple[Mean, ...]
    interval: Interval
    alpha: IndexVector

    def __post_init__(self) -> None:
        if not isinstance(self.interval, Interval):
            raise ValidationError(f"mapping interval must be an Interval, got {self.interval!r}")
        if not isinstance(self.alpha, IndexVector):
            raise ValidationError(f"mapping alpha must be an IndexVector, got {self.alpha!r}")
        try:
            means = tuple(self.means)
        except TypeError:  # not iterable: means=5
            raise ValidationError(f"mapping means must be a sequence, got {self.means!r}") from None
        for i, m in enumerate(means, start=1):
            if not isinstance(m, Mean):
                raise ValidationError(f"mapping mean {i} must be a Mean, got {m!r}")
        object.__setattr__(self, "means", means)
        if len(means) != self.alpha.p:
            raise ShapeError(f"index vector has {self.alpha.p} rows for {len(means)} means")
        on_interval = set()  # a Mean that rows share is checked against I once
        for i, (row, mean) in enumerate(zip(self.alpha.rows, means), start=1):
            if id(mean) not in on_interval:
                if mean.domain != self.interval:
                    raise ValidationError(
                        f"mean {i} ({mean.label!r}) lives on {mean.domain}, "
                        f"mapping on {self.interval}"
                    )
                on_interval.add(id(mean))
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
    def _contractivity(self) -> ContractivityCertificate:
        """`falsify_contractivity(self)`, decided on first use: a command
        that reads the decision twice (`verify` and its bracket dichotomy)
        makes it once."""
        return falsify_contractivity(self)

    @cached_property
    def _steps(self) -> Callable[[tuple[float, ...], int], tuple[float, ...]]:
        """M^k(xs) for a point already in I^p and an int k >= 0, as one
        function compiled on first use, not at construction (see
        `_compile_steps`).  It runs unchecked on a point in I^p and returns
        one."""
        return _compile_steps(self)

    @cached_property
    def _iteration(self) -> tuple[tuple[list[int], ...], Callable, int, bool]:
        """What `invariant.invariant_mean_eval` reads of the mapping alone,
        derived on its first call: (classes, spread, window, nested).
        classes is () when the incidence graph has exactly one initial class
        and it is aperiodic (K exists), else the 0-based vertices of each
        cyclic class of each initial class, as the graph's classification
        records them.  spread(y) is the oscillation the iteration drives
        below its threshold: max(y) - min(y), or the largest one over the
        classes.  window is the stall window, max(200, 2*((p-1)^2 + 1))
        steps.  nested says whether every row is a library power row: each
        such row lands in [min, max] of its arguments in floating point, so
        min(M(x)) >= min(x) and max(M(x)) <= max(x) hold exactly and the
        brackets of the iterates are nested.  A mean the library did not
        build promises nothing of the kind."""
        cls = is_ergodic(self.graph)
        classes = () if cls.one_aperiodic_initial_class else tuple(
            [v for v in range(self.p) if mask >> v & 1]
            for c in cls.initial_classes for mask in c.cyclic_classes
        )
        # a singleton has no spread, and itemgetter of one index returns no tuple
        getters = [itemgetter(*c) for c in classes if len(c) > 1]

        def spread(y: tuple[float, ...]) -> float:
            if not classes:
                # K exists: its own max - min, not the class form with one
                # class of every vertex, which measured 9-30% slower median
                # ops on the bench's solve and verify; one verify round
                # calls spread about 4 300 times (cProfile, seed 1)
                return max(y) - min(y)
            return max([max(t) - min(t) for t in [g(y) for g in getters]], default=0.0)

        nested = all(_power_order(mean) is not None for mean in self.means)
        return classes, spread, max(200, 2 * ((self.p - 1) ** 2 + 1)), nested

    def _checked_coordinate(self, i: int, mean: Mean) -> Callable:
        # a mean the library did not build is trusted for nothing: its value
        # must lie in the interval, as the next step's argument would
        iv = self.interval

        def coordinate(*args: float) -> float:
            t = float(mean(args))
            if not iv.contains(t):
                raise DomainError(f"mean {i} ({mean.label!r}) returned {t!r} outside {iv}")
            return t

        return coordinate

    @property
    def p(self) -> int:
        return self.alpha.p

    def _validate_point(self, x: Sequence[float]) -> tuple[float, ...]:
        xs = _point(x)
        if len(xs) != self.p:
            raise ShapeError(f"point has {len(xs)} coordinates, mapping acts on I^{self.p}")
        iv = self.interval
        for i, t in enumerate(xs, start=1):
            if not iv.contains(t):
                raise DomainError(f"coordinate {i}={t!r} outside {iv}")
        return xs

    def apply(self, x: Sequence[float]) -> tuple[float, ...]:
        """One application: x is validated (its length, and every coordinate
        in the interval), then stepped; every power-mean coordinate of the
        result lies in [min(x), max(x)]."""
        return self._steps(self._validate_point(x), 1)

    def iterate(self, x: Sequence[float], n: int) -> tuple[tuple[float, ...], ...]:
        """The trace (x, M(x), ..., M^n(x)) of n+1 points."""
        point = self._validate_start(x, n)
        trace = [point]
        if n:  # the kernel is compiled on first use, so only when a step is taken
            steps = self._steps
            for _ in range(n):
                point = steps(point, 1)
                trace.append(point)
        return tuple(trace)

    def nth_iterate(self, x: Sequence[float], n: int) -> tuple[float, ...]:
        """M^n(x), the last point of `iterate(x, n)`, in one kernel call."""
        point = self._validate_start(x, n)
        # the kernel is compiled on first use, so only when a step is taken
        return self._steps(point, n) if n else point

    def _validate_start(self, x: Sequence[float], n: int) -> tuple[float, ...]:
        check_count(n, "iteration count", 0)
        return self._validate_point(x)


def _compile_steps(m: ComposedMapping) -> Callable[[tuple[float, ...], int], tuple[float, ...]]:
    """Generate, compile and bind the k-step kernel of `m`, `m._steps`.

    The kernel reads the point into locals x<j> once, then k times sets
    y<i> row by row, straight line, and hands the y<i> back to the x<j>
    one line per row, with no tuple built or unpacked.  It returns
    M^k(xs).  A power mean built by `make_power_mean`, of any arity, runs
    inline the lines of `means._power_row`, the arithmetic of
    `power_mean_eval` without its argument checks, and lands in [min, max]
    of the arguments.  Any other mean is called through its checked
    coordinate, which takes the row's arguments as locals and checks the
    value against the interval (DomainError otherwise).  The namespace
    holds what the rows name: the checked coordinates and
    `means._ROW_NAMES`, so no row calls back into `means`."""
    checked = []
    body = []
    for i, (row, mean) in enumerate(zip(m.alpha.rows, m.means)):
        args = [f"x{a - 1}" for a in row]
        order = _power_order(mean)
        if order is None:
            body.append(f"y{i} = checked[{len(checked)}]({', '.join(args)})")
            checked.append(m._checked_coordinate(i + 1, mean))
        else:
            body += _power_row(order, args, f"y{i}")
    xs = "".join(f"x{j}, " for j in range(m.p))
    source = "\n".join([
        "def _steps(xs, k):",
        f"    {xs}= xs",
        "    for _ in range(k):",
        *(f"        {line}" for line in body),
        *(f"        x{i} = y{i}" for i in range(m.p)),
        f"    return ({xs})",
    ])
    steps = _compile(
        source, f"<invmean ComposedMapping._steps p={m.p}>", "_steps", checked=tuple(checked)
    )
    steps.__qualname__ = "ComposedMapping._steps"
    return steps


def oscillation(x: Sequence[float]) -> float:
    """max(x) - min(x), the quantity every contractivity notion controls."""
    xs = _point(x)
    if not xs:
        raise ShapeError("oscillation of an empty vector")
    return max(xs) - min(xs)


@dataclass(frozen=True)
class ContractivityCertificate:
    """The contractivity decision of `falsify_contractivity` for one
    composed mapping.

    status is one of:
      * "uniformly-weak-certified" -- all component means carry the strict
        flag and the incidence graph is ergodic; n0 = 3^p steps strictly
        shrink the oscillation of every nonconstant vector, and so do the
        q0 steps of the graph's uniform walk length.
      * "contractive"              -- all component means are strict and the
        graph is not ergodic but has exactly one initial class, which is
        aperiodic, so n0 = (p-1)^2 + 1 steps strictly shrink the
        oscillation of every nonconstant vector.
      * "falsified"                -- the witness, a block vector on the
        initial classes or on the cyclic classes of the only one, keeps
        its oscillation at every step, so after n0 = (p-1)^2 + 1 too.
      * "unknown"                  -- a mean not flagged strict, or a mean
        that moves a constant vector, leaves the question open; n0 is
        None and the evidence names the means.
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


def _unflagged(m: ComposedMapping, flag: str) -> str:
    """The sorted labels of the means of m whose `flag` is not set, joined
    by ", ", or "" when every mean has it."""
    return ", ".join(sorted({mean.label for mean in m.means if not getattr(mean.flags, flag)}))


def falsify_contractivity(m: ComposedMapping) -> ContractivityCertificate:
    """Decide from the initial classes of the incidence graph whether the
    oscillation of every nonconstant x strictly shrinks under iteration,
    without taking a step.

    Let B_n(w) be the set of start vertices of the length-n walks that end
    at w.  Coordinate w of M^n(x) depends only on the coordinates x_u with
    u in B_n(w), and a mean of equal arguments c is c.  For strict means,
    coordinate w of M(y) equals max(y) only when all of its arguments do,
    so coordinate w of M^n(x) is at max(x) exactly when B_n(w) lies in
    S_max = {u : x_u = max(x)}, and likewise at min(x) with S_min.  The
    ends of the bracket only move inward, so a kept oscillation keeps both:
    it needs some B_n(w) inside S_max and some B_n(v) inside S_min, two
    disjoint sets.  Every vertex has an in-neighbour, so walking back from
    any vertex ends in an initial class (a strongly connected class that no
    edge enters from outside), and each initial class has a cycle.
      * Two or more initial classes: walks into one stay in it, so x with
        hi on the initial class whose lowest vertex is highest and lo
        elsewhere ([lo, hi] from `sample_box`) keeps that class at hi and
        every other initial class at lo, at every n: "falsified".
      * One initial class R of period d >= 2, with cyclic classes C_0, ...,
        C_(d-1), C_0 holding its lowest vertex: B_n(v) lies in one cyclic
        class for v in R, so x with hi on R outside C_0 and lo elsewhere
        keeps the coordinates of R whose walks start in C_0 at lo and the
        others at hi, at every n: "falsified".
      * One aperiodic initial class R of k vertices: a shortest path from R
        to any vertex leaves R at once and has at most p - k edges, and R
        joins every two of its vertices by walks of every length >=
        (k-1)^2 + 1 (Wielandt).  So R lies in every B_n(v) once n >=
        (k-1)^2 + 1 + p - k, which is at most (p-1)^2 + 1 because
        (k-1)^2 - k does not decrease on k >= 1: no two B_n are disjoint
        from n = (p-1)^2 + 1 on.  With every mean flagged strict this is a
        proof: "uniformly-weak-certified" with the paper's n0 = 3^p when R
        is every vertex (the graph is then ergodic), and "contractive"
        with n0 = (p-1)^2 + 1 otherwise.  When some mean is not flagged
        strict the result is "unknown".
    So the answer is the same at every n >= (p-1)^2 + 1 (Seneta,
    Non-negative Matrices and Markov Chains, for initial and cyclic
    classes; Wolfowitz 1963 for the SIA products of the last case).

    The witnesses need no strictness, only means that return c at
    (c, ..., c) for c in {lo, hi}: an initial class reads only itself, and
    inside one every edge goes from some C_k to C_(k+1 mod d), so the
    block stays constant on every cyclic class of every initial class, its
    values moving one class per step, and it keeps both lo and hi there at
    every n.  A library power mean returns c there; any other mean is
    evaluated at both constants, and one that moves either makes the
    result "unknown", naming it.
    """
    n0 = (m.p - 1) ** 2 + 1
    cls = is_ergodic(m.graph)
    if not cls.one_aperiodic_initial_class:
        initial = cls.initial_classes
        last = initial[-1]
        block = last.vertices if len(initial) > 1 else last.vertices & ~last.cyclic_classes[0]
        lo, hi = sample_box(m.interval)
        x = tuple(hi if block >> i & 1 else lo for i in range(m.p))
        # a library power mean returns c at (c, ..., c), as its compiled row
        # already assumes, so only the other means are evaluated there
        moved = "; ".join(
            f"mean {i} ({mean.label}) returns {t!r} at c={c!r}"
            for i, mean in enumerate(m.means, start=1) if _power_order(mean) is None
            for c in (lo, hi) if (t := float(mean((c,) * mean.arity))) != c
        )
        if moved:
            return ContractivityCertificate(
                UNKNOWN, None, f"the block vector x={x} keeps its oscillation only if every "
                f"mean returns c at (c, ..., c), but {moved}",
            )
        how = "the initial classes read only themselves" if len(initial) > 1 else (
            "the cyclic classes of the only initial class hand their values on, one class per step"
        )
        return ContractivityCertificate(
            FALSIFIED, n0, f"oscillation not reduced after {n0} step(s) at x={x}: {how}, "
            f"so it stays {hi - lo!r} at every step", witness=x,
        )
    shared = f"every two coordinates share a walk source after {n0} step(s)"
    if labels := _unflagged(m, "strict"):
        evidence = f"{shared}, but strictness not asserted for {labels}"
        return ContractivityCertificate(UNKNOWN, None, evidence)
    if cls.ergodic:
        n0 = 3 ** m.p  # the paper's certificate
        return ContractivityCertificate(
            CERTIFIED, n0, f"all {m.p} component means strict; incidence graph ergodic "
            f"(uniform walk length {cls.uniform_walk_length}); oscillation strictly "
            f"decreases after n0 = 3^{m.p} = {n0} steps for every nonconstant vector",
        )
    return ContractivityCertificate(
        CONTRACTIVE, n0, f"{shared} and all {m.p} component means are strict: the oscillation "
        f"of every nonconstant vector strictly decreases after {n0} step(s)",
    )
