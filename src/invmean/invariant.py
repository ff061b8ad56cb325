"""The invariant mean of a composed mapping, by convergent iteration.

Iterating a mean-type mapping never widens the bracket: min(M^n(x)) is
nondecreasing and max(M^n(x)) is nonincreasing in n, so the oscillation
max - min of the iterates can only shrink.  When it shrinks to zero the
iterates converge to a constant vector (K(x), ..., K(x)); K is the
unique mean invariant under the mapping.  The rounded midpoint of the
final floating-point bracket estimates K(x), and the radius is its
distance to the farther end of that bracket, so value ± radius covers
the whole bracket even when the rounded midpoint lands on one end.  No
rounding term is added: when the bracket collapses to one float the
radius reads 0 although K(x) may differ from that float in its last
bits, so the radius is not a true enclosure of K(x).

`invariant_mean_eval` runs that iteration.  It validates the start point
once and then runs the mapping's compiled kernel a block of steps at a
time, testing the stop rule once per block; its report is float for
float the one a test after every step gives (the block schedule and why
it is exact are in the docstring of `_runs`, the one loop that runs it).
`verify_invariance` compares K(x) with K(M(x)), and both come from one
trajectory: the kernel gives M^n(M(x)) = M^(n+1)(x) bit for bit, so the
run from M(x) is the run from x one step on, with its own threshold,
stall tests and cap, and `_runs` takes both from one walk along the
orbit, each report exact by the same argument.  Non-convergence
(periodic or disconnected incidence structure) is a structured report,
never an exception, so callers can inspect the final iterate; its
stop_reason tells a stall from the iteration cap.  When the incidence
graph has no invariant mean K (several initial classes, or one that is
periodic), the same iteration brackets each cyclic class of each initial
class that the graph's classification records, and reports the limit of
each.

The verification helpers (`verify_invariance`, `verify_mean_properties`,
`check_oscillation_monotonicity`, `check_bracket_dichotomy`,
`solve_invariant_equation`) are sampling falsifiers run by `means.sweep`,
as `check_mean_property` is: each returns a `CheckReport` whose
violations are data with witnesses, and a clean sweep is evidence, not
proof.  `check_bracket_dichotomy` and `solve_invariant_equation` need a
mapping that `averaging.falsify_contractivity`, the one contractivity
decision, certifies: strict means on an ergodic graph.  The dichotomy is
checked after q0 <= (p-1)^2 + 1 steps, the graph's uniform walk length,
while the certificate itself still reads the paper's n0 = 3^p.

`invmean verify` samples only what the construction leaves open.  On a
mapping of library power means, which are strict, monotone and
homogeneous and clamp every row into [min, max] of its arguments, it
states as proved, without iterating: the oscillation monotonicity (the
brackets are nested); monotonicity and homogeneity of K whenever K
exists (every M^n takes them over from the means, and K is their
limit); and strictness of K from the graph, which holds on an ergodic
graph and fails on a "contractive" one, where K reads only the initial
class.  On a "falsified" mapping there is no K.  It samples the mean
property, `verify_invariance` and `check_bracket_dichotomy`, and falls
back to `verify_mean_properties` when the mean-property sampling refutes
the strictness those proofs rest on.  The samplers stay for means the
library did not build, and the tests hold the proved statements to them.

Every function here that takes a tol raises ValidationError unless it is
a finite number > 0, an int or a float but not a bool (`means._real`): a
NaN tol would pass every residual comparison or none, and an infinite
one would call anything converged.  n_samples and max_iter must be ints
>= 1, not bools (`errors.check_count`).  A sampler draws from its rng,
or from Random(0) when it is given none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

from .averaging import CERTIFIED, ComposedMapping
from .digraph import is_ergodic
from .errors import PreconditionError, ValidationError, check_count
from .means import POSITIVE_REALS, CheckReport, _not_strict, _real, sample_box, sweep

__all__ = [
    "ConvergenceReport",
    "invariant_mean_eval",
    "verify_invariance",
    "verify_mean_properties",
    "solve_invariant_equation",
    "check_oscillation_monotonicity",
    "check_bracket_dichotomy",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
# the tolerance of a residual, K(M(x)) - K(x) or F(x) - phi(K(x))
DEFAULT_RESIDUAL_TOL = 1e-9
# nonconstant samples spread over at least this share of the sample box
_MIN_SPREAD = 0.05


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of iterating toward the invariant mean from one start point.

    value is the rounded midpoint of [min, max] of the final iterate
    (None when not converged) and error_radius is its distance to the
    farther end, max(max - value, value - min), so value ± error_radius
    covers the final bracket.  The bracket is monotone, but the radius
    carries no rounding term and is not a true enclosure of K(x).
    stop_reason says what ended the run: "converged", "classes-converged"
    (the graph has no K and every cyclic-class bracket closed), "stalled"
    (a whole stall window without a measurable shrink) or "max_iter".
    iterations_used counts steps, not the calls of the mapping's compiled
    kernel, which takes a block of steps per call.

    classes is empty when K exists.  Otherwise it holds one
    (vertices, value, error_radius) per cyclic class, ordered by initial
    class and then from C_0, with 1-based vertices and the rounded
    midpoint of the class in the final iterate and its distance to the
    farther end of the class; error_radius is then the largest class
    radius.
    """

    value: float | None
    error_radius: float
    iterations_used: int
    converged: bool
    final_iterate: tuple[float, ...]
    stop_reason: str
    classes: tuple[tuple[tuple[int, ...], float, float], ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "error_radius": self.error_radius,
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "final_iterate": list(self.final_iterate),
        }
        if self.classes:
            out["classes"] = [
                {"vertices": list(vertices), "value": value, "error_radius": radius}
                for vertices, value, radius in self.classes
            ]
        return out


def _check_tol(tol: float) -> None:
    # NaN fails every comparison, so `tol <= 0` alone would let it through
    if not 0.0 < _real(tol, "tol") < math.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")


def _effective_tol(tol: float, x0: Sequence[float]) -> float:
    # absolute tolerance scaled by the magnitude of the start vector
    return tol * max(1.0, abs(max(x0)))


def _midpoint_radius(lo: float, hi: float) -> tuple[float, float]:
    # the rounded midpoint can land on one end of a bracket of adjacent
    # floats, so the radius is the distance to the farther end; both
    # differences are exact when 0 <= lo and hi <= 3*lo (Sterbenz).  The
    # sum overflows near the float maximum: only then are the halves added,
    # so every finite midpoint stays the same float
    mid = 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.5 * lo + 0.5 * hi
    return mid, max(hi - mid, mid - lo)


def invariant_mean_eval(
    m: ComposedMapping,
    x: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ConvergenceReport:
    """Iterate until the oscillation drops below 2*tol*scale or limits hit.

    When the incidence graph has exactly one initial class and it is
    aperiodic, K exists and the oscillation is max - min of the whole
    iterate.  Otherwise the oscillation is the largest one over the
    cyclic classes C_0, ..., C_(d-1) of the initial classes, as
    `digraph.GraphClassification` records them.  It cannot grow either:
    no edge enters an initial class from outside, and inside it every
    edge goes from some C_k to C_(k+1 mod d), so every coordinate in
    C_(k+1) is a mean of coordinates in C_k and the bracket of C_(k+1)
    after a step lies inside the bracket C_k had before it.  When every
    class bracket closes the run stops with stop_reason
    "classes-converged", converged=False and value None, and `classes`
    reports the limit of each class; the values move one cyclic class
    per step.  Coordinates outside every initial class are in
    final_iterate only: no convergence claim is made for them.

    scale is max(1, |max(x)|); the reported error_radius is therefore at
    most tol*scale, up to the rounding of the midpoint, once the bracket
    closes.  The oscillation is nonincreasing, so a window of
    max(200, 2*((p-1)^2 + 1)) steps over which it fails to shrink proves
    practical stagnation and ends the run early with stop_reason
    "stalled" instead of burning max_iter.
    (p-1)^2 + 1 is Wielandt's bound on the uniform walk length of an
    ergodic incidence graph, and with strict means the oscillation
    strictly shrinks over every such length, so the window is polynomial
    in p.

    tol must be a finite number > 0 and max_iter an int >= 1, neither a
    bool (ValidationError).  Only the start point is validated; the steps run
    unchecked in the mapping's compiled kernel (`ComposedMapping._steps`,
    compiled on the mapping's first step), a block of k steps per call.
    The stop rule is tested once per block, and the report is float for
    float the one a test after every step gives: the block schedule and
    why it is exact are in `_runs`, of which this is the one-run case.
    """
    _check_tol(tol)
    check_count(max_iter, "max_iter")
    return _runs(m, m._validate_point(x), 1, tol, max_iter)[0]


def _runs(
    m: ComposedMapping, xs: tuple[float, ...], count: int, tol: float, max_iter: int
) -> list[ConvergenceReport]:
    """The reports of `invariant_mean_eval(m, M^r(xs), tol, max_iter)` for
    r = 0, ..., count - 1, float for float, from the one trajectory xs,
    M(xs), M^2(xs), ...  The kernel is deterministic, so M^n(M^r(xs)) is
    M^(n+r)(xs) bit for bit, and run r is the trajectory from step r on.

    Each run keeps its own stop rule.  Run r starts at step r, takes its
    threshold from M^r(xs), counts its own steps, tests for a stall at
    its own multiples of the window and stops at its own max_iter.  A
    test of a run changes nothing except at such an event or at the first
    step its oscillation drops below its threshold, so the tests run only
    there: after a block that ends at an event of a run not stopped (a
    start, a stall test or a cap) or below the largest threshold still in
    use, `high`.  Every threshold of a run not stopped is <= high, so a
    block that ends at or above high crosses none of them.

    The first block is one step, and a block ends at the next event at
    the latest.  Every library power row lands in [min, max] of its
    arguments, so in floating point min(y) never drops and max(y) never
    rises, and the same holds for each class bracket: the oscillation
    never grows, and an oscillation still >= high at a block's end was
    >= high at every step inside the block.  Two rules set the rest.  A
    block of k > 1 steps that ends below high is dropped and taken again
    at k // 2 steps from the same point; the first step below high lies
    inside it, so no later block passes its end until a one-step block
    crosses there.  That first step is the next one at which any run's
    threshold is crossed, since high is the largest of them.  After a
    block, the next is twice as long, or half the steps left that its
    shrink of log(osc) per step forecasts to high, rounded up, when that
    is fewer.  A mean the library did not build may leave the bracket, so
    a mapping with one takes one step per block.  Its runs are still
    tested only at their events and after a step below high, but that is
    every step at which a test can stop one of them: each run stops, or
    DomainError is raised, at the same step as well.
    """
    classes, spread, window, nested = m._iteration
    reports = [None] * count
    live = []  # [start, threshold, anchor_osc, anchor] of each run started, not stopped
    y = xs
    osc = spread(y)
    log_osc = math.log(osc) if nested and osc > 0.0 else 0.0
    t = event = 0
    high = 0.0
    k = 1
    while True:
        if t == event or osc < high:
            if t < count:
                live.append([t, 2.0 * _effective_tol(tol, y), osc, t])
            # the next start, if any; no run has its cap past t + max_iter
            event = t + 1 if t + 1 < count else t + max_iter
            high = 0.0
            kept = []
            for run in live:
                start, threshold, anchor_osc, anchor = run
                stalled = False
                if t - anchor >= window:
                    # no measurable shrink across the window
                    stalled = osc > anchor_osc * (1.0 - 1e-12)
                    run[2], run[3] = osc, t
                if osc < threshold:
                    stop_reason = "classes-converged" if classes else "converged"
                elif stalled or t - start >= max_iter:
                    stop_reason = "stalled" if stalled else "max_iter"
                else:
                    kept.append(run)
                    if threshold > high:
                        high = threshold
                    end = run[3] + window  # the run's next stall test, or its cap
                    if end > start + max_iter:
                        end = start + max_iter
                    if end < event:
                        event = end
                    continue
                reports[start] = _report(classes, y, t - start, stop_reason)
            live = kept
            if not live and t + 1 >= count:
                return reports
            # the kernel is compiled on first use: a closed start bracket takes no step
            steps = m._steps
            stop = event
            if nested and live:
                log_high = math.log(high)
        if nested and live and t:
            # the next block is twice the last, or half the steps left that
            # the last block's shrink of log(osc) per step forecasts, when
            # that is fewer: a block that overshoots is taken again, and
            # the forecast of one block is off by about a step's worth
            last, log_osc = log_osc, math.log(osc)
            shrink = (last - log_osc) / k
            left = (log_osc - log_high) / shrink if shrink > 0.0 else math.inf
            k = 2 * k if left > 4 * k else max(1, math.ceil(left / 2))
        # k >= 1 here, so no block is empty: a forecast is at least 1 and a
        # retry halves a k > 1; and stop - t >= 1, since every event is past
        # t and a dropped block's end is at or past the first crossing of
        # high, which every block taken since stays short of
        while True:
            k = min(k, stop - t)
            z = steps(y, k)
            z_osc = spread(z)
            if z_osc >= high or k == 1:
                break
            # with nested brackets the first step below high lies inside
            # this block: drop it and retry from y at half its length
            stop = t + k
            k //= 2
        y, osc, t = z, z_osc, t + k


def _report(
    classes: tuple[list[int], ...], y: tuple[float, ...], n: int, stop_reason: str
) -> ConvergenceReport:
    # the report of a run that stopped at y after n steps
    converged = stop_reason == "converged"
    brackets = []
    for c in classes:
        t = [y[v] for v in c]
        brackets.append((tuple(v + 1 for v in c), *_midpoint_radius(min(t), max(t))))
    if classes:
        value, radius = None, max(r for _, _, r in brackets)
    else:
        value, radius = _midpoint_radius(min(y), max(y))
    return ConvergenceReport(
        value=value if converged else None,
        error_radius=radius,
        iterations_used=n,
        converged=converged,
        final_iterate=y,
        stop_reason=stop_reason,
        classes=tuple(brackets),
    )


def _nonconstant_samples(
    m: ComposedMapping, rng: Random | None, n_samples: int
) -> list[tuple[float, ...]]:
    check_count(n_samples, "n_samples")
    rng = rng if rng is not None else Random(0)
    if m.p < 2:
        return []  # every vector in I^1 is constant
    lo, hi = sample_box(m.interval)
    pts = []
    while len(pts) < n_samples:
        x = tuple(rng.uniform(lo, hi) for _ in range(m.p))
        if max(x) - min(x) >= _MIN_SPREAD * (hi - lo):
            pts.append(x)
    return pts


def verify_invariance(
    m: ComposedMapping,
    tol: float = DEFAULT_RESIDUAL_TOL,
    rng: Random | None = None,
    n_samples: int = 100,
) -> CheckReport:
    """Check K(M(x)) = K(x) on samples, both sides from the iteration.

    Both sides come from one trajectory x, M(x), M^2(x), ...: K(M(x)) is
    the run from its step 1 on, since the compiled kernel gives
    M^n(M(x)) = M^(n+1)(x) bit for bit.  Each side keeps its own stop
    rule (its threshold from its own start, its own stall tests and cap),
    so each report is float for float `invariant_mean_eval(m, x)` and
    `invariant_mean_eval(m, m.apply(x))`, in about half their kernel
    steps (`_runs`).  Samples where either side fails to converge are skipped
    and counted; the report carries the max residual over the evaluated
    ones.
    """
    _check_tol(tol)

    def judge(x):
        r_x, r_mx = _runs(m, m._validate_point(x), 2, DEFAULT_TOL, DEFAULT_MAX_ITER)
        if not (r_x.converged and r_mx.converged):
            return None
        residual = abs(r_x.value - r_mx.value)
        if residual > _effective_tol(tol, x):
            return residual, f"|K(M(x)) - K(x)| = {residual:.3e} exceeds {tol:g}*scale"
        return residual, None

    return sweep("invariance", _nonconstant_samples(m, rng, n_samples), judge)


_PROPERTIES = ("strict", "monotone", "homogeneous")
_HOMOGENEITY_TOL = 1e-10
_HOMOGENEITY_FACTORS = (0.5, 2.0, 10.0)
# the monotone bump, as a share of the sample box's width
_MONOTONE_STEP = 0.1


def _check_hypothesis(m: ComposedMapping, which: str) -> None:
    """PreconditionError when m lacks the premise of sampling `which`: every
    mean declared strict for "strict", the domain (0, +inf) for
    "homogeneous"; "monotone" has none.  ValidationError for an unknown
    property."""
    if which not in _PROPERTIES:
        raise ValidationError(f"unknown property {which!r}")
    if which == "strict" and (missing := _not_strict(m.means)):
        raise PreconditionError(f"strict flag not asserted for {missing}")
    if which == "homogeneous" and m.interval != POSITIVE_REALS:
        raise PreconditionError(f"homogeneity needs the domain (0, +inf), got {m.interval}")


def verify_mean_properties(
    m: ComposedMapping,
    which: str,
    rng: Random | None = None,
    n_samples: int = 200,
) -> CheckReport:
    """Sampled falsification of a property of the invariant mean K.

    which selects one of:
      * "strict"      -- min(x) < K(x) < max(x) on nonconstant x; besides
        random points this probes each coordinate alone (the middle of
        the sample box [lo, hi] with that one entry raised to hi), the
        pattern that exposes coordinates K does not depend on.
      * "monotone"    -- raising one coordinate by a tenth of the sample
        box's width never lowers K; samples whose raised coordinate
        leaves the interval are dropped.
      * "homogeneous" -- K(c*x) = c*K(x) for c in {0.5, 2, 10} within a
        relative 1e-10; each (x, c) pair is one sample.

    Each comparison also allows the error radii; strictness and
    monotonicity add DEFAULT_TOL, the tolerance their own evaluations of
    K run at, scaled by max(1, |max(x)|).

    Each sampler only falsifies, so a violation is a counterexample
    whatever the means declare.  Two premises are kept, and without them a
    PreconditionError is raised: "strict" needs every component mean
    declared strict (`Mean.strict`), and "homogeneous" the domain
    (0, +inf), which c*x never leaves.  "monotone" has none.
    Samples where the iteration does not converge are skipped and counted.
    """
    _check_hypothesis(m, which)

    def converged_value(x):
        rep = invariant_mean_eval(m, x)
        return (rep.value, rep.error_radius) if rep.converged else (None, None)

    lo, hi = sample_box(m.interval)
    if which == "strict":
        mid = 0.5 * (lo + hi)
        structured = [
            (tuple(hi if i == k else mid for i in range(m.p)), k + 1)
            for k in range(m.p)
        ]
        drawn = [(x, None) for x in _nonconstant_samples(m, rng, n_samples)]
        # constant vectors (p = 1) make strictness vacuous
        samples = [(x, bumped) for x, bumped in structured + drawn if min(x) < max(x)]

        def judge(sample):
            x, bumped = sample
            value, radius = converged_value(x)
            if value is None:
                return None
            gap = min(value - min(x), max(x) - value)
            if gap <= 2.0 * radius + _effective_tol(DEFAULT_TOL, x):
                where = f" (only coordinate {bumped} varied)" if bumped else ""
                return -gap, f"K(x)={value!r} not strictly inside [{min(x)!r}, {max(x)!r}]{where}"
            return -gap, None

    elif which == "monotone":
        step = _MONOTONE_STEP * (hi - lo)
        samples = [
            (x, idx % m.p)
            for idx, x in enumerate(_nonconstant_samples(m, rng, n_samples))
            if m.interval.contains(x[idx % m.p] + step)
        ]

        def judge(sample):
            x, k = sample
            v_x, r_x = converged_value(x)
            v_y, r_y = converged_value(x[:k] + (x[k] + step,) + x[k + 1:])
            if v_x is None or v_y is None:
                return None
            drop = v_x - v_y
            if drop > r_x + r_y + _effective_tol(DEFAULT_TOL, x):
                return drop, (
                    f"K decreased by {drop:.3e} after +{step:g} on coordinate {k + 1}"
                )
            return drop, None

    else:  # homogeneous
        xs = _nonconstant_samples(m, rng, n_samples)
        k_of = {x: converged_value(x) for x in xs}
        samples = [(x, c) for x in xs for c in _HOMOGENEITY_FACTORS]

        def judge(sample):
            x, c = sample
            v_x, r_x = k_of[x]
            if v_x is None:
                return None
            v_cx, r_cx = converged_value(tuple(c * t for t in x))
            if v_cx is None:
                return None
            residual = abs(v_cx - c * v_x)
            rel = residual / abs(c * v_x)
            if residual > _HOMOGENEITY_TOL * abs(c * v_x) + c * r_x + r_cx:
                return rel, f"|K({c}x) - {c}K(x)| = {residual:.3e} (relative {rel:.3e})"
            return rel, None

    return sweep(which, samples, judge)


# trace length of check_oscillation_monotonicity
_MONOTONICITY_STEPS = 50


def check_oscillation_monotonicity(
    m: ComposedMapping,
    rng: Random | None = None,
    n_samples: int = 200,
) -> CheckReport:
    """Along every sampled trace of 50 steps, min(M^n(x)) must be
    nondecreasing and max(M^n(x)) nonincreasing in n.

    This holds exactly in real arithmetic, and means that round toward
    the bracket keep it exact in floating point too; each end may slip by
    one ulp of its previous value, a rounding allowance that scales with
    the bracket, not a modelling tolerance.
    """

    def judge(x):
        trace = m.iterate(x, _MONOTONICITY_STEPS)
        worst = 0.0
        lo, hi = min(trace[0]), max(trace[0])  # the previous point's ends, carried forward
        for k, y in enumerate(trace[1:], start=1):
            y_lo, y_hi = min(y), max(y)
            drop = lo - y_lo  # > 0 means the bracket widened
            rise = y_hi - hi
            worst = max(worst, drop, rise)
            if drop > math.ulp(lo) or rise > math.ulp(hi):
                return worst, (
                    f"bracket widened at step {k}: min dropped {drop:.3e}, max rose {rise:.3e}"
                )
            lo, hi = y_lo, y_hi
        return worst, None

    return sweep("oscillation-monotonicity", _nonconstant_samples(m, rng, n_samples), judge)


def _certificate(m: ComposedMapping) -> None:
    # the decision is cached on the mapping, so a caller that read it decides once
    if (cert := m._contractivity).status != CERTIFIED:
        raise PreconditionError(
            f"mapping not certified uniformly weak contractive: {cert.evidence}"
        )


def check_bracket_dichotomy(
    m: ComposedMapping,
    rng: Random | None = None,
    n_samples: int = 100,
) -> CheckReport:
    """After q0 steps, a nonconstant start vector must sit strictly inside
    its starting bracket: min(x) < min(M^q0(x)) <= max(M^q0(x)) < max(x).
    Of the dichotomy "collapsed to a constant vector, or strictly inside",
    a constant lies strictly inside too, as every coordinate does.

    q0 is the graph's uniform walk length, the least q with every
    entry of A^q positive (A the adjacency matrix of the incidence
    graph), at most (p-1)^2 + 1 by Wielandt (1950), against the
    certificate's n0 = 3^p.  q0 steps suffice: with strict means,
    coordinate v of M(x) equals max(x) only when every argument of v
    does, so the coordinates still at max(x) after n steps are
    f^n(S_max), where f(S) = {v : in(v) subset of S}; the same holds for
    min(x).  w lies in f^n(S) exactly when every walk of length n that
    ends at w starts in S.  When A^q0 has every entry positive, every
    vertex starts such a walk to every w, so f^q0 empties every S != V,
    and S_max, S_min != V for a nonconstant x: both gaps are strictly
    positive after exactly q0 steps.  The bound is sharp: some pair
    (v, w) has no walk of length q0 - 1, and the vector at min(x) on v
    only keeps w at max(x) for q0 - 1 steps.

    The check needs the certificate's hypotheses: PreconditionError on
    an uncertified mapping.
    """
    _certificate(m)
    q0 = is_ergodic(m.graph).uniform_walk_length

    def judge(x):
        y = m.nth_iterate(x, q0)
        low_gap = min(y) - min(x)
        high_gap = max(x) - max(y)
        if low_gap <= 0.0 or high_gap <= 0.0:
            return -min(low_gap, high_gap), (
                f"M^{q0}(x) not strictly inside the bracket: "
                f"min gap {low_gap:.3e}, max gap {high_gap:.3e}"
            )
        return -min(low_gap, high_gap), None

    return sweep("bracket-dichotomy", _nonconstant_samples(m, rng, n_samples), judge)


def solve_invariant_equation(
    f: Callable[[Sequence[float]], float],
    m: ComposedMapping,
    tol: float = DEFAULT_RESIDUAL_TOL,
    rng: Random | None = None,
    n_samples: int = 100,
) -> tuple[Callable[[float], float], CheckReport]:
    """Solve F = phi(K(.)) for a diagonal-continuous F, or refute it.

    The unique candidate is phi(t) := F(t, ..., t), the restriction of F
    to the diagonal; F is invariant under the mapping exactly when
    F(x) = phi(K(x)) for all x.  The returned report tests that on
    samples: it passed with n_evaluated > 0 when no sample refuted it,
    and n_evaluated == 0 leaves the question open.  Requires a certified
    uniformly-weak-contractive mapping (else K and with it phi would not
    be grounded).
    """
    _check_tol(tol)
    _certificate(m)
    p = m.p

    def phi(t: float) -> float:
        return f((t,) * p)

    def judge(x):
        rep = invariant_mean_eval(m, x)
        if not rep.converged:
            return None
        lhs = float(f(x))
        rhs = float(phi(rep.value))
        residual = abs(lhs - rhs)
        if residual > tol * max(1.0, abs(lhs)):
            return residual, (
                f"|F(x) - phi(K(x))| = {residual:.3e}: F(x)={lhs!r}, phi(K(x))={rhs!r}"
            )
        return residual, None

    return phi, sweep("invariant-equation", _nonconstant_samples(m, rng, n_samples), judge)
