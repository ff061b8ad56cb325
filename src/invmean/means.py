"""Intervals, the mean contract, and the power-mean family.

A p-variable mean on an interval I is a function M: I^p -> I with
min(x) <= M(x) <= max(x) for every x in I^p, *strict* when both
inequalities are strict for every nonconstant x.  A mean here is a plain
value: an arity, a domain interval, an evaluator, and declared
structural flags (strict / monotone / homogeneous / symmetric).  Flags
are assertions made by whoever builds the mean; `check_mean_property`
can falsify them by sampling, and `validate_mean` turns a falsification
into a hard error, but nothing is ever proven.

The one concrete family shipped is the power mean of order s on the
positive reals:

    P_s(x_1, ..., x_n) = ((x_1^s + ... + x_n^s) / n)^(1/s)   for s != 0
    P_0(x_1, ..., x_n) = (x_1 * ... * x_n)^(1/n)             (geometric)

s = 0 is an explicit branch, not a limit.  Results are clamped into
[min(x), max(x)], so the mean property holds exactly in floating point
and min/max oscillation brackets shrink monotonically under iteration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from .errors import DomainError, ShapeError, ValidationError

__all__ = [
    "Interval",
    "POSITIVE_REALS",
    "MeanFlags",
    "Mean",
    "PowerMeanSpec",
    "power_mean_eval",
    "make_power_mean",
    "MeanPropertyViolation",
    "MeanPropertyReport",
    "check_mean_property",
    "validate_mean",
]


@dataclass(frozen=True)
class Interval:
    """A nonempty real interval with independently open/closed endpoints.

    Infinite endpoints are allowed and are always open; `contains` is the
    membership test consistent with the flags.
    """

    lower: float
    upper: float
    lower_open: bool = True
    upper_open: bool = True

    def __post_init__(self) -> None:
        lo = float(self.lower)
        hi = float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValidationError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ValidationError(f"interval requires lower < upper, got [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # an interval never contains an infinite point
        if math.isinf(lo):
            object.__setattr__(self, "lower_open", True)
        if math.isinf(hi):
            object.__setattr__(self, "upper_open", True)

    def contains(self, t: float) -> bool:
        if math.isnan(t):
            return False
        if t < self.lower or (t == self.lower and self.lower_open):
            return False
        if t > self.upper or (t == self.upper and self.upper_open):
            return False
        return True

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def __str__(self) -> str:
        left = "(" if self.lower_open else "["
        right = ")" if self.upper_open else "]"
        return f"{left}{self.lower:g}, {self.upper:g}{right}"


#: The open half-line (0, +inf), the domain of every power mean.
POSITIVE_REALS = Interval(0.0, math.inf)


@dataclass(frozen=True)
class MeanFlags:
    """Structural properties a mean is asserted to have."""

    strict: bool = False
    monotone: bool = False
    homogeneous: bool = False
    symmetric: bool = False


@dataclass(frozen=True)
class Mean:
    """An n-variable mean: evaluator plus declared metadata.

    The evaluator must satisfy min(x) <= eval(x) <= max(x) on the domain;
    this is the caller's promise, checkable by `check_mean_property`.
    """

    arity: int
    domain: Interval
    evaluator: Callable[[Sequence[float]], float] = field(compare=False)
    flags: MeanFlags = MeanFlags()
    label: str = "mean"

    def __post_init__(self) -> None:
        if not isinstance(self.arity, int) or self.arity < 1:
            raise ValidationError(f"mean arity must be a positive integer, got {self.arity!r}")

    def __call__(self, args: Sequence[float]) -> float:
        return self.evaluator(args)


@dataclass(frozen=True)
class PowerMeanSpec:
    """Order and arity of a power mean; the domain is always (0, +inf)."""

    order: float
    arity: int

    def __post_init__(self) -> None:
        order = float(self.order)
        if not math.isfinite(order):
            raise ValidationError(f"power-mean order must be finite, got {order!r}")
        object.__setattr__(self, "order", order)
        if not isinstance(self.arity, int) or self.arity < 1:
            raise ValidationError(f"power-mean arity must be a positive integer, got {self.arity!r}")


def power_mean_eval(spec: PowerMeanSpec, x: Sequence[float]) -> float:
    """Evaluate the power mean of order spec.order at x.

    Every argument must be strictly positive and finite (the domain is the
    open half-line, checked without tolerance).  The result is clamped into
    [min(x), max(x)].

    Raises ShapeError on an arity mismatch and DomainError on arguments
    outside (0, +inf).
    """
    xs = tuple(float(t) for t in x)
    if len(xs) != spec.arity:
        raise ShapeError(f"power mean of arity {spec.arity} got {len(xs)} arguments")
    for t in xs:
        if not t > 0.0 or math.isinf(t):  # also rejects NaN
            raise DomainError(f"power-mean argument {t!r} outside (0, +inf)")
    lo = min(xs)
    hi = max(xs)
    if lo == hi:
        return lo
    n = len(xs)
    s = spec.order
    if s == 0.0:
        # every partial product lies between min(1, lo^n) and max(1, hi^n)
        if n * math.log2(lo) > -1020.0 and n * math.log2(hi) < 1020.0:
            val = math.prod(xs) ** (1.0 / n)
        else:
            # a partial product could leave the normal range and lose bits:
            # multiply the mantissas, split the exponent sum as q*n + r and
            # take the n-th root of mantissa * 2^r only, so 2^q is exact
            parts = [math.frexp(t) for t in xs]
            q, r = divmod(sum(e for _, e in parts), n)
            mant = math.ldexp(math.prod(m for m, _ in parts), r)
            val = math.ldexp(mant ** (1.0 / n), q)
    else:
        val = None
        if abs(s) < 1e-2:
            # t**s == 1 + s*log(t) to within rounding here; the direct sum
            # would cancel the whole signal, expm1/log1p keeps it
            us = [s * math.log(t) for t in xs]
            if max(abs(u) for u in us) < 1e-3:
                val = math.exp(math.log1p(math.fsum(math.expm1(u) for u in us) / n) / s)
        if val is None:
            try:
                total = math.fsum(t ** s for t in xs)
            except OverflowError:
                total = math.inf
            if math.isfinite(total) and total >= sys.float_info.min:
                val = (total / n) ** (1.0 / s)
            else:
                # rescale by the dominant argument; every term then lies in (0, 1]
                base = hi if s > 0 else lo
                total = math.fsum((t / base) ** s for t in xs)
                val = base * (total / n) ** (1.0 / s)
    # round toward the bracket: the exact value lies strictly inside it
    return min(max(val, lo), hi)


def make_power_mean(spec: PowerMeanSpec, domain: Interval = POSITIVE_REALS) -> Mean:
    """Wrap a power mean as a Mean value.

    Power means are strict, nondecreasing in each argument, positively
    homogeneous, and symmetric on (0, +inf), so all four flags are set.
    `domain` may restrict the mean to a subinterval of the positive reals.
    """
    if domain.lower < 0.0 or (domain.lower == 0.0 and not domain.lower_open):
        raise ValidationError(f"power means need a domain within (0, +inf), got {domain}")

    def _eval(args: Sequence[float], _spec: PowerMeanSpec = spec) -> float:
        return power_mean_eval(_spec, args)

    return Mean(
        arity=spec.arity,
        domain=domain,
        evaluator=_eval,
        flags=MeanFlags(strict=True, monotone=True, homogeneous=True, symmetric=True),
        label=f"P_{spec.order:g}",
    )


@dataclass(frozen=True)
class MeanPropertyViolation:
    """A sampled point where the declared mean contract failed."""

    point: tuple[float, ...]
    value: float
    kind: str  # "bounds" or "strictness"

    def __str__(self) -> str:
        return f"{self.kind} violation at x={self.point}: value {self.value!r}"


@dataclass(frozen=True)
class MeanPropertyReport:
    """Outcome of a sampling pass against min <= M <= max (and strictness).

    An empty violation list means "not falsified", never "proven".
    """

    label: str
    n_points: int
    strict_checked: bool
    violations: tuple[MeanPropertyViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def sample_box(interval: Interval) -> tuple[float, float]:
    """A closed box [lo, hi] strictly inside the interval, preferring [1, 2].

    Sampling from the returned box keeps points away from the domain
    boundary regardless of the open/closed flags.
    """
    lo, hi = interval.lower, interval.upper
    if lo < 1.0 and 2.0 < hi:
        return 1.0, 2.0
    if math.isfinite(lo) and math.isfinite(hi):
        w = hi - lo
        return lo + 0.25 * w, hi - 0.25 * w
    if math.isfinite(lo):
        s = max(1.0, abs(lo))
        return lo + s, lo + 2.0 * s
    s = max(1.0, abs(hi))
    return hi - 2.0 * s, hi - s


def sample_points(
    interval: Interval,
    arity: int,
    rng: Random,
    n_points: int,
    boundary_offset: float = 1e-6,
) -> list[tuple[float, ...]]:
    """Draw test points: uniform draws from the interior box, a few constant
    vectors, and boundary-adjacent points for each finite endpoint."""
    lo, hi = sample_box(interval)
    mid = 0.5 * (lo + hi)
    pts: list[tuple[float, ...]] = [(lo,) * arity, (mid,) * arity, (hi,) * arity]
    for endpoint, sign in ((interval.lower, +1.0), (interval.upper, -1.0)):
        if not math.isfinite(endpoint):
            continue
        v = endpoint + sign * boundary_offset
        if not interval.contains(v):
            continue
        pts.append((v,) * arity)
        if arity > 1:
            pts.append((v,) + (mid,) * (arity - 1))
    for _ in range(n_points):
        pts.append(tuple(rng.uniform(lo, hi) for _ in range(arity)))
    return pts


def check_mean_property(m: Mean, rng: Random, n_samples: int = 200) -> MeanPropertyReport:
    """Try to falsify min(x) <= M(x) <= max(x), and strictness when declared.

    Violations are data, not errors; a report with no violations says only
    that sampling did not find a counterexample.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    violations: list[MeanPropertyViolation] = []
    pts = sample_points(m.domain, m.arity, rng, n_samples)
    for x in pts:
        value = m(x)
        lo = min(x)
        hi = max(x)
        if not lo <= value <= hi:
            violations.append(MeanPropertyViolation(x, value, "bounds"))
            continue
        if m.flags.strict and lo < hi and (value <= lo or value >= hi):
            violations.append(MeanPropertyViolation(x, value, "strictness"))
    return MeanPropertyReport(
        label=m.label,
        n_points=len(pts),
        strict_checked=m.flags.strict,
        violations=tuple(violations),
    )


def validate_mean(m: Mean, rng: Random | None = None, n_samples: int = 128) -> Mean:
    """Falsification pass that hard-errors on any violation, for means
    built outside the library.

    Returns the mean unchanged so it can be used inline.
    """
    report = check_mean_property(m, rng if rng is not None else Random(0x5EED), n_samples)
    if not report.passed:
        first = report.violations[0]
        raise ValidationError(
            f"mean {m.label!r} falsified: {len(report.violations)} violation(s), first: {first}"
        )
    return m
