"""Intervals, the mean contract, and the power-mean family.

A p-variable mean on an interval I is a function M: I^p -> I with
min(x) <= M(x) <= max(x) for every x in I^p, *strict* when both
inequalities are strict for every nonconstant x.  A mean here is a plain
value: an arity, a domain interval, an evaluator, and declared
structural flags (strict / monotone / homogeneous).  Flags
are assertions made by whoever builds the mean; `check_mean_property`
can falsify them by sampling, and `validate_mean` turns a falsification
into a hard error, but nothing is ever proven.

The one concrete family shipped is the power mean of order s on the
positive reals:

    P_s(x_1, ..., x_n) = ((x_1^s + ... + x_n^s) / n)^(1/s)   for s != 0
    P_0(x_1, ..., x_n) = (x_1 * ... * x_n)^(1/n)             (geometric)

s = 0 is an explicit branch, not a limit.  Every other order is taken
relative to its dominant argument b (max(x) for s > 0, min(x) for
s < 0), as b * P_s(x / b): the power sum for |s| >= 1/16 and an
expm1/log1p form below, so no power mean overflows.  The four named
means (orders -1, 0, 1, 2) evaluate no pow, only the correctly rounded
/, * and sqrt, except the n-th root of order 0 at n >= 3.  Results are
clamped into [min(x), max(x)], so the mean property holds exactly in
floating point and min/max oscillation brackets shrink monotonically
under iteration.
"""

from __future__ import annotations

import math
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
    "Witness",
    "CheckReport",
    "sweep",
    "check_mean_property",
    "validate_mean",
]


def _real(value: object, what: str) -> float:
    """`value` as a float: an int or a float, never a str or a bool (bool is
    an int subclass), that fits in a float (ValidationError otherwise)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} {value} is out of float range") from None


def _check_flags(obj: object, *names: str) -> None:
    # a flag is a bool: "no" or 0 would otherwise read as a truth value
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, bool):
            raise ValidationError(f"{name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class Interval:
    """A nonempty real interval with independently open/closed endpoints.

    Infinite endpoints are allowed and are always open; `contains` is the
    membership test consistent with the flags.  The endpoints must be ints
    or floats (not bools) and the flags bools, else ValidationError.
    """

    lower: float
    upper: float
    lower_open: bool = True
    upper_open: bool = True

    def __post_init__(self) -> None:
        lo = _real(self.lower, "lower")
        hi = _real(self.upper, "upper")
        _check_flags(self, "lower_open", "upper_open")
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

    def __str__(self) -> str:
        left = "(" if self.lower_open else "["
        right = ")" if self.upper_open else "]"
        return f"{left}{_endpoint(self.lower)}, {_endpoint(self.upper)}{right}"


def _endpoint(t: float) -> str:
    # the short :g form only when it reads back as t, so that two close
    # endpoints never print alike: (1, 1.0000001), not (1, 1)
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


#: The open half-line (0, +inf), the domain of every power mean.
POSITIVE_REALS = Interval(0.0, math.inf)


@dataclass(frozen=True)
class MeanFlags:
    """Structural properties a mean is asserted to have; each is a bool."""

    strict: bool = False
    monotone: bool = False
    homogeneous: bool = False

    def __post_init__(self) -> None:
        _check_flags(self, "strict", "monotone", "homogeneous")


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
        arity = self.arity
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise ValidationError(f"mean arity must be a positive integer, got {arity!r}")
        if not isinstance(self.domain, Interval):
            raise ValidationError(f"mean domain must be an Interval, got {self.domain!r}")
        if not isinstance(self.flags, MeanFlags):
            raise ValidationError(f"mean flags must be a MeanFlags, got {self.flags!r}")

    def __call__(self, args: Sequence[float]) -> float:
        return self.evaluator(args)


@dataclass(frozen=True)
class PowerMeanSpec:
    """Order and arity of a power mean; the domain is always (0, +inf)."""

    order: float
    arity: int

    def __post_init__(self) -> None:
        order = _real(self.order, "order")
        if not math.isfinite(order):
            raise ValidationError(f"power-mean order must be finite, got {order!r}")
        object.__setattr__(self, "order", order)
        arity = self.arity
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise ValidationError(f"power-mean arity must be a positive integer, got {arity!r}")

    def __call__(self, args: Sequence[float]) -> float:
        # the evaluator of a `make_power_mean` mean: `power_mean_eval`,
        # looked up when called, with its argument checks
        return power_mean_eval(self, args)


def power_mean_eval(spec: PowerMeanSpec, x: Sequence[float]) -> float:
    """Evaluate the power mean of order spec.order at x.

    Every argument must be strictly positive and finite (the domain is the
    open half-line, checked without tolerance).  The result is clamped into
    [min(x), max(x)].  The arithmetic is `_power_mean`, which a mapping's
    compiled kernel restates (`_power_row`).

    Raises ShapeError on an arity mismatch and DomainError on arguments
    outside (0, +inf).
    """
    xs = tuple(float(t) for t in x)
    if len(xs) != spec.arity:
        raise ShapeError(f"power mean of arity {spec.arity} got {len(xs)} arguments")
    for t in xs:
        if not t > 0.0 or math.isinf(t):  # also rejects NaN
            raise DomainError(f"power-mean argument {t!r} outside (0, +inf)")
    return _power_mean(spec.order, xs)


# below this |order| a ratio t / b that underflows to 0 would drop a
# term that moves M by more than 1e-19 relative, see _power_mean
_SMALL_ORDER = 1 / 16


def _power_mean(s: float, xs: Sequence[float]) -> float:
    """The power mean of order s of arguments already known to be finite
    and positive, clamped into [min(xs), max(xs)]: the arithmetic of
    `power_mean_eval`, without its checks.

    Order 0 is the n-th root of the product, a square root when n = 2.
    Every other order is taken relative to its dominant argument b, max(xs)
    for s > 0 and min(xs) for s < 0, so M = b * P_s(x / b), where every
    (t / b)^s lies in [0, 1] and b's own is exactly 1.  An order with
    |s| >= 1/16 is the power sum

        M = b * (fsum((t / b)^s) / n)^(1/s),

    and a ratio that underflows to 0 drops a term of at most
    2^(-1074|s|), which moves M by at most 2^(-1074|s|) / |s| relative,
    below 1e-19.  The named orders 1, -1 and 2 (arithmetic, harmonic,
    quadratic) write that sum without pow, as hi * mean(t / hi),
    lo / mean(lo / t) and hi * sqrt(mean((t / hi)^2)): `/`, `*` and sqrt
    are correctly rounded and pow is not, so these forms are no less
    accurate.  A smaller order, 0 < |s| < 1/16, where a dropped term weighs
    more and the root multiplies the sum's roundings by 1/|s|, is
    evaluated as

        ln M = ln b + log1p(mean(expm1(s * (ln t - ln b)))) / s,

    so every expm1 lies in (-1, 0], the mean of 1 + expm1 is at least 1/n
    and log1p does not cancel; the relative error is of order
    u * (1 + max|ln t|).  Equal arguments take no branch of their own:
    whatever a path computes, the clamp into [a, a] returns a.

    No power mean raises OverflowError, and no path needs to catch one:
      * order 0: every partial product lies between min(1, lo^n) and
        max(1, hi^n), so it stays a normal float where the product is
        taken whole, and the mantissas lie in [1/2, 1) where it is not;
        the root of mant * 2^r lies in [1/2, 2), and ldexp by q could
        pass the largest float only with q = 1024, that is when every
        argument lies in [2^1023, 2^1024), whose mantissa product is then
        at most about 1 - n * 2^-53, and its n-th root rounds to at most
        1 - 2^-53, not to 1;
      * the power sum: every term is at most 1, so the sum lies in
        [1, n] and its mean in [1/n, 1]; the root of the mean is at most
        1 for s > 0 and at most n^16 for s <= -1/16, and the product with
        b is a float multiplication, which does not raise;
      * the small orders: ln M comes out at most the largest ln t, as
        the log1p term is at most 0 for s > 0 and about half the spread
        of the logs for s < 0, and exp of the log of the largest float is
        finite, so exp does not overflow.
    """
    lo = min(xs)
    hi = max(xs)
    n = len(xs)
    if s == 0.0:
        # take the n-th root of the mantissa times 2^r only, with the
        # exponent split as q*n + r, so 2^q is exact and the rounding of
        # 1/n is not multiplied by |ln prod|; every partial product lies
        # between min(1, lo^n) and max(1, hi^n), and when that range can
        # leave the normal floats the mantissas and exponents are
        # multiplied apart
        if n * math.log2(lo) > -1020.0 and n * math.log2(hi) < 1020.0:
            mant, e = math.frexp(math.prod(xs))
        else:
            parts = [math.frexp(t) for t in xs]
            mant = math.prod(m for m, _ in parts)
            e = sum(e for _, e in parts)
        q, r = divmod(e, n)
        t = math.ldexp(mant, r)
        val = math.ldexp(math.sqrt(t) if n == 2 else t ** (1.0 / n), q)
    elif s == 1.0:
        val = hi * (math.fsum([t / hi for t in xs]) / n)
    elif s == -1.0:
        val = lo / (math.fsum([lo / t for t in xs]) / n)
    elif s == 2.0:
        val = hi * math.sqrt(math.fsum([(t / hi) * (t / hi) for t in xs]) / n)
    elif abs(s) < _SMALL_ORDER:
        lb = math.log(hi if s > 0 else lo)
        val = math.exp(
            lb + math.log1p(math.fsum([math.expm1(s * (math.log(t) - lb)) for t in xs]) / n) / s
        )
    else:
        b = hi if s > 0 else lo
        val = b * (math.fsum([(t / b) ** s for t in xs]) / n) ** (1.0 / s)
    # round toward the bracket: the exact value lies strictly inside it
    return min(max(val, lo), hi)


def _power_row(s: float, args: Sequence[str], out: str) -> list[str]:
    """Python source lines that set the local `out` to `_power_mean(s, args)`,
    where `args` name locals that hold finite positive floats: one row of a
    mapping's compiled kernel (`averaging.ComposedMapping._steps`).

    Every row restates `_power_mean`'s arithmetic inline and gives its
    result bit for bit; none calls it.  A row that reads one local only,
    once or more (one argument, or a self-loop), is that local: the mean
    of equal arguments.  Every other row opens with the bracket of its
    arguments, u = min and w = max, and ends in one clamp line; it has no
    branch for equal values, which the clamp answers as `_power_mean`'s
    does.  A two-argument row finds the bracket with one branch and writes
    each sum as the pivot's exact term plus the other's: a + b is the
    correctly rounded sum that fsum returns.  A longer row takes min and
    max of its locals and the fsum of the same terms as `_power_mean`.

    Order 0 of two arguments is sqrt(u * w) when both lie within 2^+-509,
    so the product is a normal float and its square root is the one
    `_power_mean` takes on the split mantissa; of more arguments it takes
    the product when `_power_mean`'s range test does.  Otherwise the
    mantissas and exponents are multiplied apart, as in `_power_mean`: in
    its argument order, which matters from three arguments on.  A nonzero
    order is pivoted on the dominant argument as in `_power_mean`: a small
    order takes its expm1/log1p form, orders 1, -1 and 2 its pow-free
    forms, any other the power sum with 1/s as a constant.  Outside the
    small orders the factor on the pivot is at most 1 for s > 0 and at
    least 1 for s < 0, so the clamp is one-sided.  The lines use the
    temporaries e, f, m, q, r, t, u, v and w, and the names sqrt, log,
    log2, exp, log1p, expm1, frexp, ldexp and fsum.
    """
    if len(set(args)) == 1:
        return [f"{out} = {args[0]}"]
    n = len(args)
    if n == 2:
        a, b = args
        head = [f"if {a} < {b}: u = {a}; w = {b}", f"else: u = {b}; w = {a}"]
    else:
        listed = ", ".join(args)
        head = [f"u = min({listed})", f"w = max({listed})"]
    clamp = f"{out} = u if v < u else w if v > w else v"
    if s == 0.0:
        if n == 2:
            # two arguments in this range multiply with no underflow or
            # overflow, and `_power_mean` takes the same product path there
            return [
                *head,
                f"if {2.0 ** -509!r} < u and w < {2.0 ** 509!r}:",
                "    v = sqrt(u * w)",
                "else:",
                "    m, e = frexp(u); t, f = frexp(w); q, r = divmod(e + f, 2)",
                "    v = ldexp(sqrt(ldexp(m * t, r)), q)",
                clamp,
            ]
        return [
            *head,
            f"if {n} * log2(u) > -1020.0 and {n} * log2(w) < 1020.0:",
            f"    m, e = frexp({' * '.join(args)})",
            "else:",
            f"    m, e = frexp({args[0]})",
            *(f"    t, f = frexp({a}); m *= t; e += f" for a in args[1:]),
            f"q, r = divmod(e, {n})",
            f"v = ldexp(ldexp(m, r) ** {1.0 / n!r}, q)",
            clamp,
        ]
    pivot, other = ("w", "u") if s > 0 else ("u", "w")

    def mean(term: str, own: str = "1.0") -> str:
        # the mean of term.format(t) over the arguments t; of two, the
        # pivot's own term is exactly `own`, "" for 0
        if n > 2:
            return f"fsum(({', '.join(term.format(t) for t in args)})) / {n}"
        return f"({own} + {term.format(other)}) / 2" if own else f"{term.format(other)} / 2"

    if abs(s) < _SMALL_ORDER:
        # t is the log of the pivot; the exponent is at most log(w), so exp
        # does not overflow: the log1p term is <= 0 for s > 0, and about
        # half the spread of the logs for s < 0
        terms = mean(f"expm1(({s!r}) * (log({{}}) - t))", "")
        return [*head, f"t = log({pivot})", f"v = exp(t + log1p({terms}) / ({s!r}))", clamp]
    if s == 1.0:
        body = f"v = w * ({mean('{} / w')})"
    elif s == -1.0:
        body = f"v = u / ({mean('u / {}')})"
    elif s == 2.0:
        body = f"v = w * sqrt({mean('(t := {} / w) * t')})"
    else:
        terms = mean(f"({{}} / {pivot}) ** ({s!r})")
        body = f"v = {pivot} * ({terms}) ** ({1.0 / s!r})"
    return [*head, body, f"{out} = u if v < u else v" if s > 0 else f"{out} = w if v > w else v"]


def _within_positive_reals(domain: Interval) -> bool:
    return domain.lower > 0.0 or (domain.lower == 0.0 and domain.lower_open)


#: The flags of every power mean, one value shared by all of them.
_POWER_FLAGS = MeanFlags(strict=True, monotone=True, homogeneous=True)


def make_power_mean(spec: PowerMeanSpec, domain: Interval = POSITIVE_REALS) -> Mean:
    """Wrap a power mean as a Mean value.

    Power means are strict, nondecreasing in each argument and positively
    homogeneous on (0, +inf), so all three flags are set.
    `domain` may restrict the mean to a subinterval of the positive reals.
    """
    if not _within_positive_reals(domain):
        raise ValidationError(f"power means need a domain within (0, +inf), got {domain}")
    return Mean(
        arity=spec.arity,
        domain=domain,
        evaluator=spec,
        flags=_POWER_FLAGS,
        label=f"P_{spec.order:g}",
    )


def _power_order(mean: Mean) -> float | None:
    """The order of `mean` when it is a library power mean of its own arity
    on a domain within (0, +inf), else None: a mapping compiles such a row
    with `_power_row`, without argument checks."""
    ev = mean.evaluator
    if (
        type(ev) is PowerMeanSpec
        and ev.arity == mean.arity
        and _within_positive_reals(mean.domain)
    ):
        return ev.order
    return None


@dataclass(frozen=True)
class Witness:
    """A sampled point that violated a checked property."""

    point: tuple[float, ...]
    message: str

    def __str__(self) -> str:
        return f"x={self.point}: {self.message}"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampling sweep.

    Every sample is either evaluated or skipped (the property could not be
    judged there, e.g. an iteration did not converge).  No violations
    means "not falsified", never "proven".
    """

    name: str
    n_samples: int
    n_evaluated: int
    n_skipped: int
    max_residual: float
    violations: tuple[Witness, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def sweep(
    name: str,
    samples: Sequence,
    judge: Callable[..., tuple[float, str | None] | None],
) -> CheckReport:
    """Judge every sample and collect the outcome as a CheckReport.

    A sample is a point, or a pair (point, context) when the judge needs
    more than the point; witnesses carry the point.  judge returns None to
    skip the sample, else (residual, message) with message None when the
    property held; max_residual is the largest residual, and at least 0.
    """
    violations = []
    worst = 0.0
    evaluated = 0
    for sample in samples:
        outcome = judge(sample)
        if outcome is None:
            continue
        evaluated += 1
        residual, message = outcome
        worst = max(worst, residual)
        if message is not None:
            point = sample[0] if isinstance(sample[0], tuple) else sample
            violations.append(Witness(point, message))
    return CheckReport(
        name=name,
        n_samples=len(samples),
        n_evaluated=evaluated,
        n_skipped=len(samples) - evaluated,
        max_residual=worst,
        violations=tuple(violations),
    )


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


_BOUNDARY_OFFSET = 1e-6


def sample_points(
    interval: Interval,
    arity: int,
    rng: Random,
    n_points: int,
) -> list[tuple[float, ...]]:
    """Draw test points: uniform draws from the interior box, a few constant
    vectors, and boundary-adjacent points for each finite endpoint."""
    lo, hi = sample_box(interval)
    mid = 0.5 * (lo + hi)
    pts: list[tuple[float, ...]] = [(lo,) * arity, (mid,) * arity, (hi,) * arity]
    for endpoint, sign in ((interval.lower, +1.0), (interval.upper, -1.0)):
        if not math.isfinite(endpoint):
            continue
        v = endpoint + sign * _BOUNDARY_OFFSET
        if not interval.contains(v):
            continue
        pts.append((v,) * arity)
        if arity > 1:
            pts.append((v,) + (mid,) * (arity - 1))
    for _ in range(n_points):
        pts.append(tuple(rng.uniform(lo, hi) for _ in range(arity)))
    return pts


def check_mean_property(m: Mean, rng: Random, n_samples: int = 200) -> CheckReport:
    """Try to falsify min(x) <= M(x) <= max(x), and strictness when declared.

    Each witness message starts with "bounds" or "strictness"; the residual
    is how far M(x) lies outside [min(x), max(x)].  A report with no
    violations says only that sampling did not find a counterexample.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")

    def judge(x: tuple[float, ...]) -> tuple[float, str | None]:
        value = m(x)
        lo = min(x)
        hi = max(x)
        residual = max(lo - value, value - hi)
        if not lo <= value <= hi:
            return residual, f"bounds violation: value {value!r}"
        if m.flags.strict and lo < hi and (value <= lo or value >= hi):
            return residual, f"strictness violation: value {value!r}"
        return residual, None

    return sweep("mean-property", sample_points(m.domain, m.arity, rng, n_samples), judge)


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
