"""Intervals, the mean contract, and the power-mean family.

A p-variable mean on an interval I is a function M: I^p -> I with
min(x) <= M(x) <= max(x) for every x in I^p, *strict* when both
inequalities are strict for every nonconstant x.  A mean here is a plain
value: an arity, a domain interval, an evaluator, and one declaration,
`strict`, asserted by whoever builds the mean.  It is the premise of the
contractivity certificate (`averaging.falsify_contractivity`) and of the
sampled strictness of K (`invariant.verify_mean_properties`);
`check_mean_property` can falsify it by sampling, and `validate_mean`
turns a falsification into a hard error, but nothing is ever proven.
Monotonicity and homogeneity are not declared: `verify_mean_properties`
samples them on any mapping.

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

That arithmetic is written once, as generated source: `_power_row` emits
the lines of one order and arity.  `power_mean_eval`, after its
argument checks, runs them as a function of their own, compiled on first
use and kept per (order, arity); a mapping steps on the same functions
until it compiles its own kernel, which runs the lines inline as one of
its rows (`averaging`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ShapeError, ValidationError, check_count

__all__ = [
    "Interval",
    "POSITIVE_REALS",
    "Mean",
    "PowerMeanSpec",
    "power_mean_eval",
    "make_power_mean",
    "Witness",
    "CheckReport",
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


def _point(x: Sequence[float]) -> tuple[float, ...]:
    """The coordinates of the point x as floats.  A str, bytes or anything
    not iterable is no point, and a coordinate is a `numbers.Real` that is
    not a bool (bool, numpy's included) and that fits in a float, such as
    an int, a float, a Fraction or a numpy int or float (ValidationError
    otherwise).  Its length and domain are the caller's to check."""
    try:
        coordinates = iter(x)
    except TypeError:
        coordinates = None
    if coordinates is None or isinstance(x, (str, bytes)):
        raise ValidationError(f"point must be a sequence of numbers, got {x!r}")
    xs = []
    for t in coordinates:
        # a float (numpy's float64 too) or an int first: the ABC check costs more
        if isinstance(t, float) or type(t) is int or isinstance(t, Real) and not isinstance(t, bool):
            try:
                xs.append(float(t))
                continue
            except OverflowError:  # an int beyond the float range
                pass
        raise ValidationError(f"point coordinate {len(xs) + 1} must be a number, got {t!r}")
    return tuple(xs)


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
class Mean:
    """An n-variable mean: evaluator plus declared metadata.

    The evaluator must satisfy min(x) <= eval(x) <= max(x) on the domain,
    strictly on nonconstant x when `strict` (a bool) is declared; this is
    the caller's promise, checkable by `check_mean_property`.
    Equality and hash take in every field, the evaluator too: a
    `PowerMeanSpec` compares by value and a function by identity, so
    two means that compare equal evaluate alike.
    """

    arity: int
    domain: Interval
    evaluator: Callable[[Sequence[float]], float]
    strict: bool = False
    label: str = "mean"

    def __post_init__(self) -> None:
        check_count(self.arity, "mean arity")
        if not isinstance(self.domain, Interval):
            raise ValidationError(f"mean domain must be an Interval, got {self.domain!r}")
        _check_flags(self, "strict")

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
        check_count(self.arity, "power-mean arity")

    def __call__(self, args: Sequence[float]) -> float:
        # the evaluator of a `make_power_mean` mean: `power_mean_eval`,
        # looked up when called, with its argument checks
        return power_mean_eval(self, args)


def power_mean_eval(spec: PowerMeanSpec, x: Sequence[float]) -> float:
    """Evaluate the power mean of order spec.order at x.

    Every argument must be strictly positive and finite (the domain is the
    open half-line, checked without tolerance).  The result is clamped into
    [min(x), max(x)].  The arithmetic is the row that `_power_row`
    generates for the order and arity, the same row a mapping's compiled
    kernel runs, here compiled as a function of its own on first use.

    Raises ShapeError on an arity mismatch and DomainError on arguments
    outside (0, +inf).
    """
    xs = _point(x)
    if len(xs) != spec.arity:
        raise ShapeError(f"power mean of arity {spec.arity} got {len(xs)} arguments")
    for t in xs:
        if not t > 0.0 or math.isinf(t):  # also rejects NaN
            raise DomainError(f"power-mean argument {t!r} outside (0, +inf)")
    return _power_function(spec.order, spec.arity)(*xs)


#: Every name a generated row calls: the namespace that `_compile` runs
#: generated source in.
_ROW_NAMES = {f.__name__: f for f in (
    min, max, divmod, math.sqrt, math.log, math.log2, math.exp, math.log1p,
    math.expm1, math.frexp, math.ldexp, math.fsum, math.prod,
)}


def _compile(source: str, filename: str, name: str) -> Callable:
    """The function `name` that the generated `source` defines, compiled
    and run in a namespace of `_ROW_NAMES`.  The namespace stays the
    function's globals but no longer holds the function, so a function
    that is dropped is freed by its reference count, with no cycle left
    for the collector."""
    namespace = {"__name__": __name__, **_ROW_NAMES}
    exec(compile(source, filename, "exec"), namespace)
    return namespace.pop(name)


#: How many (order, arity) row functions `power_mean_eval` keeps compiled.
_ROW_CACHE_SIZE = 128


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _power_function(order: float, arity: int) -> Callable[..., float]:
    """The row of `_power_row` for (order, arity) as a function of `arity`
    floats, compiled on first use.  It is kept per pair, not per spec, so
    every spec of one order and arity shares one compile, and a mapping's
    steps (`ComposedMapping._steps`) call it too until they compile."""
    args = [f"x{j}" for j in range(arity)]
    source = "\n".join([
        f"def row({', '.join(args)}):",
        *(f"    {line}" for line in _power_row(order, args, "y")),
        "    return y",
    ])
    return _compile(source, f"<invmean power mean s={order!r} n={arity}>", "row")


# below this |order| a ratio t / b that underflows to 0 would drop a
# term that moves M by more than 1e-19 relative, see _power_row
_SMALL_ORDER = 1 / 16

# up to this many mantissas in [1/2, 1) multiply to a normal float
_SPLIT_ARITY = 1022


def _power_row(s: float, args: Sequence[str], out: str) -> list[str]:
    """Python source lines that set the local `out` to the power mean of
    order s of the locals `args`, which hold finite positive floats,
    clamped into [min, max] of them: the package's one power-mean
    arithmetic.  `power_mean_eval` runs it as a function of its own and a
    mapping's kernel as one of its rows (`averaging._compile_steps`).  The
    lines use the temporaries e, f, m, q, r, t, u, v and w, call only
    names of `_ROW_NAMES` and write `out` in their last line only, after
    every argument has been read, so `out` may be one of `args`.

    A row that reads one local only, once or more (one argument, or a
    self-loop), is that local: the mean of equal arguments.  Every other
    row finds the bracket of its arguments, u = min and w = max below, and
    ends in one clamp line.  It has no branch for equal values: whatever a
    path computes, the clamp into [a, a] returns a.  A two-argument row on
    a and b is one branch, `if a < b:`, whose two arms run the same lines
    (`_bracketed_row`) with (u, w) named (a, b) and (b, a): no bracket is
    stored.  It writes each sum as the pivot's exact term plus the
    other's, a + b being the correctly rounded sum that fsum returns, and
    halves it by `* 0.5`, the same correctly rounded operation as `/ 2`.
    A longer row stores u = min and w = max of its locals and takes the
    fsum of its terms in argument order.

    Order 0 is the n-th root of the product, with the product's exponent
    split as q*n + r, so 2^q is exact and the rounding of 1/n is not
    multiplied by |ln prod|: the root of m * 2^r, scaled by 2^q.  Of two
    arguments within 2^+-509 it is sqrt(u * w), a normal product, whose
    square root is the one of the split mantissa.  Of up to 1022 arguments
    it takes the product whole (`prod`, which multiplies in argument order
    and compiles at any arity) when every partial product, which lies
    between min(1, u^n) and max(1, w^n), is a normal float.  Otherwise the
    mantissas and exponents are multiplied apart, in argument order: up to
    1022 mantissas in [1/2, 1) multiply to a normal float, and r < 1022
    keeps m * 2^r finite.  Above 1022 arguments neither holds, and that
    form is chosen when the row is generated: the mantissa is renormalised
    after each factor, as frexp(m * t), which changes no rounding, and the
    root is m^(1/n) * 2^(r/n), two pows of exponents in [0, 1).

    Every other order is taken relative to its dominant argument b, w for
    s > 0 and u for s < 0, so M = b * P_s(x / b), where every (t / b)^s
    lies in [0, 1] and b's own is exactly 1.  An order with |s| >= 1/16 is
    the power sum

        M = b * (fsum((t / b)^s) / n)^(1/s),

    with 1/s a constant, and a ratio that underflows to 0 drops a term of
    at most 2^(-1074|s|), which moves M by at most 2^(-1074|s|) / |s|
    relative, below 1e-19.  The named orders 1, -1 and 2 (arithmetic,
    harmonic, quadratic) write that sum without pow, as w * mean(t / w),
    u / mean(u / t) and w * sqrt(mean((t / w)^2)): `/`, `*` and sqrt are
    correctly rounded and pow is not, so these forms are no less accurate.
    A smaller order, 0 < |s| < 1/16, where a dropped term weighs more and
    the root multiplies the sum's roundings by 1/|s|, is evaluated as

        ln M = ln b + log1p(mean(expm1(s * (ln t - ln b)))) / s,

    so every expm1 lies in (-1, 0], the mean of 1 + expm1 is at least 1/n
    and log1p does not cancel; the relative error is of order
    u * (1 + max|ln t|).  Outside the small orders the factor on the pivot
    is at most 1 for s > 0 and at least 1 for s < 0, so the clamp is
    one-sided.

    No row raises OverflowError, and none catches one:
      * order 0: the product taken whole is a normal float, every
        mantissa product lies in [2^-1022, 1), and the root of m * 2^r,
        or m^(1/n) * 2^(r/n), lies in [1/2, 2).  ldexp by q could pass the
        largest float only with q = 1024, that is when every argument
        lies in [2^1023, 2^1024) and r = 0.  Their mantissa product is
        then at most about 1 - n * 2^-53, its n-th root rounds to at most
        1 - 2^-53, not to 1, and 2^(0/n) is 1;
      * the power sum: every term is at most 1, so the sum lies in
        [1, n] and its mean in [1/n, 1]; the root of the mean is at most
        1 for s > 0 and at most n^16 for s <= -1/16, and the product with
        b is a float multiplication, which does not raise;
      * the small orders: ln M comes out at most the largest ln t, as
        the log1p term is at most 0 for s > 0 and about half the spread
        of the logs for s < 0, and exp of the log of the largest float is
        finite, so exp does not overflow.
    """
    if len(set(args)) == 1:
        return [f"{out} = {args[0]}"]
    if len(args) == 2:
        a, b = args
        return [
            f"if {a} < {b}:",
            *(f"    {line}" for line in _bracketed_row(s, args, a, b, out)),
            "else:",
            *(f"    {line}" for line in _bracketed_row(s, args, b, a, out)),
        ]
    listed = ", ".join(args)
    return [f"u = min({listed})", f"w = max({listed})", *_bracketed_row(s, args, "u", "w", out)]


def _bracketed_row(s: float, args: Sequence[str], lo: str, hi: str, out: str) -> list[str]:
    """The lines of `_power_row` after the bracket: they set `out` to the
    power mean of order s of the locals `args`, given the names `lo` and
    `hi` of their min and max.  A two-argument row names only lo and hi,
    which are its arguments themselves, and writes `out` in its last line
    only."""
    n = len(args)
    listed = ", ".join(args)
    clamp = f"{out} = {lo} if v < {lo} else {hi} if v > {hi} else v"
    if s == 0.0:
        if n == 2:
            # two arguments in this range multiply with no underflow or
            # overflow, and their split mantissa has the same square root
            return [
                f"if {2.0 ** -509!r} < {lo} and {hi} < {2.0 ** 509!r}:",
                f"    v = sqrt({lo} * {hi})",
                "else:",
                f"    m, e = frexp({lo}); t, f = frexp({hi}); q, r = divmod(e + f, 2)",
                "    v = ldexp(sqrt(ldexp(m * t, r)), q)",
                clamp,
            ]
        if n > _SPLIT_ARITY:
            return [
                "m = 1.0; e = 0",
                f"for t in ({listed}):",
                "    t, f = frexp(t); m, r = frexp(m * t); e += f + r",
                f"q, r = divmod(e, {n})",
                f"v = ldexp(m ** {1.0 / n!r} * 2.0 ** (r / {n}), q)",
                clamp,
            ]
        return [
            f"if {n} * log2({lo}) > -1020.0 and {n} * log2({hi}) < 1020.0:",
            f"    m, e = frexp(prod(({listed})))",
            "else:",
            f"    m, e = frexp({args[0]})",
            *(f"    t, f = frexp({a}); m *= t; e += f" for a in args[1:]),
            f"q, r = divmod(e, {n})",
            f"v = ldexp(ldexp(m, r) ** {1.0 / n!r}, q)",
            clamp,
        ]
    pivot, other = (hi, lo) if s > 0 else (lo, hi)

    def mean(term: str, own: str = "1.0") -> str:
        # the mean of term.format(t) over the arguments t; of two, the
        # pivot's own term is exactly `own`, "" for 0, and the sum is
        # halved by `* 0.5`, rounded as `/ 2` is, but a float-by-float
        # product, which CPython specialises
        if n > 2:
            return f"fsum(({', '.join(term.format(t) for t in args)})) / {n}"
        return f"({own} + {term.format(other)}) * 0.5" if own else f"{term.format(other)} * 0.5"

    if abs(s) < _SMALL_ORDER:
        # t is the log of the pivot; the exponent is at most log(hi), so exp
        # does not overflow: the log1p term is <= 0 for s > 0, and about
        # half the spread of the logs for s < 0
        terms = mean(f"expm1(({s!r}) * (log({{}}) - t))", "")
        return [f"t = log({pivot})", f"v = exp(t + log1p({terms}) / ({s!r}))", clamp]
    if s == 1.0:
        body = f"v = {hi} * ({mean(f'{{}} / {hi}')})"
    elif s == -1.0:
        body = f"v = {lo} / ({mean(f'{lo} / {{}}')})"
    elif s == 2.0:
        body = f"v = {hi} * sqrt({mean(f'(t := {{}} / {hi}) * t')})"
    else:
        terms = mean(f"({{}} / {pivot}) ** ({s!r})")
        body = f"v = {pivot} * ({terms}) ** ({1.0 / s!r})"
    if s > 0:
        return [body, f"{out} = {lo} if v < {lo} else v"]
    return [body, f"{out} = {hi} if v > {hi} else v"]


def _not_strict(means: Iterable[Mean]) -> str:
    """The sorted labels of the means not declared strict, joined by ", ",
    or "" when every one is: the one reader of the declaration."""
    return ", ".join(sorted({mean.label for mean in means if not mean.strict}))


def _within_positive_reals(domain: Interval) -> bool:
    return domain.lower > 0.0 or (domain.lower == 0.0 and domain.lower_open)


def make_power_mean(spec: PowerMeanSpec, domain: Interval = POSITIVE_REALS) -> Mean:
    """Wrap a power mean as a Mean value.

    Power means are strict, so the mean declares `strict`; they are also
    nondecreasing in each argument and positively homogeneous on (0, +inf).
    `domain` may restrict the mean to a subinterval of the positive reals.
    """
    if not _within_positive_reals(domain):
        raise ValidationError(f"power means need a domain within (0, +inf), got {domain}")
    return Mean(
        arity=spec.arity,
        domain=domain,
        evaluator=spec,
        strict=True,
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

    A library power mean is evaluated on its row function, the one its
    mapping steps with (`_power_function`): `power_mean_eval` returns the
    same floats after checking each point, and `sample_points` draws every
    point inside the domain.  Any other mean is called, m(x).  Each witness
    message starts with "bounds" or "strictness"; the residual is how far
    M(x) lies outside [min(x), max(x)].  A report with no violations says
    only that sampling did not find a counterexample.
    """
    check_count(n_samples, "n_samples")
    strict = not _not_strict((m,))
    order = _power_order(m)
    row = _power_function(order, m.arity) if order is not None else None

    def judge(x: tuple[float, ...]) -> tuple[float, str | None]:
        value = row(*x) if row is not None else m(x)
        lo = min(x)
        hi = max(x)
        residual = max(lo - value, value - hi)
        if not lo <= value <= hi:
            return residual, f"bounds violation: value {value!r}"
        if strict and lo < hi and (value <= lo or value >= hi):
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
