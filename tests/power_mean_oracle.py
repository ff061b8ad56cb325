"""A frozen copy of `power_mean_eval`, the reference the compiled step is
compared with bit for bit (`test_plan.py`).  Do not edit it to follow the
package.

Order 0 is kept verbatim as it stood before the evaluation plan.  The
small-order branch was re-frozen when the package gave small orders one
arithmetic: ln M = ln b + log1p(mean(expm1(s * (ln t - ln b)))) / s with
b = max(x) for s > 0 and min(x) for s < 0, on every argument, with no
fallback to the power sum.  The power-sum branch and the threshold
between the two were re-frozen when the package pivoted every nonzero
order on b: M = b * (fsum((t / b)^s) / n)^(1/s) for |s| >= 1/16, with no
rescue, range test or fallback, and the expm1/log1p form below 1/16."""

from __future__ import annotations

import math
from typing import Sequence

from invmean import DomainError, PowerMeanSpec, ShapeError


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
        # take the n-th root of the mantissa times 2^r only, with the exponent
        # split as q*n + r, so 2^q is exact and the rounding of 1/n is not
        # multiplied by |ln prod|; every partial product lies between
        # min(1, lo^n) and max(1, hi^n), and when that range can leave the
        # normal floats the mantissas and exponents are multiplied apart
        if n * math.log2(lo) > -1020.0 and n * math.log2(hi) < 1020.0:
            mant, e = math.frexp(math.prod(xs))
        else:
            parts = [math.frexp(t) for t in xs]
            mant = math.prod(m for m, _ in parts)
            e = sum(e for _, e in parts)
        q, r = divmod(e, n)
        val = math.ldexp(math.ldexp(mant, r) ** (1.0 / n), q)
    elif abs(s) < 1 / 16:
        # the power sum of M(x / b) would cancel the whole signal and
        # amplify its rounding by 1/|s|; expm1/log1p keeps it
        lb = math.log(hi if s > 0 else lo)
        val = math.exp(lb + math.log1p(math.fsum(math.expm1(s * (math.log(t) - lb)) for t in xs) / n) / s)
    else:
        # every term (t / b)^s lies in [0, 1] and b's own is 1
        base = hi if s > 0 else lo
        val = base * (math.fsum((t / base) ** s for t in xs) / n) ** (1.0 / s)
    # round toward the bracket: the exact value lies strictly inside it
    return min(max(val, lo), hi)
