"""The oracle of acceptance criterion 10, the functional equation
F = phi(K(.)): a sampler that solves it for a diagonal-continuous F, or
refutes it, on a certified mapping.  Only the tests call it."""

from __future__ import annotations

from random import Random
from typing import Callable, Sequence

from invmean import CheckReport, ComposedMapping, invariant_mean_eval
from invmean.invariant import (
    DEFAULT_RESIDUAL_TOL,
    _certificate,
    _check_tol,
    _nonconstant_samples,
)
from invmean.means import sweep


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
