"""Output checks computed apart from the program.

Nothing here imports invmean.  The checks work from the spec dictionaries
the benchmark generated and from the program's raw output:

* `check_solve`  -- an mpmath iteration of the same mapping from the same
  start point, at DPS digits, must land inside value +- (error_radius +
  rounding allowance); see README.md for the allowance.
* `check_analyze` -- closed forms of the generated graph families, each
  confirmed by a numpy boolean-power computation.
* `check_tg`     -- the benchmark's own tri-state simulation.
* `check_verify` -- the verdict each check must reach, derived from the
  graph's initial classes and periods, with every witness re-checked by
  an mpmath evaluation of the mapping.

Each check returns None when the output is correct, else the reason.
"""

from __future__ import annotations

import json
import math
import re

import mpmath
import numpy as np

DPS = 40
#: Unit roundoff of IEEE double precision.
U = 2.0 ** -53
#: Relative slack for the mpmath iteration's own rounding at DPS digits.
MP_SLACK = 1e-32

CERTIFIED = "uniformly-weak-certified"


# ---------------------------------------------------------------------------
# mpmath evaluation of a spec's mapping


#: Orders of the mean-kind aliases of the spec format.
KIND_ORDERS = {"harmonic": -1.0, "geometric": 0.0, "arithmetic": 1.0, "quadratic": 2.0}


def _orders(spec: dict) -> list[float]:
    return [float(m["order"]) if m["kind"] == "power" else KIND_ORDERS[m["kind"]]
            for m in spec["means"]]


def _mp_mean(order: float, args: list) -> mpmath.mpf:
    d = len(args)
    if order == 0.0:
        return mpmath.root(mpmath.fprod(args), d)
    if order == 1.0:
        return mpmath.fsum(args) / d
    if order == -1.0:
        return d / mpmath.fsum(1 / t for t in args)
    if order == int(order):
        mean = mpmath.fsum(t ** int(order) for t in args) / d
    else:
        s = mpmath.mpf(order)
        mean = mpmath.fsum(t ** s for t in args) / d
    if order == 2.0:
        return mpmath.sqrt(mean)
    return mean ** (1 / mpmath.mpf(order))


def mp_apply(spec: dict, x: list) -> list:
    """One application of the spec's mapping in mpmath arithmetic."""
    return [_mp_mean(s, [x[a - 1] for a in row])
            for s, row in zip(_orders(spec), spec["alpha"])]


def mp_limit(spec: dict, x0, rel_tol: float = 1e-30, max_iter: int = 20_000):
    """K(x0) by mpmath iteration; None when the bracket does not close."""
    with mpmath.workdps(DPS):
        x = [mpmath.mpf(t) for t in x0]
        for _ in range(max_iter):
            lo, hi = min(x), max(x)
            if hi - lo <= rel_tol * hi:
                return (lo + hi) / 2
            x = mp_apply(spec, x)
    return None


# ---------------------------------------------------------------------------
# solve


def eval_error_bound(order: float, arity: int, log_range: float) -> float:
    """Bound on the relative error of one float evaluation of the power mean
    of this order and arity, on arguments t with |ln t| <= log_range.
    Derived path by path in README.md; the factor 2 covers second-order
    terms."""
    terms = 6.0 + arity + 11.0 * log_range
    if order != 0.0:
        terms += 4.0 / abs(order)
    return 2.0 * U * terms


def rounding_allowance(spec: dict, x0, value: float, radius: float, iterations: int) -> float:
    """How far value +- radius may sit from K(x0) through floating-point
    rounding alone after `iterations` applications (README.md)."""
    log_range = max(abs(math.log(min(x0))), abs(math.log(max(x0))))
    delta = max(eval_error_bound(s, len(row), log_range)
                for s, row in zip(_orders(spec), spec["alpha"]))
    drift = math.expm1(iterations * delta / (1.0 - delta))
    return (abs(value) + radius) * drift + 2.0 * U * abs(value) + U * radius


def check_solve(spec: dict, x0, value, radius, iterations, converged) -> str | None:
    """K(x0), approached by an mpmath iteration of the same mapping, must lie
    in value +- (radius + allowance)."""
    if not converged or value is None:
        return f"not converged after {iterations} iterations (ergodic mapping)"
    if not (math.isfinite(value) and math.isfinite(radius) and radius >= 0.0):
        return f"value {value!r} or radius {radius!r} is not a finite enclosure"
    half = radius + rounding_allowance(spec, x0, value, radius, iterations)
    low, high = value - half, value + half
    # the exact iterates' bracket [min, max] holds K(x0) and only shrinks; at
    # step `iterations` it lies inside the window when the program is right
    cap = 2 * iterations + 200
    with mpmath.workdps(DPS):
        x = [mpmath.mpf(t) for t in x0]
        for k in range(cap + 1):
            if k >= iterations:
                lo, hi = min(x), max(x)
                slack = MP_SLACK * abs(hi)
                if low <= lo - slack and hi + slack <= high:
                    return None
                if hi + slack < low or lo - slack > high:
                    return (f"K(x0) in [{mpmath.nstr(lo, 20)}, {mpmath.nstr(hi, 20)}] "
                            f"lies outside value {value!r} +- {half!r}")
            x = mp_apply(spec, x)
    return f"undecided after {cap} mpmath iterations: K(x0) near the edge of value +- {half!r}"


# ---------------------------------------------------------------------------
# graphs


def incidence_edges(alpha) -> list[tuple[int, int]]:
    """Edge a -> i for every entry a of row i ("argument a feeds i")."""
    return sorted({(a, i) for i, row in enumerate(alpha, start=1) for a in row})


def _bool_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a @ b) > 0).astype(np.float64)


def graph_shape(alpha) -> dict:
    """Irreducibility, period, q0 and initial classes from boolean matrix
    powers of the adjacency matrix A (A[a-1, i-1] = 1 for edge a -> i)."""
    p = len(alpha)
    adj = np.zeros((p, p))
    for i, row in enumerate(alpha):
        for a in row:
            adj[a - 1, i] = 1.0
    reach = np.minimum(np.eye(p) + adj, 1.0)  # walks of length 0..1
    for _ in range(max(1, math.ceil(math.log2(p)))):
        reach = _bool_mul(reach, reach)  # now 0..p and beyond
    walk = _bool_mul(adj, reach) > 0  # walks of length >= 1
    irreducible = bool(walk.all())
    period = _period(adj)
    q0 = None
    if irreducible and period == 1:
        power, q = adj.copy(), 1
        while not power.all():
            power, q = _bool_mul(power, adj), q + 1
        q0 = q
    same = (reach > 0) & (reach > 0).T
    classes = {tuple(np.flatnonzero(same[v])) for v in range(p)}
    # initial (source-closed) classes: every in-neighbour of a member is a member
    initial = sorted(cls for cls in classes
                     if all(a - 1 in cls for v in cls for a in alpha[v]))
    return {
        "irreducible": irreducible,
        "period": period,
        "ergodic": irreducible and period == 1,
        "q0": q0,
        "initial": initial,
        "initial_periods": [_period(adj[np.ix_(cls, cls)]) for cls in initial],
    }


def _period(adj: np.ndarray) -> int | None:
    """gcd of the closed-walk lengths up to n, which is the gcd of all cycle
    lengths; None without a cycle."""
    period, power = 0, adj.copy()
    for k in range(1, len(adj) + 1):
        if np.trace(power) > 0:
            period = math.gcd(period, k)
        power = _bool_mul(power, adj)
    return period or None


def family_closed_form(name: str) -> dict:
    """(irreducible, period, ergodic, q0) of a generated family member."""
    family = name.rstrip("0123456789")
    p = int(name[len(family):])
    if family == "ring":
        return {"irreducible": True, "period": 1, "ergodic": True, "q0": p - 1}
    if family == "cycle":
        return {"irreducible": True, "period": p, "ergodic": False, "q0": None}
    if family == "tworings":
        return {"irreducible": False, "period": 1, "ergodic": False, "q0": None}
    raise ValueError(f"no closed form for {name!r}")


def confirmed_closed_form(spec: dict, name: str) -> dict:
    """The family's closed form, after numpy agreed with it."""
    expected = family_closed_form(name)
    shape = graph_shape(spec["alpha"])
    for field, want in expected.items():
        if shape[field] != want:
            raise AssertionError(
                f"benchmark generator: {name} has {field}={shape[field]}, closed form {want}")
    return expected


def _load_json(rc: int, text: str, want_rc: int = 0):
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def check_analyze(spec: dict, name: str, rc: int, text: str) -> str | None:
    out, err = _load_json(rc, text)
    if err:
        return err
    want = confirmed_closed_form(spec, name)
    got = {
        "irreducible": out.get("irreducible"),
        "period": out.get("period"),
        "ergodic": out.get("ergodic"),
        "q0": out.get("uniform_walk_length"),
    }
    if got != want:
        return f"classification {got} != closed form {want}"
    if out.get("aperiodic") != (want["period"] == 1):
        return f"aperiodic={out.get('aperiodic')} with period {want['period']}"
    if [tuple(e) for e in out.get("edges", [])] != incidence_edges(spec["alpha"]):
        return "edge list differs from the incidence graph of alpha"
    cert = out.get("certificate", {})
    if want["ergodic"]:
        n0 = cert.get("n0")
        if cert.get("class") != CERTIFIED or not isinstance(n0, int) or n0 < want["q0"]:
            return f"ergodic strict mapping: certificate {cert.get('class')} n0={n0}"
    elif cert.get("class") == CERTIFIED:
        return "non-ergodic mapping certified"
    return None


def tg_step_ref(alpha, c: tuple) -> tuple:
    """Tri-state step: a vertex's in-neighbors are the entries of its row."""
    out = []
    for row in alpha:
        vals = {c[a - 1] for a in row}
        out.append(vals.pop() if len(vals) == 1 and 0 not in vals else 0)
    return tuple(out)


def tg_orbit(alpha, c0) -> tuple[list[tuple], int | None, int | None]:
    """States from c0 until the first constant one (returns its index) or the
    first repeated state (returns the index where the cycle starts)."""
    states = [tuple(c0)]
    seen = {states[0]: 0}
    while True:
        c = states[-1]
        if len(set(c)) == 1:
            return states, len(states) - 1, None
        nxt = tg_step_ref(alpha, c)
        if nxt in seen:
            return states, None, seen[nxt]
        seen[nxt] = len(states)
        states.append(nxt)


def check_tg(spec: dict, c0, rc: int, text: str) -> str | None:
    out, err = _load_json(rc, text)
    if err:
        return err
    trace = out.get("trace") or []
    if not trace:
        return "empty trace"
    states, first_constant, cycle_start = tg_orbit(spec["alpha"], c0)
    steps = out.get("steps_to_constant")
    if first_constant is not None:
        if steps != first_constant:
            return f"steps_to_constant={steps}, the coloring is first constant at {first_constant}"
        if out.get("constant_value") != states[first_constant][0]:
            return f"constant_value={out.get('constant_value')}, expected {states[first_constant][0]}"
        if len(trace) != first_constant + 1:
            return f"trace has {len(trace)} entries for {first_constant} steps"
    elif steps is not None or out.get("constant_value") is not None:
        return f"reported constant at step {steps}; the coloring never becomes constant"
    period = len(states) - cycle_start if cycle_start is not None else 0
    for k, entry in enumerate(trace):
        j = k if k < len(states) else cycle_start + (k - cycle_start) % period
        if tuple(entry) != states[j]:
            return f"trace step {k} is {entry}, expected {list(states[j])}"
    return None


# ---------------------------------------------------------------------------
# verify


def expected_verify(spec: dict) -> dict[str, str]:
    """The status each check of `invmean verify` must report, from the shape
    of the incidence graph (all power means are strict, monotone and
    homogeneous on (0, +inf)).

    * ergodic: every check passes;
    * otherwise the contractivity sweep runs; it is falsified when there are
      two or more initial classes (disconnected) or the only initial class
      is periodic, since block vectors then keep their oscillation forever;
    * K exists iff there is one initial class and it is aperiodic; then K
      depends only on that class, so strictness of K is falsified exactly
      when some coordinate lies outside it, while monotonicity and
      homogeneity hold; without K those sweeps find no convergent sample.
    """
    shape = graph_shape(spec["alpha"])
    want = {"mean-property": "pass", "oscillation-monotonicity": "pass", "certificate": "info"}
    if shape["ergodic"]:
        want.update(invariance="pass", **{"bracket-dichotomy": "pass"},
                    strict="pass", monotone="pass", homogeneous="pass")
        return want
    single_aperiodic = len(shape["initial"]) == 1 and shape["initial_periods"][0] == 1
    want["contractivity"] = "info" if single_aperiodic else "fail"
    want["invariance"] = want["bracket-dichotomy"] = "skip"
    if single_aperiodic:
        covers_all = len(shape["initial"][0]) == len(spec["alpha"])
        want.update(strict="pass" if covers_all else "fail", monotone="pass", homogeneous="pass")
    else:
        want.update(strict="skip", monotone="skip", homogeneous="skip")
    return want


def _recheck_contractivity_witness(spec: dict, point, detail: str) -> str | None:
    found = re.search(r"after (\d+) step", detail)
    n0 = int(found.group(1)) if found else 3 ** spec["p"]
    with mpmath.workdps(DPS):
        x = [mpmath.mpf(t) for t in point]
        before = max(x) - min(x)
        for _ in range(n0):
            x = mp_apply(spec, x)
        if before <= 0 or max(x) - min(x) < before * (1 - MP_SLACK):
            return f"witness {point} does shrink its oscillation within {n0} steps"
    return None


def _recheck_strict_witness(spec: dict, point) -> str | None:
    k = mp_limit(spec, point)
    if k is None:
        return f"witness {point}: K does not exist there"
    gap = min(k - min(point), max(point) - k)
    if gap > 1e-9 * max(1.0, max(point)):
        return f"witness {point}: K={mpmath.nstr(k, 17)} lies strictly inside the bracket"
    return None


def check_verify(spec: dict, rc: int, text: str) -> str | None:
    want = expected_verify(spec)
    falsified = "fail" in want.values()
    out, err = _load_json(rc, text, 2 if falsified else 0)
    if err:
        return err
    got = {c["name"]: c["status"] for c in out.get("checks", [])}
    if got != want:
        diff = {k: (got.get(k), want.get(k)) for k in set(got) | set(want) if got.get(k) != want.get(k)}
        return f"check statuses (got, expected) differ: {diff}"
    if out.get("falsified") is not falsified:
        return f"falsified={out.get('falsified')}, expected {falsified}"
    ergodic = "contractivity" not in want
    for c in out["checks"]:
        if c["name"] == "certificate" and (f"class={CERTIFIED} " in c["detail"]) != ergodic:
            return f"certificate detail {c['detail']!r} for ergodic={ergodic}"
        if c["status"] != "fail":
            continue
        witnesses = c.get("witnesses") or []
        if not witnesses:
            return f"{c['name']} falsified without a witness"
        for w in witnesses:
            if c["name"] == "contractivity":
                bad = _recheck_contractivity_witness(spec, w["point"], c["detail"])
            elif c["name"] == "strict":
                bad = _recheck_strict_witness(spec, w["point"])
            else:
                bad = f"unexpected failing check {c['name']}"
            if bad:
                return bad
    return None
