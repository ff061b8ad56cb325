"""File-driven command line: analyze | iterate | invariant | tg | verify.

Every command takes a JSON mapping-spec path ("-" reads stdin) and an
optional --json flag for machine output.  Exit codes: 0 success, 1 for
usage/parse/domain errors, 2 when something was falsified or an
iteration did not converge.

Numbers are printed with 12 significant digits in human mode; JSON mode
emits doubles with round-trip-exact precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from random import Random
from typing import Sequence

from .averaging import CERTIFIED, FALSIFIED, oscillation
from .digraph import TriStateColoring, is_ergodic, tg_stabilize
from .errors import InvMeanError, PreconditionError
from .invariant import (
    _check_tol,
    check_bracket_dichotomy,
    check_oscillation_monotonicity,
    invariant_mean_eval,
    verify_invariance,
    verify_mean_properties,
)
from .means import Witness, check_mean_property
from .specfile import MappingSpec, load_mapping_spec
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_point(x: Sequence[float]) -> str:
    return "(" + ", ".join(_fmt(t) for t in x) + ")"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-1,0,1,0" (a point or coloring starting with a negative
        # number) as a positional, not as an unknown option
        self._negative_number_matcher = re.compile(r"^-\.?\d[-+.,\deE\s]*$")

    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # falsification, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_spec(path: str) -> MappingSpec:
    if path == "-":
        # stdin is spec text, never a path: its bytes are decoded as a file's
        stdin = getattr(sys.stdin, "buffer", None)  # None on a text-only stream
        return load_mapping_spec(stdin.read() if stdin else sys.stdin.read().encode())
    return load_mapping_spec(path)


def _parse_point(text: str) -> tuple[float, ...]:
    # the mapping checks the length and the domain of the point
    parts = text.replace(",", " ").split()
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise InvMeanError(f"could not parse point {text!r}") from None


def _parse_coloring(text: str) -> TriStateColoring:
    # TriStateColoring checks the entries and tg_stabilize the length
    parts = text.replace(",", " ").split()
    try:
        values = tuple(int(part) for part in parts)
    except ValueError:
        raise InvMeanError(f"could not parse coloring {text!r}") from None
    return TriStateColoring(values)


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    mapping = _load_spec(args.spec).build()
    cls = is_ergodic(mapping.graph)
    cert = mapping._contractivity
    edges = [[a, b] for a, b in mapping.graph.sorted_edges()]
    if args.json:
        _emit_json(
            {
                "edges": edges,
                "irreducible": cls.irreducible,
                "period": cls.period,
                "aperiodic": cls.aperiodic,
                "ergodic": cls.ergodic,
                "uniform_walk_length": cls.uniform_walk_length,
                "certificate": cert.to_json_dict(),
            }
        )
        return EXIT_OK
    print("edges:", " ".join(f"[{a},{b}]" for a, b in edges))
    print("irreducible:", _fmt_bool(cls.irreducible))
    print("period:", "none" if cls.period is None else cls.period)
    print("aperiodic:", _fmt_bool(cls.aperiodic))
    print("ergodic:", _fmt_bool(cls.ergodic))
    if cls.ergodic:
        print("uniform_walk_length:", cls.uniform_walk_length)
    print("contractivity class:", cert.status)
    print("n0:", "none" if cert.n0 is None else cert.n0)
    print("evidence:", cert.evidence)
    return EXIT_OK


def cmd_iterate(args) -> int:
    mapping = _load_spec(args.spec).build()
    x = _parse_point(args.x)
    if args.trace:
        points = mapping.iterate(x, args.steps)
        shown = range(len(points))
    else:
        # only the first and last point are printed, so none between is kept
        points = (x, mapping.nth_iterate(x, args.steps))
        shown = (0, args.steps)
    oscillations = [oscillation(pt) for pt in points]
    if args.json:
        _emit_json(
            {
                "steps": args.steps,
                "trace": [list(pt) for pt in points],
                "oscillations": oscillations,
            }
        )
        return EXIT_OK
    for k, pt, osc in zip(shown, points, oscillations):
        print(f"n={k}  x = {_fmt_point(pt)}  oscillation = {_fmt(osc)}")
    return EXIT_OK


def cmd_invariant(args) -> int:
    mapping = _load_spec(args.spec).build()
    x = _parse_point(args.x)
    report = invariant_mean_eval(mapping, x, tol=args.tol, max_iter=args.max_iter)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print("value:", "none" if report.value is None else _fmt(report.value))
        print("error_radius:", _fmt(report.error_radius))
        print("iterations_used:", report.iterations_used)
        print("converged:", _fmt_bool(report.converged))
        print("stop_reason:", report.stop_reason)
        print("final_iterate:", _fmt_point(report.final_iterate))
        for vertices, value, radius in report.classes:
            print(
                f"class {{{', '.join(map(str, vertices))}}}: "
                f"value={_fmt(value)} error_radius={_fmt(radius)}"
            )
    return EXIT_OK if report.converged else EXIT_FALSIFIED


def cmd_tg(args) -> int:
    mapping = _load_spec(args.spec).build()
    c0 = _parse_coloring(args.c0)
    report = tg_stabilize(mapping.graph, c0, max_steps=args.max_steps)
    if args.json:
        _emit_json(
            {
                "trace": [list(c.values) for c in report.trace],
                "steps_to_constant": report.steps_to_constant,
                "constant_value": report.constant_value,
            }
        )
        return EXIT_OK
    for k, coloring in enumerate(report.trace):
        print(f"step {k}: ({', '.join(str(v) for v in coloring.values)})")
    if report.repeats_step is not None:
        print(f"never constant: step {len(report.trace) - 1} repeats step {report.repeats_step}")
    elif report.steps_to_constant is None:
        print(f"no constant coloring within {args.max_steps} steps")
    else:
        print(f"constant at step {report.steps_to_constant}, value {report.constant_value}")
    return EXIT_OK


def _check_entry(name: str, status: str, detail: str, witnesses=()) -> dict:
    entry = {"name": name, "status": status, "detail": detail}
    if witnesses:
        entry["witnesses"] = [
            {"point": list(w.point), "message": w.message} for w in witnesses
        ]
    return entry


def _report_entry(name: str, report) -> dict:
    if report.n_evaluated == 0 and report.n_skipped > 0:
        return _check_entry(
            name, "skip", f"no convergent samples ({report.n_skipped} skipped)"
        )
    detail = (
        f"max residual {report.max_residual:.3e} over {report.n_evaluated} samples"
        f" ({report.n_skipped} skipped)"
    )
    if report.passed:
        return _check_entry(name, "pass", detail)
    return _check_entry(
        name, "fail", f"{len(report.violations)} violation(s); {detail}",
        report.violations[:5],
    )


def cmd_verify(args) -> int:
    _check_tol(args.tol)  # before the suite: only certified mappings read it
    mapping = _load_spec(args.spec).build()
    rng = Random(args.seed)
    n = args.samples
    checks: list[dict] = []

    mp_reports = [check_mean_property(mean, rng, n) for mean in mapping.means]
    mp_points = sum(rep.n_samples for rep in mp_reports)
    mp_witnesses = [
        Witness(w.point, f"mean {i} ({mean.label}): {w.message}")
        for i, (mean, rep) in enumerate(zip(mapping.means, mp_reports), start=1)
        for w in rep.violations
    ]
    checks.append(_check_entry(
        "mean-property",
        "fail" if mp_witnesses else "pass",
        f"{mapping.p} means, {mp_points} points, {len(mp_witnesses)} violation(s)",
        mp_witnesses[:5],
    ))

    checks.append(_report_entry(
        "oscillation-monotonicity",
        check_oscillation_monotonicity(mapping, rng, n_samples=n),
    ))

    cert = mapping._contractivity
    # the evidence is stated once: here on a certified mapping, else in the
    # contractivity entry
    evidence = f"; {cert.evidence}" if cert.status == CERTIFIED else ""
    checks.append(_check_entry("certificate", "info", f"class={cert.status} n0={cert.n0}{evidence}"))

    if cert.status == CERTIFIED:
        checks.append(_report_entry(
            "invariance", verify_invariance(mapping, tol=args.tol, rng=rng, n_samples=n)
        ))
        checks.append(_report_entry(
            "bracket-dichotomy", check_bracket_dichotomy(mapping, rng, n_samples=n)
        ))
    else:
        witnesses = (
            [Witness(cert.witness, "oscillation not reduced")] if cert.status == FALSIFIED else []
        )
        checks.append(_check_entry(
            "contractivity", "fail" if witnesses else "info", cert.evidence, witnesses
        ))
        checks.append(_check_entry("invariance", "skip", "not certified"))
        checks.append(_check_entry("bracket-dichotomy", "skip", "not certified"))

    for prop in ("strict", "monotone", "homogeneous"):
        try:
            report = verify_mean_properties(mapping, prop, rng=rng, n_samples=n)
        except PreconditionError as exc:
            checks.append(_check_entry(prop, "skip", str(exc)))
            continue
        checks.append(_report_entry(prop, report))

    failed = [c for c in checks if c["status"] == "fail"]
    if args.json:
        _emit_json({"checks": checks, "falsified": bool(failed)})
    else:
        for c in checks:
            print(f"{c['status'].upper():5s} {c['name']}: {c['detail']}")
            for w in c.get("witnesses", []):
                print(f"      witness x={_fmt_point(w['point'])}: {w['message']}")
        print(
            "verdict:",
            f"{len(failed)} check(s) falsified" if failed else "all checks passed",
        )
    return EXIT_FALSIFIED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of `main`, built on its first call and shared by
    every later one: parsing leaves no state on it."""
    parser = _Parser(
        prog="invmean",
        description="Analyze and iterate mean-type mappings defined by a JSON spec.",
    )
    parser.add_argument("--version", action="version", version=f"invmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="spec file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("analyze", cmd_analyze, "classify the incidence graph and certify contractivity")

    p = add("iterate", cmd_iterate, "print iterates and their oscillations")
    p.add_argument("x", help="start point, comma-separated")
    p.add_argument("-n", "--steps", type=int, default=10, help="number of steps (default 10)")
    p.add_argument("--trace", action="store_true", help="print every step, not just first/last")

    p = add("invariant", cmd_invariant, "iterate to the invariant mean")
    p.add_argument("x", help="start point, comma-separated")
    p.add_argument("--tol", type=float, default=1e-12, help="tolerance (default 1e-12)")
    p.add_argument("--max-iter", type=int, default=10_000, help="iteration cap (default 10000)")

    p = add("tg", cmd_tg, "iterate the tri-state in-neighbor operator on the graph")
    p.add_argument("c0", help="start coloring over {-1,0,1}, comma-separated")
    p.add_argument(
        "--max-steps", type=int, default=None,
        help="step cap (default: none; the run stops at a constant or repeated coloring)",
    )

    p = add("verify", cmd_verify, "run the sampled property suite")
    p.add_argument("--samples", type=int, default=200, help="samples per check (default 200)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance (default 1e-9)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvMeanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
