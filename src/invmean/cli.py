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
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from random import Random
from typing import Callable, Sequence

from . import __version__
from .averaging import CERTIFIED, FALSIFIED, ComposedMapping, oscillation
from .digraph import TriStateColoring, is_ergodic, tg_stabilize
from .errors import InvMeanError, PreconditionError
from .invariant import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _PROPERTIES,
    _check_hypothesis,
    check_bracket_dichotomy,
    invariant_mean_eval,
    verify_invariance,
    verify_mean_properties,
)
from .means import CheckReport, Witness, check_mean_property, sample_box
from .specfile import MappingSpec, load_mapping_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_point(x: Sequence[float]) -> str:
    return "(" + ", ".join(_fmt(t) for t in x) + ")"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _json_text(obj, indent: str = "\n") -> str:
    """obj as `json.dumps(obj, indent=2)` writes it, byte for byte, without
    its pure-Python encoder: ints (not bools) are written with
    `int.__repr__`, strings and keys with the C string encoder, finite
    floats with `float.__repr__`, bools and None as their literals, and a
    list of equal-length nonempty int lists (`analyze`'s edges, `tg`'s
    trace) with one `%` format over all its ints.  Anything else, NaN,
    infinities and subclasses among it, is written by `json.dumps`.
    `indent` is the newline and indent of the line that obj starts on."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _json_string(obj)
    if kind is float and obj - obj == 0:  # finite: inf - inf and nan - nan are nan
        return float.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        types = set(map(type, obj))
        if types == {list} and set(map(len, obj)) == {width := len(obj[0])} and width:
            ints = tuple(chain.from_iterable(obj))
            if set(map(type, ints)) == {int}:
                deeper = inner + "  "
                row = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]"
                return ("[" + inner + ("," + inner).join([row] * len(obj)) + indent + "]") % ints
        items = map(int.__repr__, obj) if types == {int} else [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [_json_string(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(obj)


def _emit_json(obj) -> int:
    print(_json_text(obj))
    return EXIT_OK


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
    # a Path, never a str: a file named "{...}.json" is a file, not JSON text
    return load_mapping_spec(Path(path))


def _parse_list(text: str, convert: Callable[[str], object], what: str) -> tuple:
    """The values of a list separated by commas or whitespace, read by
    `convert`.  A field between two commas, or before or after one, must
    hold a value: "1,,2" is an error, not (1, 2).  The caller's types check
    the values: the mapping a point's length and domain, `TriStateColoring`
    a coloring's entries and `tg_stabilize` its length."""
    fields = [field.split() for field in text.split(",")]
    if all(fields):
        try:
            return tuple(convert(part) for field in fields for part in field)
        except ValueError:
            pass
    raise InvMeanError(f"could not parse {what} {text!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args, mapping: ComposedMapping) -> int:
    cls = is_ergodic(mapping.graph)
    cert = mapping._contractivity
    edges = [[a, b] for a, b in mapping.graph.sorted_edges()]
    if args.json:
        return _emit_json(
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


def cmd_iterate(args, mapping: ComposedMapping) -> int:
    x = _parse_list(args.x, float, "point")
    if args.trace:
        points = mapping.iterate(x, args.steps)
        shown = range(len(points))
    else:
        # only the first and last point are printed, so none between is kept
        points = (x, mapping.nth_iterate(x, args.steps))
        shown = (0, args.steps)
    oscillations = [oscillation(pt) for pt in points]
    if args.json:
        return _emit_json(
            {
                "steps": args.steps,
                "trace": [list(pt) for pt in points],
                "oscillations": oscillations,
            }
        )
    for k, pt, osc in zip(shown, points, oscillations):
        print(f"n={k}  x = {_fmt_point(pt)}  oscillation = {_fmt(osc)}")
    return EXIT_OK


def cmd_invariant(args, mapping: ComposedMapping) -> int:
    x = _parse_list(args.x, float, "point")
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


def cmd_tg(args, mapping: ComposedMapping) -> int:
    c0 = TriStateColoring(_parse_list(args.c0, int, "coloring"))
    report = tg_stabilize(mapping.graph, c0, max_steps=args.max_steps)
    if args.json:
        return _emit_json(
            {
                "trace": [list(c.values) for c in report.trace],
                "steps_to_constant": report.steps_to_constant,
                "constant_value": report.constant_value,
            }
        )
    for k, coloring in enumerate(report.trace):
        print(f"step {k}: ({', '.join(str(v) for v in coloring.values)})")
    if report.repeats_step is not None:
        print(f"never constant: step {len(report.trace) - 1} repeats step {report.repeats_step}")
    elif report.steps_to_constant is None:
        print(f"no constant coloring within {args.max_steps} steps")
    else:
        print(f"constant at step {report.steps_to_constant}, value {report.constant_value}")
    return EXIT_OK


def _entry(name: str, status: str, detail: str, witnesses=()) -> dict:
    """One entry of `verify`'s report, with at most the first five witnesses."""
    entry = {"name": name, "status": status, "detail": detail}
    if witnesses:
        entry["witnesses"] = [
            {"point": list(w.point), "message": w.message} for w in witnesses[:5]
        ]
    return entry


def _report_entry(report: CheckReport) -> dict:
    if report.n_samples == 0:
        # every sampler draws nonconstant vectors, and only I^1 has none
        return _entry(report.name, "pass", "vacuous: I^1 has no nonconstant vector")
    if report.n_evaluated == 0 and report.n_skipped > 0:
        return _entry(
            report.name, "skip", f"no convergent samples ({report.n_skipped} skipped)"
        )
    detail = (
        f"max residual {report.max_residual:.3e} over {report.n_evaluated} samples"
        f" ({report.n_skipped} skipped)"
    )
    if report.violations:
        detail = f"{len(report.violations)} violation(s); {detail}"
    return _entry(report.name, "fail" if report.violations else "pass", detail, report.violations)


def _proved_properties(mapping: ComposedMapping) -> dict:
    """The entries of the properties of K that the incidence graph decides
    for strict, monotone and homogeneous means, by name, with the
    invariance of K on a certified mapping; none iterates."""
    status = mapping._contractivity.status
    if status == FALSIFIED:
        detail = "proved: there is no invariant mean K (class=falsified)"
        return {prop: _entry(prop, "skip", detail) for prop in _PROPERTIES}
    # M^n inherits each property from the means, and K = lim M^n from M^n
    entries = {
        prop: _entry(prop, "pass", f"proved: every mean is {prop}, so is every M^n and so is K")
        for prop in ("monotone", "homogeneous")
    }
    cls = is_ergodic(mapping.graph)
    if status == CERTIFIED:
        entries["strict"] = _entry("strict", "pass", (
            f"proved: strict means on an ergodic graph: after q0 = {cls.uniform_walk_length} "
            "step(s) every nonconstant x lies strictly inside its bracket, and K(x) with it"
        ))
        entries["invariance"] = _entry("invariance", "pass", (
            "proved: K(x) is the limit of M^n(x), so K(M(x)) = lim M^(n+1)(x) = K(x)"
        ))
        return entries
    # contractive: K reads only the one initial class R, so x constant on R
    # and higher elsewhere has K(x) = min(x)
    (only,) = cls.initial_classes
    mask = only.vertices
    inside = [v + 1 for v in range(mapping.p) if mask >> v & 1]
    outside = [v + 1 for v in range(mapping.p) if not mask >> v & 1]
    lo, hi = sample_box(mapping.interval)
    mid = 0.5 * (lo + hi)
    x = tuple(mid if mask >> v & 1 else hi for v in range(mapping.p))
    initial = "{" + ", ".join(map(str, inside)) + "}"
    message = (f"K(x) = min(x) = {mid!r}: only coordinate{'s' * (len(outside) > 1)} "
               f"{', '.join(map(str, outside))} varied, outside the initial class {initial}")
    entries["strict"] = _entry(
        "strict", "fail", f"proved: K reads only the initial class {initial}, not every coordinate",
        [Witness(x, message)],
    )
    return entries


def cmd_verify(args, mapping: ComposedMapping) -> int:
    rng = Random(args.seed)
    n = args.samples

    # equal means evaluate alike (`Mean`), so each distinct one is sampled
    # once, and its witnesses name the first coordinate that uses it
    mp_reports = {mean: check_mean_property(mean, rng, n) for mean in dict.fromkeys(mapping.means)}
    mp_witnesses = [
        Witness(w.point, f"mean {mapping.means.index(mean) + 1} ({mean.label}): {w.message}")
        for mean, rep in mp_reports.items()
        for w in rep.violations
    ]
    k = len(mp_reports)
    mp_detail = (f"{k} distinct mean{'s' * (k > 1)} of {mapping.p}, "
                 f"{sum(rep.n_samples for rep in mp_reports.values())} points, "
                 f"{len(mp_witnesses)} violation(s)")
    # a spec builds only library power means: strict, monotone and
    # homogeneous by construction, each row clamped into [min, max]
    checks = [
        _entry("mean-property", "fail" if mp_witnesses else "pass", mp_detail, mp_witnesses),
        _entry("oscillation-monotonicity", "pass", (
            "proved: every row clamps into [min, max] of its arguments, so min(M^n(x)) "
            "never drops and max(M^n(x)) never rises"
        )),
    ]
    # the proofs need strict means: a sampled violation of the mean property
    # refutes that, and invariance and the properties of K are then sampled
    proved = {} if mp_witnesses else _proved_properties(mapping)
    cert = mapping._contractivity
    # the evidence is stated once: in the certificate entry on a certified
    # mapping, else in the contractivity entry
    if cert.status == CERTIFIED:
        checks += [
            _entry("certificate", "info", f"class={cert.status} n0={cert.n0}; {cert.evidence}"),
            proved.get("invariance")
            or _report_entry(verify_invariance(mapping, rng=rng, n_samples=n)),
            _report_entry(check_bracket_dichotomy(mapping, rng, n_samples=n)),
        ]
    else:
        # a certificate carries a witness exactly when it is falsified
        witnesses = [Witness(cert.witness, "oscillation not reduced")] if cert.witness else []
        checks += [
            _entry("certificate", "info", f"class={cert.status} n0={cert.n0}"),
            _entry("contractivity", "fail" if witnesses else "info", cert.evidence, witnesses),
            _entry("invariance", "skip", "not certified"),
            _entry("bracket-dichotomy", "skip", "not certified"),
        ]
    for prop in _PROPERTIES:
        try:
            _check_hypothesis(mapping, prop)
        except PreconditionError as exc:  # the mapping lacks the property's hypothesis
            checks.append(_entry(prop, "skip", str(exc)))
        else:
            checks.append(
                proved.get(prop) or _report_entry(verify_mean_properties(mapping, prop, rng, n))
            )

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
def build_parser() -> _Parser:
    """The argument parser of `main`, built on its first call and shared by
    every later one: parsing leaves no state on it."""
    parser = _Parser(
        prog="invmean",
        description="Analyze and iterate mean-type mappings defined by a JSON spec.",
    )
    parser.add_argument("--version", action="version", version=f"invmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser, by name

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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"tolerance (default {DEFAULT_TOL:g})")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help=f"iteration cap (default {DEFAULT_MAX_ITER})")

    p = add("tg", cmd_tg, "iterate the tri-state in-neighbor operator on the graph")
    p.add_argument("c0", help="start coloring over {-1,0,1}, comma-separated")
    p.add_argument(
        "--max-steps", type=int, default=None,
        help="step cap (default: none; the run stops at a constant or repeated coloring)",
    )

    p = add("verify", cmd_verify,
            "check the property suite: state what the spec's construction proves, sample the rest")
    p.add_argument("--samples", type=int, default=200,
                   help="samples per sampled check (default 200)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, parsed by the named command's own
    parser when argv starts with a command name: the full parse would hand
    it all of argv after the name.  The full parse runs when argv names no
    command first, or when arguments are left over, so that every usage
    message is the one it prints."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args, _load_spec(args.spec).build())
    except (InvMeanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

