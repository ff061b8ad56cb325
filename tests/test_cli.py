"""End-to-end command tests: outputs, flags, and the exit-code contract.

Exit codes: 0 success, 1 usage/parse/domain error, 2 falsified or
non-convergent.  Commands run in-process through main(argv).
"""

import argparse
import importlib.util
import json
import math
import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmean import (
    averaging, cli, digraph, fixture_path, invariant, is_ergodic, load_mapping_spec, means,
)
from invmean.cli import build_parser, main
from test_digraph import prime_cycles

EX2 = str(fixture_path("example2.json"))
EX3 = str(fixture_path("example3.json"))
EX4 = str(fixture_path("example4.json"))
EX5 = str(fixture_path("example5.json"))
EX6 = str(fixture_path("example6.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestAnalyze:
    def test_cyclic_fixture_certified(self, capsys):
        code, data, _ = run_json(capsys, "analyze", EX2, "--json")
        assert code == 0
        assert data["ergodic"] is True
        assert data["period"] == 1
        assert data["uniform_walk_length"] == 3
        assert data["certificate"]["class"] == "uniformly-weak-certified"
        assert data["certificate"]["n0"] == 81
        assert [1, 1] in data["edges"] and [2, 1] in data["edges"]

    def test_disconnected_not_irreducible(self, capsys):
        code, data, _ = run_json(capsys, "analyze", EX3, "--json")
        assert code == 0
        assert data["irreducible"] is False
        assert data["ergodic"] is False
        assert data["uniform_walk_length"] is None
        assert data["certificate"]["class"] == "falsified"

    def test_absorbing_not_irreducible(self, capsys):
        # one aperiodic initial class {1, 2, 3}: not ergodic, still contractive
        code, data, _ = run_json(capsys, "analyze", EX4, "--json")
        assert code == 0
        assert data["irreducible"] is False
        assert data["certificate"]["class"] == "contractive"
        assert data["certificate"]["n0"] == 10

    def test_periodic_fixture(self, capsys):
        code, data, _ = run_json(capsys, "analyze", EX6, "--json")
        assert code == 0
        assert data["period"] == 2
        assert data["ergodic"] is False
        assert data["certificate"]["class"] == "falsified"
        assert data["certificate"]["evidence"].startswith(
            "oscillation not reduced after 10 step(s) at x=(1.0, 1.0, 2.0, 2.0)"
        )

    def test_human_mode_mentions_class(self, capsys):
        code, out, _ = run(capsys, "analyze", EX2)
        assert code == 0
        assert "ergodic: true" in out
        assert "uniformly-weak-certified" in out

    def test_ring_of_256_with_loops(self, capsys, tmp_path):
        p = 256
        spec = tmp_path / "ring256.json"
        spec.write_text(json.dumps({
            "p": p,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "power", "order": -1.0 if i % 2 == 0 else 1.0, "arity": 2}
                      for i in range(p)],
            "alpha": [[i, i % p + 1] for i in range(1, p + 1)],
        }))
        code, data, _ = run_json(capsys, "analyze", str(spec), "--json")
        assert code == 0
        assert len(data["edges"]) == 2 * p
        assert (data["irreducible"], data["period"], data["ergodic"]) == (True, 1, True)
        assert data["uniform_walk_length"] == p - 1
        assert data["certificate"]["class"] == "uniformly-weak-certified"
        assert data["certificate"]["n0"] == 3 ** p


class TestClassifyOnce:
    """One classification per command: the record is cached on the graph,
    so `analyze` and its certificate, and `verify` and its bracket
    dichotomy, share it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"_classify_masks": 0, "_uniform_walk_length_masks": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(digraph, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(digraph, name, counted)
        return counts

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_once_per_command(self, capsys, calls, command):
        code, _, _ = run(capsys, command, EX2)
        assert code == 0
        assert calls == {"_classify_masks": 1, "_uniform_walk_length_masks": 1}

    @pytest.mark.parametrize("spec", [EX3, EX6])
    def test_once_per_uncertified_verify(self, capsys, calls, spec):
        # the certificate and the contractivity decision share the record;
        # a graph that is not ergodic has no uniform walk length to search
        code, _, _ = run(capsys, "verify", spec, "--samples", "4")
        assert code == 2
        assert calls == {"_classify_masks": 1, "_uniform_walk_length_masks": 0}

    @pytest.mark.parametrize("spec", [EX2, EX6])
    def test_once_per_invariant(self, capsys, calls, spec):
        # the decision whether K exists and the cyclic classes share the record
        code, _, _ = run(capsys, "invariant", spec, "1,4,9,16")
        assert code in (0, 2)
        assert calls["_classify_masks"] == 1

    def test_second_call_returns_an_equal_record(self, calls):
        g = load_mapping_spec(EX2).build().graph
        first = is_ergodic(g)
        assert is_ergodic(g) == first
        assert first.uniform_walk_length == 3
        assert calls == {"_classify_masks": 1, "_uniform_walk_length_masks": 1}


class TestDecideOnce:
    """`falsify_contractivity` is the one contractivity decision: a command
    that reads it makes it once, even when its bracket dichotomy reads it
    again, and `invariant` never needs it."""

    @pytest.mark.parametrize("argv, decisions", [
        (("analyze", EX2), 1),
        (("analyze", EX6), 1),
        (("verify", EX2, "--samples", "4"), 1),
        (("verify", EX3, "--samples", "4"), 1),
        (("verify", EX5, "--samples", "4"), 1),
        (("invariant", EX2, "1,2,3,4"), 0),
    ])
    def test_decisions_per_command(self, capsys, monkeypatch, argv, decisions):
        calls = []
        decide = averaging.falsify_contractivity
        monkeypatch.setattr(averaging, "falsify_contractivity",
                            lambda m: calls.append(1) or decide(m))
        code, _, _ = run(capsys, *argv)
        assert code in (0, 2)
        assert len(calls) == decisions


RING32 = str(Path(__file__).resolve().parent / "golden" / "specs" / "ring32.json")
RING32_START = ",".join(str(1.0 + 0.25 * i) for i in range(32))


class TestCompileOnce:
    """A mapping steps on the shared row functions, and compiles its own
    kernel only once its steps pass `averaging._COMPILE_AFTER`: at most
    once per command, never for one that takes fewer steps (`verify` on
    the rings and on `example2`) or only reads the graph.  `verify`
    iterates only on a certified mapping: elsewhere every entry it makes
    is proved or skipped."""

    @pytest.mark.parametrize("argv, compiles", [
        (("verify", EX2, "--samples", "4"), 0),
        (("verify", EX6, "--samples", "4"), 0),
        (("invariant", EX2, "1,2,3,4"), 0),
        (("invariant", EX6, "1,4,9,16"), 0),
        (("analyze", EX2), 0),
        (("tg", EX2, "1,0,-1,0"), 0),
        (("analyze", EX3), 0),
        (("analyze", EX6), 0),
        (("verify", RING32, "--samples", "4"), 0),
        (("invariant", RING32, RING32_START), 1),  # 5472 steps
    ])
    def test_compiles_per_command(self, capsys, monkeypatch, argv, compiles):
        names = []
        monkeypatch.setattr(
            means, "compile", lambda *a: names.append(a[1]) or compile(*a), raising=False
        )
        code, _, _ = run(capsys, *argv)
        assert code in (0, 2)
        # a command also compiles the row function of each (order, arity)
        # that it meets, once, unless an earlier test already did
        kernels = [name for name in names if "_steps" in name]
        p = 32 if argv[1] == RING32 else 4
        assert kernels == [f"<invmean ComposedMapping._steps p={p}>"] * compiles
        assert len(set(names)) == len(names)

    def test_cycle_needs_no_step(self, capsys, monkeypatch, tmp_path):
        # every cyclic class of the 6-cycle is one vertex, so every class
        # bracket is closed at the start
        spec = tmp_path / "cycle6.json"
        spec.write_text(json.dumps({
            "p": 6,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "arithmetic", "arity": 1}] * 6,
            "alpha": [[(i - 1) % 6 or 6] for i in range(1, 7)],
        }))
        names = []
        monkeypatch.setattr(
            means, "compile", lambda *a: names.append(a[1]) or compile(*a), raising=False
        )
        code, data, _ = run_json(capsys, "invariant", str(spec), "1,2,3,4,5,6", "--json")
        assert code == 2
        assert (data["stop_reason"], data["iterations_used"]) == ("classes-converged", 0)
        assert [c["vertices"] for c in data["classes"]] == [[v] for v in range(1, 7)]
        assert names == []


class TestTolRejected:
    """A tol that is not a finite positive number is a usage error."""

    @pytest.mark.parametrize("argv", [
        ("invariant", EX2, "1,2,3,4", "--tol", "nan"),
        ("invariant", EX2, "1,2,3,4", "--tol", "inf"),
        ("invariant", EX2, "1,2,3,4", "--tol", "0"),
        ("invariant", EX6, "1,4,9,16", "--tol", "nan"),
    ])
    def test_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol must be finite and > 0, got ")

    def test_verify_takes_no_tol(self, capsys):
        # verify states invariance as proved and samples it at the library's
        # tolerance, so it has no --tol
        with pytest.raises(SystemExit) as exc:
            main(["verify", EX2, "--tol", "1e-9"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --tol 1e-9\n")


class TestIterate:
    def test_one_step_values(self, capsys):
        code, data, _ = run_json(capsys, "iterate", EX2, "1,2,3,4", "-n", "1", "--json")
        assert code == 0
        last = data["trace"][-1]
        want = (4.0 / 3.0, math.sqrt(6.0), 3.5, math.sqrt(8.5))
        assert last == pytest.approx(want, rel=1e-12)

    def test_twelve_digit_human_output(self, capsys):
        code, out, _ = run(capsys, "iterate", EX2, "1,2,3,4", "-n", "1")
        assert code == 0
        assert "1.33333333333" in out
        assert "2.44948974278" in out  # sqrt(6) to 12 significant digits

    def test_constant_trace(self, capsys):
        code, data, _ = run_json(capsys, "iterate", EX2, "2,2,2,2", "-n", "5", "--trace", "--json")
        assert code == 0
        assert all(pt == [2.0, 2.0, 2.0, 2.0] for pt in data["trace"])
        assert len(data["trace"]) == 6

    def test_disconnected_fixed_point(self, capsys):
        code, data, _ = run_json(capsys, "iterate", EX3, "1,1,2,2", "-n", "3", "--trace", "--json")
        assert code == 0
        assert all(pt == [1.0, 1.0, 2.0, 2.0] for pt in data["trace"])

    def test_untraced_output_is_first_and_last_of_the_trace(self, capsys):
        _, full, _ = run_json(capsys, "iterate", EX2, "1,2,3,4", "-n", "500", "--trace", "--json")
        code, ends, _ = run_json(capsys, "iterate", EX2, "1,2,3,4", "-n", "500", "--json")
        assert code == 0
        assert len(full["trace"]) == 501
        assert ends == {
            "steps": 500,
            "trace": [full["trace"][0], full["trace"][-1]],
            "oscillations": [full["oscillations"][0], full["oscillations"][-1]],
        }
        _, full_text, _ = run(capsys, "iterate", EX2, "1,2,3,4", "-n", "500", "--trace")
        _, ends_text, _ = run(capsys, "iterate", EX2, "1,2,3,4", "-n", "500")
        lines = full_text.splitlines()
        assert ends_text.splitlines() == [lines[0], lines[-1]]

    @pytest.mark.parametrize("trace", [[], ["--trace"]])
    def test_zero_steps_print_the_start_once(self, capsys, trace):
        # without --trace the first and the last point are one point here
        code, data, _ = run_json(capsys, "iterate", EX2, "1,2,3,4", "-n", "0", *trace, "--json")
        assert code == 0
        assert data == {"steps": 0, "trace": [[1.0, 2.0, 3.0, 4.0]], "oscillations": [3.0]}
        code, text, _ = run(capsys, "iterate", EX2, "1,2,3,4", "-n", "0", *trace)
        assert (code, text) == (0, "n=0  x = (1, 2, 3, 4)  oscillation = 3\n")

    @pytest.mark.parametrize("order, x", [
        (-0.5, "1.7976931348623157e308,1.797693134862315e308"),  # an unpivoted root overflows
        (0.005, "1.7976931348623157e308,1.7976931348623013e308"),
    ])
    def test_largest_floats_step_without_a_traceback(self, capsys, tmp_path, order, x):
        spec = tmp_path / "ring2.json"
        spec.write_text(json.dumps({
            "p": 2,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "power", "order": order, "arity": 2}] * 2,
            "alpha": [[1, 2], [2, 1]],
        }))
        code, data, err = run_json(capsys, "iterate", str(spec), x, "-n", "1", "--json")
        assert (code, err) == (0, "")
        start = [float(t) for t in x.split(",")]
        assert all(min(start) <= t <= max(start) for t in data["trace"][-1])

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run(capsys, "iterate", EX2, "1,-2,3,4", "-n", "1")
        assert code == 1
        assert "error" in err

    def test_wrong_length_exits_one(self, capsys):
        code, _, err = run(capsys, "iterate", EX2, "1,2,3", "-n", "1")
        assert code == 1
        assert "coordinates" in err

    @pytest.mark.parametrize("x", ["1,,2,3,4", "1,2,3,4,", ",1,2,3,4", "1, ,2,3,4"])
    def test_empty_field_exits_one(self, capsys, x):
        # "1,,2,3,4" used to iterate (1, 2, 3, 4)
        code, out, err = run(capsys, "iterate", EX2, x, "-n", "1")
        assert (code, out) == (1, "")
        assert err == f"error: could not parse point {x!r}\n"

    @pytest.mark.parametrize("x", ["1,abc", "1,2,3,4e", "0x1,2,3,4"])
    def test_unreadable_coordinate_exits_one(self, capsys, x):
        code, out, err = run(capsys, "iterate", EX2, x)
        assert (code, out) == (1, "")
        assert err == f"error: could not parse point {x!r}\n"

    @pytest.mark.parametrize("x", [" 1, 2 ,3  4 ", "1 2 3 4", "1,\t2,3,4\n"])
    def test_whitespace_separates_fields(self, capsys, x):
        assert run(capsys, "iterate", EX2, x, "--json") == run(
            capsys, "iterate", EX2, "1,2,3,4", "--json")


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


class TestInvariant:
    @pytest.mark.parametrize("spec", [EX2, EX6])
    def test_start_near_the_float_maximum_reports_finite_json(self, capsys, spec):
        # min + max overflows there, so the midpoint adds the halves instead
        code, out, _ = run(capsys, "invariant", spec, "1e308,1.7e308,1.5e308,1.2e308", "--json")
        data = json.loads(out, parse_constant=_reject_constant)
        y = data["final_iterate"]
        if spec == EX2:
            assert (code, data["converged"]) == (0, True)
            brackets = [(data["value"], data["error_radius"], y)]
        else:
            assert (code, data["stop_reason"]) == (2, "classes-converged")
            brackets = [(c["value"], c["error_radius"], [y[v - 1] for v in c["vertices"]])
                        for c in data["classes"]]
            assert data["error_radius"] == max(c["error_radius"] for c in data["classes"])
        for value, radius, coords in brackets:
            assert math.isfinite(value) and math.isfinite(radius)
            assert value - radius <= min(coords) and max(coords) <= value + radius

    def test_one_way_feed_sqrt_xy(self, capsys):
        code, data, _ = run_json(
            capsys, "invariant", EX5, "1,4,9,16", "--tol", "1e-14", "--json"
        )
        assert code == 0
        assert data["converged"] is True
        assert data["value"] == pytest.approx(2.0, abs=1e-12)
        assert data["error_radius"] <= 1e-12

    def test_periodic_modulus_two(self, capsys):
        code, data, _ = run_json(capsys, "invariant", EX6, "1,4,9,16", "--json")
        assert code == 2
        assert data["stop_reason"] == "classes-converged"
        assert [c["vertices"] for c in data["classes"]] == [[1, 2], [3, 4]]
        values = [c["value"] for c in data["classes"]]
        # the two limits swap classes with every step
        want = [2.0, 12.0] if data["iterations_used"] % 2 == 0 else [12.0, 2.0]
        assert values == pytest.approx(want, abs=1e-9)
        assert all(c["error_radius"] <= data["error_radius"] for c in data["classes"])

    def test_periodic_human_output_lists_the_classes(self, capsys):
        code, out, _ = run(capsys, "invariant", EX6, "1,4,9,16")
        assert code == 2
        lines = out.splitlines()
        assert "stop_reason: classes-converged" in lines
        assert re.fullmatch(r"class \{1, 2\}: value=12 error_radius=\S+", lines[-2])
        assert re.fullmatch(r"class \{3, 4\}: value=2 error_radius=\S+", lines[-1])

    def test_periodic_full_sequence_exits_two(self, capsys):
        code, data, _ = run_json(capsys, "invariant", EX6, "1,4,9,16", "--json")
        assert code == 2
        assert data["converged"] is False
        assert data["value"] is None

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "invariant", EX2, "1,2,3,4")
        assert code == 0
        assert "converged: true" in out
        assert "stop_reason: converged" in out

    def test_stop_reason_of_a_capped_run(self, capsys):
        code, data, _ = run_json(capsys, "invariant", EX2, "1,2,3,4", "--max-iter", "3", "--json")
        assert code == 2
        assert data["stop_reason"] == "max_iter"
        assert list(data) == [
            "value", "error_radius", "iterations_used", "converged", "stop_reason",
            "final_iterate",
        ]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_synopsis() -> dict[str, set[str]]:
    """The options each `invmean <cmd> ...` synopsis line of README.md names."""
    synopsis = {}
    for line in README.read_text().splitlines():
        match = re.match(r"invmean (\w+)\s+(.*)", line)
        if match:
            usage = match.group(2).split("#")[0]
            synopsis[match.group(1)] = set(re.findall(r"(?<![\w-])--?[a-z][-a-z]*", usage))
    return synopsis


def test_readme_synopsis_names_the_parser_options():
    # a removed option must leave the synopsis too, and a new one enter it
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    synopsis = readme_synopsis()
    assert set(synopsis) == set(commands.choices)
    for name, sub in commands.choices.items():
        # -h and --json belong to every command; the text above the synopsis says so
        defined = {a for a in sub._actions if a.option_strings and a.dest not in ("help", "json")}
        named = {sub._option_string_actions.get(option) for option in synopsis[name]}
        assert named == defined, (name, sorted(synopsis[name]))


def test_readme_library_block_runs():
    # the block is documentation a reader may paste: it must run as shown
    text = README.read_text()
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].stop_reason == "converged"
    rep = namespace["rep"]
    assert (rep.passed, rep.n_evaluated) == (True, 100)


def readme_cli_examples() -> list[tuple[list[str], list[str]]]:
    """Each `$ invmean ...` line of README.md's code blocks with the output
    lines shown under it, less `...` lines and trailing `# ...` comments."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.S | re.M):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ invmean "):
                shown = []
                examples.append((line.split()[2:], shown))
            elif shown is not None and line.strip() and line != "...":
                shown.append(re.sub(r"\s+#.*$", "", line))
    return examples


def test_readme_cli_examples_print_what_they_show(capsys, monkeypatch):
    # the README's paths are relative to the repository root
    monkeypatch.chdir(README.parent)
    examples = readme_cli_examples()
    assert len(examples) == 6
    for argv, shown in examples:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2) and err == "", (argv, err)
        printed = iter(out.splitlines())
        for line in shown:
            # each shown line appears, in the order shown
            assert line in printed, (argv, line, out)


def test_two_main_calls_build_one_parser(capsys, monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    build_parser.cache_clear()
    try:
        assert run(capsys, "analyze", EX2)[0] == 0
        assert run(capsys, "tg", EX2, "1,0,0,0")[0] == 0
    finally:
        build_parser.cache_clear()  # drop the parser built from Counted
    # the top-level parser and its five subcommand parsers, once
    assert built.count("invmean") == 1 and len(built) == 6


_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py",
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


class TestCommandParser:
    """`main` parses argv with the named command's own parser, and gets what
    the full parse gets."""

    def test_golden_argvs_parse_as_the_full_parse_does(self, monkeypatch):
        monkeypatch.chdir(golden.ROOT)
        runs = golden.runs()
        assert len(runs) == 110
        parser = build_parser()
        full = {name: parser.parse_args(argv) for name, argv in runs}
        monkeypatch.setattr(parser, "parse_args", None)  # no golden argv needs the full parse
        for name, argv in runs:
            assert cli._parse_args(argv) == full[name], name

    @pytest.mark.parametrize("argv", [
        ["verify", EX2, "extra"],
        ["verify", EX2, "--samples", "x"],
        ["analyze"],
        ["--json", "analyze", EX2],
        [],
        ["--version"],
        ["analyze", "-h"],
        ["tg", EX2, "--", "-1,0,1"],
        ["tg", EX2, "--json", "--", "-1,0,1,1"],
        ["analyze", EX2, "--version"],
        ["iterate", EX2, "1,2,3,4", "-n", "2", "--js"],
    ])
    def test_main_prints_what_the_full_parse_prints(self, monkeypatch, argv):
        fast = golden.run(argv)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
        assert fast == golden.run(argv)


@pytest.mark.parametrize("command, option, default, shown", [
    ("invariant", "--tol", invariant.DEFAULT_TOL, "(default 1e-12)"),
    ("invariant", "--max-iter", invariant.DEFAULT_MAX_ITER, "(default 10000)"),
])
def test_defaults_are_the_library_defaults(command, option, default, shown):
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    action = commands.choices[command]._option_string_actions[option]
    assert action.default == default and action.help.endswith(shown)


class TestTg:
    def test_constant_start(self, capsys):
        code, data, _ = run_json(capsys, "tg", EX2, "1,1,1,1", "--json")
        assert code == 0
        assert data["steps_to_constant"] == 0
        assert data["constant_value"] == 1

    def test_single_positive_collapses_to_zero(self, capsys):
        code, data, _ = run_json(capsys, "tg", EX2, "1,0,0,0", "--json")
        assert code == 0
        assert data["trace"][1] == [0, 0, 0, 0]
        assert data["steps_to_constant"] == 1
        assert data["constant_value"] == 0
        assert data["steps_to_constant"] <= 81

    def test_periodic_never_constant(self, capsys):
        code, data, _ = run_json(capsys, "tg", EX6, "1,1,-1,-1", "--json")
        assert code == 0
        assert data["steps_to_constant"] is None
        assert data["constant_value"] is None
        # c0, its swap, then c0 again: the first repeat ends the run
        assert len(data["trace"]) == 3
        assert data["trace"][2] == data["trace"][0]

    def test_periodic_human_output_names_the_repeat(self, capsys):
        code, out, _ = run(capsys, "tg", EX6, "1,1,-1,-1")
        assert code == 0
        assert out.splitlines()[-1] == "never constant: step 2 repeats step 0"

    def test_negative_first_entry_needs_no_separator(self, capsys):
        code, data, _ = run_json(capsys, "tg", EX6, "-1,0,1,0", "--json")
        assert code == 0
        assert data["trace"][0] == [-1, 0, 1, 0]
        code, plain, _ = run_json(capsys, "tg", EX6, "--json", "--", "-1,0,1,0")
        assert plain == data

    def test_ten_cycle_stops_at_first_repeat(self, capsys, tmp_path):
        spec = tmp_path / "cycle10.json"
        spec.write_text(json.dumps({
            "p": 10,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "arithmetic", "arity": 1}] * 10,
            "alpha": [[(i - 1) % 10 or 10] for i in range(1, 11)],
        }))
        c0 = "1,-1,0,0,0,0,0,0,0,0"
        code, data, _ = run_json(capsys, "tg", str(spec), c0, "--json")
        assert code == 0
        assert data["steps_to_constant"] is None and data["constant_value"] is None
        assert len(data["trace"]) == 11  # ten rotations back to c0
        assert data["trace"][10] == data["trace"][0]

    @pytest.mark.parametrize("lengths", [(2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13)])
    def test_prime_cycles_stop_at_the_bound(self, capsys, tmp_path, lengths):
        # one +1 per cycle first repeats at the lcm of the lengths (2310 at
        # p = 28, 30030 at p = 41); the run ends at step (p-1)^2 + 1
        alpha, c0 = prime_cycles(lengths)
        p = len(alpha)
        spec = tmp_path / f"primes{p}.json"
        spec.write_text(json.dumps({
            "p": p,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "arithmetic", "arity": 1}] * p,
            "alpha": alpha,
        }))
        bound = (p - 1) ** 2 + 1
        code, out, _ = run(capsys, "tg", str(spec), ",".join(map(str, c0)))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == bound + 2 and lines[-2].startswith(f"step {bound}: ")
        assert lines[-1] == f"never constant: not constant by step {bound} = (p-1)^2 + 1"
        code, data, _ = run_json(capsys, "tg", str(spec), ",".join(map(str, c0)), "--json")
        assert code == 0 and len(data["trace"]) == bound + 1
        assert data["steps_to_constant"] is None and data["constant_value"] is None

    def test_no_step_option(self, capsys):
        # the graph bounds the run, so there is no cap to set
        with pytest.raises(SystemExit) as exc:
            main(["tg", EX2, "1,1,1,-1", "--max-steps", "1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --max-steps 1" in capsys.readouterr().err

    def test_bad_coloring_exits_one(self, capsys):
        code, _, err = run(capsys, "tg", EX2, "1,0,2,0")
        assert code == 1
        assert "not in {-1, 0, 1}" in err

    @pytest.mark.parametrize("c0", ["1,,0,0,-1", "1,0,0,-1,", ",1,0,0,-1"])
    def test_empty_field_exits_one(self, capsys, c0):
        # "1,,0,0,-1" used to run (1, 0, 0, -1)
        code, out, err = run(capsys, "tg", EX2, "--", c0)
        assert (code, out) == (1, "")
        assert err == f"error: could not parse coloring {c0!r}\n"

    def test_whitespace_separates_fields(self, capsys):
        assert run(capsys, "tg", EX2, "--", " 1, 0 0,-1 ") == run(capsys, "tg", EX2, "1,0,0,-1")

    @pytest.mark.parametrize("c0", ["1,1", "1,1,1,1,1", "0,1"])
    def test_coloring_of_the_wrong_length_exits_one(self, capsys, c0):
        code, out, err = run(capsys, "tg", EX2, c0)
        assert code == 1 and out == ""
        assert err == f"error: coloring covers {len(c0.split(','))} vertices, graph has 4\n"


class TestVerify:
    def test_cyclic_fixture_all_pass(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", EX2, "--samples", "60", "--seed", "42", "--json"
        )
        assert code == 0
        assert data["falsified"] is False
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["mean-property"]["status"] == "pass"
        assert by_name["oscillation-monotonicity"]["status"] == "pass"
        assert by_name["invariance"]["status"] == "pass"
        assert by_name["bracket-dichotomy"]["status"] == "pass"
        assert by_name["strict"]["status"] == "pass"
        assert by_name["monotone"]["status"] == "pass"
        assert by_name["homogeneous"]["status"] == "pass"

    def test_disconnected_fixture_witness_and_skips(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", EX3, "--samples", "30", "--seed", "7", "--json"
        )
        assert code == 2
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["invariance"]["status"] == "skip"
        assert by_name["invariance"]["detail"] == "not certified"
        contractivity = by_name["contractivity"]
        assert contractivity["status"] == "fail"
        assert contractivity["witnesses"] == [
            {"point": [1.0, 1.0, 2.0, 2.0], "message": "oscillation not reduced"}
        ]
        # the evidence is stated once, in the contractivity entry
        assert by_name["certificate"]["detail"] == "class=falsified n0=10"
        assert contractivity["detail"].startswith("oscillation not reduced after 10 step(s)")

    @pytest.mark.parametrize("spec, detail", [
        (EX4, "class=contractive n0=10"),
        (EX5, "class=contractive n0=10"),
        (EX6, "class=falsified n0=10"),
    ])
    def test_uncertified_certificate_detail_is_class_and_n0(self, capsys, spec, detail):
        _, data, _ = run_json(capsys, "verify", spec, "--samples", "4", "--json")
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["certificate"]["detail"] == detail
        assert by_name["contractivity"]["detail"] == load_mapping_spec(spec).build()._contractivity.evidence

    def test_certified_certificate_keeps_its_evidence(self, capsys):
        _, data, _ = run_json(capsys, "verify", EX2, "--samples", "4", "--json")
        detail = {c["name"]: c for c in data["checks"]}["certificate"]["detail"]
        assert detail.startswith("class=uniformly-weak-certified n0=81; all 4 component means strict")

    def test_absorbing_coordinate_strictness_fails(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", EX4, "--samples", "30", "--seed", "7", "--json"
        )
        assert code == 2
        by_name = {c["name"]: c for c in data["checks"]}
        strict = by_name["strict"]
        assert strict["status"] == "fail"
        assert any("coordinate 4" in w["message"] for w in strict["witnesses"])
        # but the mapping itself is sound
        assert by_name["mean-property"]["status"] == "pass"
        assert by_name["oscillation-monotonicity"]["status"] == "pass"

    def test_human_mode_prints_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", EX2, "--samples", "30", "--seed", "1")
        assert code == 0
        assert "verdict: all checks passed" in out

    def test_one_way_feed_strictness_fails(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", EX5, "--samples", "25", "--seed", "3", "--json"
        )
        assert code == 2
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["strict"]["status"] == "fail"
        assert by_name["contractivity"]["status"] == "info"  # contractive: no witness exists

    def test_periodic_fixture_contractivity_fails(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", EX6, "--samples", "25", "--seed", "3", "--json"
        )
        assert code == 2
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["contractivity"]["status"] == "fail"
        assert by_name["strict"]["status"] == "skip"

    def test_documented_flags_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", EX2, "--samples", "500", "--seed", "42")
        assert code == 0
        assert "verdict: all checks passed" in out

    def test_huge_order_loads_and_fails_mean_property(self, capsys, tmp_path):
        # P_1e17 rounds to max(x): loading accepts it, verify falsifies it
        raw = json.loads(fixture_path("example2.json").read_text())
        raw["means"][3] = {"kind": "power", "order": 1e17, "arity": 2}
        spec = tmp_path / "huge_order.json"
        spec.write_text(json.dumps(raw))
        code, _, _ = run(capsys, "analyze", str(spec))
        assert code == 0
        code, data, _ = run_json(capsys, "verify", str(spec), "--samples", "4", "--json")
        assert code == 2
        by_name = {c["name"]: c for c in data["checks"]}
        entry = by_name["mean-property"]
        assert entry["status"] == "fail"
        # at most 5 witnesses, as every failing entry carries, each naming its mean
        witnesses = entry["witnesses"]
        assert 1 <= len(witnesses) <= 5
        for w in witnesses:
            assert w["message"].startswith("mean 4 (P_1e+17): strictness violation: ")
            assert len(w["point"]) == 2

    def test_homogeneity_precondition_reported_as_skip(self, capsys, tmp_path):
        raw = json.loads(fixture_path("example2.json").read_text())
        raw["interval"] = {"lower": 1, "upper": 5}
        spec = tmp_path / "bounded.json"
        spec.write_text(json.dumps(raw))
        code, data, _ = run_json(capsys, "verify", str(spec), "--samples", "4", "--json")
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["homogeneous"] == {
            "name": "homogeneous",
            "status": "skip",
            "detail": "homogeneity needs the domain (0, +inf), got (1, 5)",
        }
        assert by_name["strict"]["status"] == "pass"

    def test_strict_probes_stay_inside_a_narrow_interval(self, capsys, tmp_path):
        # each coordinate-alone probe raises one entry to the top of the
        # sample box, never past the interval's upper end
        raw = json.loads(fixture_path("example2.json").read_text())
        raw["interval"] = {"lower": 1, "upper": 1.2}
        spec = tmp_path / "narrow.json"
        spec.write_text(json.dumps(raw))
        code, data, err = run_json(capsys, "verify", str(spec), "--samples", "20", "--json")
        assert (code, err) == (0, "")
        statuses = {c["name"]: c["status"] for c in data["checks"]}
        assert statuses.pop("certificate") == "info"
        assert statuses.pop("homogeneous") == "skip"
        assert set(statuses.values()) == {"pass"}
        # verify proves `strict` here, so the probes are run by the sampler
        # itself: a probe past the upper end would raise a DomainError
        mapping = load_mapping_spec(spec).build()
        report = invariant.verify_mean_properties(mapping, "strict", Random(0), 20)
        assert (report.n_samples, report.n_evaluated, report.violations) == (4 + 20, 4 + 20, ())

    def test_two_ring12_contractivity_steps_one_witness_check(self, capsys, tmp_path, monkeypatch):
        # two disjoint harmonic/arithmetic rings with loops, 6 coordinates
        # each: the witness comes from the graph, and the decision takes no
        # step (the sampled search used to step 3^12, the re-check 122)
        rows = [[i, i % 6 + 1] for i in range(1, 7)] + [[i, (i - 6) % 6 + 7] for i in range(7, 13)]
        raw = {
            "p": 12,
            "interval": {"lower": 0, "upper": None},
            "means": [{"kind": "harmonic" if i % 2 else "arithmetic", "arity": 2}
                      for i in range(12)],
            "alpha": rows,
        }
        spec = tmp_path / "two_rings12.json"
        spec.write_text(json.dumps(raw))
        steps, decisions = [], []
        decide = averaging.falsify_contractivity

        def counted(mapping):
            decisions.append(1)
            # the compiled kernel is cached on the instance, so it is counted
            # there, by the k steps of each call
            kernel = mapping._steps
            monkeypatch.setitem(
                vars(mapping), "_steps", lambda xs, k: steps.append(k) or kernel(xs, k)
            )
            try:
                return decide(mapping)
            finally:
                monkeypatch.setitem(vars(mapping), "_steps", kernel)

        monkeypatch.setattr(averaging, "falsify_contractivity", counted)
        code, data, _ = run_json(capsys, "verify", str(spec), "--samples", "4", "--json")
        assert code == 2
        assert (len(decisions), sum(steps)) == (1, 0)
        contractivity = {c["name"]: c for c in data["checks"]}["contractivity"]
        assert contractivity["status"] == "fail"
        assert contractivity["witnesses"][0]["point"] == [1.0] * 6 + [2.0] * 6
        assert contractivity["detail"].startswith("oscillation not reduced after 122 step(s)")

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "verify", EX5, "--samples", "25", "--seed", "3", "--json")
        _, out2, _ = run(capsys, "verify", EX5, "--samples", "25", "--seed", "3", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("fixture, certified", [
        ("example2.json", True), ("example3.json", False), ("example4.json", False),
        ("example5.json", False), ("example6.json", False),
    ])
    def test_entries_come_in_a_fixed_order(self, capsys, fixture, certified):
        # on an uncertified mapping the contractivity entry comes before the
        # two checks it skips; the human lines name the same entries in the
        # same order
        names = ["mean-property", "oscillation-monotonicity", "certificate"]
        names += [] if certified else ["contractivity"]
        names += ["invariance", "bracket-dichotomy", "strict", "monotone", "homogeneous"]
        spec = str(fixture_path(fixture))
        _, data, _ = run_json(capsys, "verify", spec, "--samples", "4", "--json")
        assert [c["name"] for c in data["checks"]] == names
        _, out, _ = run(capsys, "verify", spec, "--samples", "4")
        lines = [re.match(r"(PASS|FAIL|SKIP|INFO) +([\w-]+): ", line) for line in out.splitlines()]
        assert [m.group(2) for m in lines if m] == names


class TestSpecSourcing:
    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        text = fixture_path("example2.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, data, _ = run_json(capsys, "analyze", "-", "--json")
        assert code == 0
        assert data["ergodic"] is True

    @pytest.mark.parametrize(
        "data, message",
        [
            (str(fixture_path("example2.json")).encode(), "error: not valid JSON: "),
            (b"[1, 2]", "error: spec: expected a JSON object, got list\n"),
            (b'{"p": "caf\xe9"}', "error: not UTF-8 text: "),
            (b"[" * 100_000, "error: not valid JSON: nested too deeply to parse\n"),
        ],
    )
    def test_stdin_is_spec_text_never_a_path(self, capsys, monkeypatch, data, message):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 1 and out == ""
        assert err.startswith(message), err

    def test_stdin_bytes_parse_as_a_file_does(self, capsys, monkeypatch):
        import io

        text = fixture_path("example2.json").read_bytes()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
        code, data, _ = run_json(capsys, "analyze", "-", "--json")
        assert code == 0
        assert data["ergodic"] is True

    def test_brace_named_file_is_a_path(self, capsys, tmp_path, monkeypatch):
        # a path argument is a file even when its name starts with '{'
        (tmp_path / "{ex}.json").write_bytes(fixture_path("example2.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "analyze", "{ex}.json")
        assert (code, err) == (0, "")
        assert "ergodic: true" in out

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/spec.json")
        assert code == 1
        assert "error" in err

    def test_malformed_spec_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 2, "interval": {"lower": 0, "upper": null}, '
                       '"means": [{"kind": "harmonic", "arity": 2}], "alpha": [[1, 2]]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "1 entries for p=2" in err

    def test_non_numeric_spec_value_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 1, "interval": {"lower": "abc", "upper": null}, '
                       '"means": [{"kind": "harmonic", "arity": 1}], "alpha": [[1]]}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert err == "error: interval: lower must be a number, got 'abc'\n"

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing spec argument
        assert exc.value.code == 1


#: Any JSON value, with every float (nan and the infinities too) and ints
#: far past 64 bits; bools mix into the int lists.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(-(2**70), 2**70) | st.lists(st.integers() | st.booleans()),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


class TestJsonText:
    """`--json` output is `json.dumps(obj, indent=2)`, byte for byte."""

    @given(JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [1, True, 2, False, 3], [True], {"a": [0, False]}, True, False, 1,
        -0.0, [0.0, -0.0], math.nan, math.inf, -math.inf, [math.nan, -math.inf, 1e300, 5e-324],
        "\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\n\t\"\\", {"\u00e9\x00\"": "\ud800"},
        [], {}, [[]], [{}], {"a": []}, {"": {}}, [[], {}, [[]]],
        2**64, -(2**64) - 1, 10**30, [2**64, -(2**100)],
        None, [None, "", 1.5], (1, 2), [(1, (2, 3))],
        # lists of int lists, as analyze's edges, and their near misses
        [[1, 2], [2, 1]], [[3]], {"edges": [[1, 1], [2, 1]]}, [[1, 2], []], [[], [1]],
        [[1], (2,)], [[1, True]], [[1], [2.0]], [[2**64, -1], [0]],
    ])
    def test_cases(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_deep_nesting(self):
        value = 7
        for depth in range(60):
            value = [value, -depth] if depth % 2 else {"k": value, "d": [depth]}
        assert cli._json_text(value) == json.dumps(value, indent=2)


class TestModuleEntryPoint:
    def test_runtime_is_pure_standard_library(self):
        # -S keeps site-packages and its .pth hooks out of the process, so
        # every module it loads comes from the commands themselves
        import os
        import subprocess
        import sys

        import invmean

        script = """if True:
            import contextlib, io, sys
            from invmean import FIXTURES, cli, fixture_path
            argvs = []
            for name in FIXTURES:
                spec = str(fixture_path(name))
                argvs += [
                    ["analyze", spec], ["iterate", spec, "1,2,3,4"],
                    ["invariant", spec, "1,2,3,4"], ["tg", spec, "1,0,-1,0"],
                    ["verify", spec, "--samples", "4"],
                ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in argvs]
            print(len(codes), sorted(set(codes)))
            names = {name.partition(".")[0] for name in sys.modules}
            print(sorted(names - set(sys.stdlib_module_names) - {"invmean", "__main__"}))
        """
        src = str(Path(invmean.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "25 [0, 2]\n[]\n"

    def test_python_dash_m_runs_the_cli(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import invmean

        src = str(Path(invmean.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "invmean", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == f"invmean {invmean.__version__}\n"
