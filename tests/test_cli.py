"""End-to-end command tests: outputs, flags, and the exit-code contract.

Exit codes: 0 success, 1 usage/parse/domain error, 2 falsified or
non-convergent.  Commands run in-process through main(argv).
"""

import json
import math

import pytest

from invmean import fixture_path
from invmean.cli import main

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

    def test_absorbing_not_irreducible(self, capsys):
        code, data, _ = run_json(capsys, "analyze", EX4, "--json")
        assert code == 0
        assert data["irreducible"] is False

    def test_periodic_fixture(self, capsys):
        code, data, _ = run_json(capsys, "analyze", EX6, "--json")
        assert code == 0
        assert data["period"] == 2
        assert data["ergodic"] is False
        assert data["certificate"]["class"] == "unknown"

    def test_human_mode_mentions_class(self, capsys):
        code, out, _ = run(capsys, "analyze", EX2)
        assert code == 0
        assert "ergodic: true" in out
        assert "uniformly-weak-certified" in out


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

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run(capsys, "iterate", EX2, "1,-2,3,4", "-n", "1")
        assert code == 1
        assert "error" in err

    def test_wrong_length_exits_one(self, capsys):
        code, _, err = run(capsys, "iterate", EX2, "1,2,3", "-n", "1")
        assert code == 1
        assert "coordinates" in err


class TestInvariant:
    def test_one_way_feed_sqrt_xy(self, capsys):
        code, data, _ = run_json(
            capsys, "invariant", EX5, "1,4,9,16", "--tol", "1e-14", "--json"
        )
        assert code == 0
        assert data["converged"] is True
        assert data["value"] == pytest.approx(2.0, abs=1e-12)
        assert data["error_radius"] <= 1e-12

    def test_periodic_modulus_two(self, capsys):
        code, data, _ = run_json(
            capsys, "invariant", EX6, "1,4,9,16", "--modulus", "2", "--json"
        )
        assert code == 0
        points = [entry["point"] for entry in data["limits"]]
        assert points[0] == pytest.approx([2.0, 2.0, 12.0, 12.0], abs=1e-9)
        assert points[1] == pytest.approx([12.0, 12.0, 2.0, 2.0], abs=1e-9)

    def test_periodic_full_sequence_exits_two(self, capsys):
        code, data, _ = run_json(capsys, "invariant", EX6, "1,4,9,16", "--json")
        assert code == 2
        assert data["converged"] is False
        assert data["value"] is None

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "invariant", EX2, "1,2,3,4")
        assert code == 0
        assert "converged: true" in out


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
        assert len(data["trace"]) == 11  # ten rotations back to c0, not 3^10 + 1
        assert data["trace"][10] == data["trace"][0]

    def test_bad_coloring_exits_one(self, capsys):
        code, _, err = run(capsys, "tg", EX2, "1,0,2,0")
        assert code == 1
        assert "-1, 0, or 1" in err


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
        assert contractivity["witnesses"][0]["point"] == [1.0, 1.0, 2.0, 2.0]

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
        assert by_name["contractivity"]["status"] == "info"  # no witness found

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
        assert by_name["mean-property"]["status"] == "fail"

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

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "verify", EX5, "--samples", "25", "--seed", "3", "--json")
        _, out2, _ = run(capsys, "verify", EX5, "--samples", "25", "--seed", "3", "--json")
        assert out1 == out2


class TestSpecSourcing:
    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        text = fixture_path("example2.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, data, _ = run_json(capsys, "analyze", "-", "--json")
        assert code == 0
        assert data["ergodic"] is True

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

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing spec argument
        assert exc.value.code == 1
