"""Each output check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
from random import Random

import pytest

import checks
import workloads

iv, cli = workloads.load_invmean()


def _analyze(tmp_path, name: str, spec: dict) -> tuple[int, str]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return workloads.call_cli(cli, ["analyze", str(path), "--json"])


def _verify(name: str) -> tuple[dict, int, dict]:
    spec = workloads.fixture_spec(f"{name}.json")
    path = str(workloads.SRC / "invmean" / "fixtures" / f"{name}.json")
    rc, text = workloads.call_cli(cli, ["verify", path, "--samples", "4", "--json"])
    return spec, rc, json.loads(text)


def _check_named(out: dict, name: str) -> dict:
    return next(c for c in out["checks"] if c["name"] == name)


@pytest.mark.parametrize("kind", ["moderate", "huge"])
def test_solve_value_off_by_1e_9_relative(kind):
    spec = workloads.fixture_spec("example2.json")
    x0 = workloads.start_point(Random(7), 4, kind)
    mapping = iv.load_mapping_spec(json.dumps(spec)).build()
    r = iv.invariant_mean_eval(mapping, x0)
    good = (r.value, r.error_radius, r.iterations_used, r.converged)
    assert checks.check_solve(spec, x0, *good) is None
    off = (r.value * (1 + 1e-9), r.error_radius, r.iterations_used, r.converged)
    assert "outside" in checks.check_solve(spec, x0, *off)
    unconverged = (None, r.error_radius, r.iterations_used, False)
    assert checks.check_solve(spec, x0, *unconverged) is not None


def test_solve_accepts_the_zero_radius_result_within_rounding():
    spec = workloads.fixture_spec("example4.json")
    # value 1.4566410743541445 with radius 0.0; K = 1.45664107435414457205...
    assert checks.check_solve(spec, (1, 1, 3, 1), 1.4566410743541445, 0.0, 5, True) is None


@pytest.mark.parametrize("name, spec", [
    ("ring16", workloads._spec([1.0] * 16, workloads.ring_alpha(16))),
    ("cycle8", workloads._spec([1.0] * 8, workloads.cycle_alpha(8))),
    ("tworings8", workloads._spec([1.0] * 8, workloads.two_rings_alpha(8))),
])
def test_analyze_wrong_period(tmp_path, name, spec):
    rc, text = _analyze(tmp_path, name, spec)
    assert checks.check_analyze(spec, name, rc, text) is None
    out = json.loads(text)
    out["period"] = (out["period"] or 1) + 1
    assert "closed form" in checks.check_analyze(spec, name, rc, json.dumps(out))


def test_analyze_wrong_walk_length(tmp_path):
    spec = workloads._spec([-1.0] * 8, workloads.ring_alpha(8))
    rc, text = _analyze(tmp_path, "ring8", spec)
    out = json.loads(text)
    out["uniform_walk_length"] -= 1
    assert checks.check_analyze(spec, "ring8", rc, json.dumps(out)) is not None


def test_tg_wrong_stopping_step(tmp_path):
    spec = workloads._spec([1.0] * 8, workloads.ring_alpha(8))
    path = tmp_path / "ring8.json"
    path.write_text(json.dumps(spec))
    c0 = [1, 1, 1, -1, 0, 1, 1, -1]
    rc, text = workloads.call_cli(cli, ["tg", str(path), "--json", "--", ",".join(map(str, c0))])
    assert checks.check_tg(spec, c0, rc, text) is None
    out = json.loads(text)
    out["steps_to_constant"] += 1
    assert checks.check_tg(spec, c0, rc, json.dumps(out)) is not None


def test_tg_accepts_an_early_stop_on_a_periodic_graph():
    spec = workloads._spec([1.0] * 4, workloads.cycle_alpha(4))
    c0 = [1, -1, 0, 0]
    states, first_constant, _ = checks.tg_orbit(spec["alpha"], c0)
    assert first_constant is None
    early = {"trace": [list(s) for s in states], "steps_to_constant": None, "constant_value": None}
    assert checks.check_tg(spec, c0, 0, json.dumps(early)) is None
    early["trace"][2] = [0, 0, 0, 0]
    assert checks.check_tg(spec, c0, 0, json.dumps(early)) is not None


@pytest.mark.parametrize("name, check, status", [
    ("example2", "invariance", "fail"),
    ("example3", "contractivity", "info"),
    ("example4", "strict", "pass"),
    ("example6", "strict", "pass"),
])
def test_verify_wrong_verdict(name, check, status):
    spec, rc, out = _verify(name)
    assert checks.check_verify(spec, rc, json.dumps(out)) is None
    _check_named(out, check)["status"] = status
    assert "differ" in checks.check_verify(spec, rc, json.dumps(out))


def test_verify_false_strictness_witness():
    spec, rc, out = _verify("example4")
    _check_named(out, "strict")["witnesses"][0]["point"] = [1.2, 1.7, 1.5, 1.9]
    assert "strictly inside" in checks.check_verify(spec, rc, json.dumps(out))


def test_verify_false_contractivity_witness():
    spec, rc, out = _verify("example3")
    # (1, 2, 1, 2) does shrink: each pair moves to its own geometric mean
    _check_named(out, "contractivity")["witnesses"][0]["point"] = [1.0, 2.0, 1.0, 2.0]
    assert "does shrink" in checks.check_verify(spec, rc, json.dumps(out))
