"""`verify`'s proved entries, held to the samplers they stand in for, to a
50-digit iteration and to the kernel steps they save.

On a mapping of library power means, `invmean verify` states the
oscillation monotonicity, the invariance K(M(x)) = K(x) on a certified
mapping, and the strictness, monotonicity and homogeneity of K as what
the construction and the incidence graph prove, and iterates for none of
them.  The samplers stay library API; here they are the oracle: at a
fixed number of samples from a fixed rng each must reach the status the
proof states.
"""

import json
import statistics
from pathlib import Path
from random import Random

import mpmath
import pytest

from invmean import (
    averaging, check_bracket_dichotomy, check_mean_property, check_oscillation_monotonicity,
    fixture_path, invariant_mean_eval, load_mapping_spec, verify_invariance,
    verify_mean_properties,
)
from invmean.cli import _report_entry, main
from invmean.errors import PreconditionError
from invmean.means import _power_order
from test_invariant import mp_invariant_mean

ORACLE_SAMPLES = 30
GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"


def fixture(name):
    return json.loads(fixture_path(f"{name}.json").read_text())


def power_spec(orders, alpha):
    return {
        "p": len(alpha),
        "interval": {"lower": 0, "upper": None},
        "means": [{"kind": "power", "order": s, "arity": len(row)}
                  for s, row in zip(orders, alpha)],
        "alpha": alpha,
    }


def ring_alpha(p, first=1):
    return [[first + i, first + (i + 1) % p] for i in range(p)]


def ring_spec(p):
    """The bench's harmonic/arithmetic ring with loops (ergodic)."""
    return power_spec([-1.0 if i % 2 == 0 else 1.0 for i in range(p)], ring_alpha(p))


def two_rings_spec(p):
    """Two disjoint rings with loops of p // 2 coordinates each (falsified)."""
    h = p // 2
    return power_spec([-1.0 if i % 2 == 0 else 1.0 for i in range(p)],
                      ring_alpha(h) + ring_alpha(p - h, first=h + 1))


def example2_with(**changes):
    raw = fixture("example2")
    if "order4" in changes:
        raw["means"][3] = {"kind": "power", "order": changes["order4"], "arity": 2}
    if "interval" in changes:
        raw["interval"] = changes["interval"]
    return raw


SPECS = {
    **{name: fixture(name) for name in [f"example{k}" for k in range(2, 7)]},
    "ring6": ring_spec(6),
    "ring8": ring_spec(8),
    "two_rings10": two_rings_spec(10),
    # P_1e17 rounds to max(x): the mean property fails, and with it the
    # strictness the proofs rest on
    "order1e17": example2_with(order4=1e17),
    "bounded": example2_with(interval={"lower": 1, "upper": 5}),
    "narrow": example2_with(interval={"lower": 1, "upper": 1.2}),
}


def run_verify(capsys, tmp_path, spec, *argv):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["verify", str(path), "--json", *argv])
    return code, {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def sampled_status(mapping, name, seed):
    rng = Random(seed)
    if name == "oscillation-monotonicity":
        return _report_entry(check_oscillation_monotonicity(mapping, rng, ORACLE_SAMPLES))["status"]
    try:
        return _report_entry(verify_mean_properties(mapping, name, rng, ORACLE_SAMPLES))["status"]
    except PreconditionError:
        return "skip"


@pytest.mark.parametrize("name", SPECS)
def test_samplers_reach_the_stated_status(capsys, tmp_path, name):
    _, entries = run_verify(capsys, tmp_path, SPECS[name], "--samples", "4")
    mapping = load_mapping_spec(json.dumps(SPECS[name]).encode()).build()
    for seed, check in enumerate(("oscillation-monotonicity", "strict", "monotone", "homogeneous")):
        assert sampled_status(mapping, check, seed) == entries[check]["status"], (name, check)


def test_proofs_are_stated_and_only_the_refuted_premise_samples(capsys, tmp_path):
    _, entries = run_verify(capsys, tmp_path, SPECS["example2"], "--samples", "4")
    for check in ("oscillation-monotonicity", "invariance", "strict", "monotone",
                  "homogeneous"):
        assert entries[check]["detail"].startswith("proved: ")
    assert not entries["bracket-dichotomy"]["detail"].startswith("proved: ")
    code, entries = run_verify(capsys, tmp_path, SPECS["order1e17"], "--samples", "4")
    assert code == 2
    assert entries["mean-property"]["status"] == "fail"
    assert entries["strict"]["status"] == "fail"
    assert entries["oscillation-monotonicity"]["detail"].startswith("proved: ")
    for check in ("invariance", "strict", "monotone", "homogeneous"):
        assert not entries[check]["detail"].startswith("proved: ")
    assert entries["invariance"]["detail"].endswith("over 4 samples (0 skipped)")


@pytest.mark.parametrize("spec", ["example2", "ring32", "ring6", "ring8"])
def test_invariance_is_proved_and_the_sampler_agrees(capsys, tmp_path, spec):
    # every certified spec of the suite, the golden corpus and the bench's
    # verify rings: verify states the identity, and the sampler finds it
    raw = (json.loads((GOLDEN_SPECS / "ring32.json").read_text()) if spec == "ring32"
           else SPECS[spec])
    code, entries = run_verify(capsys, tmp_path, raw, "--samples", "4")
    assert code == 0
    assert entries["invariance"] == {
        "name": "invariance", "status": "pass",
        "detail": "proved: K(x) is the limit of M^n(x), so K(M(x)) = lim M^(n+1)(x) = K(x)",
    }
    mapping = load_mapping_spec(json.dumps(raw).encode()).build()
    report = verify_invariance(mapping, rng=Random(len(spec)), n_samples=20)
    assert report.passed and report.n_evaluated > 0


@pytest.mark.parametrize("name, outside", [("example4", "coordinate 4"),
                                            ("example5", "coordinates 3, 4")])
def test_strict_witness_has_k_at_the_minimum(capsys, tmp_path, name, outside):
    code, entries = run_verify(capsys, tmp_path, SPECS[name], "--samples", "4")
    assert code == 2
    strict = entries["strict"]
    assert strict["status"] == "fail"
    (witness,) = strict["witnesses"]
    assert outside in witness["message"]
    x = witness["point"]
    assert min(x) < max(x)
    mapping = load_mapping_spec(fixture_path(f"{name}.json")).build()
    orders = [_power_order(mean) for mean in mapping.means]
    k = mp_invariant_mean(orders, mapping.alpha.rows, x, digits=50)
    assert abs(k - min(x)) <= mpmath.mpf(10) ** -45


@pytest.fixture
def kernel_steps(monkeypatch):
    """The k of every `ComposedMapping._steps` call from here on, of a
    mapping that has not compiled its kernel: one that has stores it on
    the instance, where a lookup no longer meets this wrapper."""
    steps = []
    method = averaging.ComposedMapping._steps

    def counted(mapping, xs, k):
        steps.append(k)
        return method(mapping, xs, k)

    monkeypatch.setattr(averaging.ComposedMapping, "_steps", counted)
    return steps


@pytest.mark.parametrize("name", ["example3", "example4", "example5", "example6"])
def test_uncertified_fixture_takes_no_step(capsys, tmp_path, kernel_steps, name):
    run_verify(capsys, tmp_path, SPECS[name], "--samples", "4")
    assert kernel_steps == []


def test_certified_fixture_steps_only_for_the_dichotomy(capsys, tmp_path, kernel_steps):
    code, _ = run_verify(capsys, tmp_path, SPECS["example2"], "--samples", "4")
    assert code == 0
    taken = kernel_steps[:]
    kernel_steps.clear()
    # the same suite seed (0) and draws, with only the one sampled check
    # that iterates: the mean property draws first and takes no step
    mapping = load_mapping_spec(fixture_path("example2.json")).build()
    rng = Random(0)
    for mean in dict.fromkeys(mapping.means):
        check_mean_property(mean, rng, 4)
    check_bracket_dichotomy(mapping, rng, n_samples=4)
    assert taken and taken == kernel_steps


@pytest.mark.parametrize("name, distinct", [("ring8", 2), ("example2", 4), ("example3", 2)])
def test_each_distinct_mean_is_sampled_once(capsys, tmp_path, monkeypatch, name, distinct):
    sampled = []

    def counted(mean, rng, n):
        sampled.append(mean)
        return check_mean_property(mean, rng, n)

    monkeypatch.setattr("invmean.cli.check_mean_property", counted)
    _, entries = run_verify(capsys, tmp_path, SPECS[name], "--samples", "4")
    p = len(SPECS[name]["means"])
    assert len(sampled) == len(set(sampled)) == distinct
    assert entries["mean-property"]["detail"].startswith(f"{distinct} distinct means of {p}, ")


def test_one_coordinate_checks_are_vacuous(capsys, tmp_path):
    code, entries = run_verify(capsys, tmp_path, power_spec([0.0], [[1, 1]]), "--samples", "4")
    assert code == 0
    assert entries["bracket-dichotomy"] == {
        "name": "bracket-dichotomy", "status": "pass",
        "detail": "vacuous: I^1 has no nonconstant vector",
    }
    # the proof of invariance holds at every p
    assert entries["invariance"]["detail"].startswith("proved: ")


@pytest.mark.parametrize("name", ["example3", "example6", "two_rings10", "cycle8", "fed5"])
def test_falsified_mapping_has_two_invariant_means(capsys, tmp_path, name):
    # the arithmetic and the geometric mean of the cyclic-class limits are
    # both M-invariant, and differ at the contractivity witness: the
    # invariant mean exists but is not unique
    raw = (json.loads((GOLDEN_SPECS / f"{name}.json").read_text()) if name in ("cycle8", "fed5")
           else SPECS[name])
    code, entries = run_verify(capsys, tmp_path, raw, "--samples", "4")
    assert code == 2
    for check in ("strict", "monotone", "homogeneous"):
        assert entries[check] == {"name": check, "status": "skip", "detail": (
            "proved: the invariant mean is not unique (class=falsified): every symmetric mean "
            "of the cyclic-class limits is M-invariant, and the arithmetic and geometric means "
            "differ at the contractivity witness")}
    mapping = load_mapping_spec(json.dumps(raw).encode()).build()

    def means_of_limits(x):
        limits = [value for _, value, _ in invariant_mean_eval(mapping, x).classes]
        return statistics.fmean(limits), statistics.geometric_mean(limits)

    (witness,) = entries["contractivity"]["witnesses"]
    arithmetic, geometric = means_of_limits(tuple(witness["point"]))
    assert arithmetic - geometric > 0.01
    rng = Random(len(name))
    for _ in range(5):
        x = tuple(rng.uniform(0.5, 8.0) for _ in range(mapping.p))
        assert means_of_limits(mapping.nth_iterate(x, 1)) == pytest.approx(
            means_of_limits(x), rel=1e-9)
