"""`analyze --json`, `tg --json` and `verify --json` on drawn specs, held to
the benchmark's own checks (bench/checks.py), which never import the
program: `incidence_edges` and `graph_shape` (numpy Boolean powers) for
the edges, the classification and the initial classes, `tg_orbit` (its
own tri-state simulation) for `tg`, and `expected_verify` for the status
of each `verify` check, whose witnesses an mpmath iteration re-checks.
`iterate --json`, with and without `--trace`, is held bit for bit to a
loop of one `power_mean_eval` call per row and step, for step counts on
both sides of `averaging._COMPILE_AFTER`: the row functions, the
compiled kernel and the hand-over from one to the other inside a run.

Hypothesis draws specs with p <= 9, rows of arity 1 to 3 and orders from
a fixed set, from families that reach every branch of the graph code:
circulants, whose q0 is searched on one row; a ring with one chord added
or one entry removed, which is not circulant and steps every row, in
blocks of equal out-degree once there are enough of them; several
initial classes; periodic classes; and classes that feed other vertices.
`derandomize=True` keeps the run the same from run to run.  A failure
prints the spec; add it to tests/golden/specs/ when it shows a fault.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmean import PowerMeanSpec, averaging, power_mean_eval
from invmean.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
_spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

ORDERS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
KINDS = {-1.0: "harmonic", 0.0: "geometric", 1.0: "arithmetic", 2.0: "quadratic"}
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
#: step counts of `iterate`: a few, and from just below the compile to past it
STEPS = st.one_of(st.integers(0, 3), st.integers(averaging._COMPILE_AFTER - 1,
                                                 averaging._COMPILE_AFTER + 30))


@st.composite
def circulant_alpha(draw):
    p = draw(st.integers(1, 9))
    offsets = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3, unique=True))
    return [[(i + c) % p + 1 for c in offsets] for i in range(p)]


@st.composite
def chorded_ring_alpha(draw):
    """A ring, with or without loops, with one entry added to a row (a
    chord) or, on the ring with loops, taken from one."""
    p = draw(st.integers(2, 9))
    loops = draw(st.booleans())
    alpha = [([i] if loops else []) + [(i - 2) % p + 1] for i in range(1, p + 1)]
    row = alpha[draw(st.integers(0, p - 1))]
    free = [v for v in range(1, p + 1) if v not in row]
    if loops and (not free or draw(st.booleans())):
        del row[draw(st.integers(0, 1))]
    else:
        row.append(draw(st.sampled_from(free)))
    return alpha


@st.composite
def block_alpha(draw):
    """Initial blocks, each a ring with or without loops, a periodic block
    (groups in a cycle, each vertex reading from the group before it) or
    drawn rows, then vertices fed by the blocks and by each other."""
    p = draw(st.integers(2, 9))
    n_fed = draw(st.integers(0, p - 2))
    sizes = []
    left = p - n_fed
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    alpha = []
    start = 1
    for size in sizes:
        block = list(range(start, start + size))
        kind = draw(st.sampled_from(["ring", "loops", "periodic", "drawn"]))
        for i, v in enumerate(block):
            if kind == "ring":
                row = [block[i - 1]]
            elif kind == "loops":
                row = [v, block[i - 1]]
            elif kind == "periodic":
                d = draw(st.integers(1, size))
                group = [u for j, u in enumerate(block) if j % d == (i - 1) % d]
                row = draw(st.lists(st.sampled_from(group), min_size=1, max_size=3))
            else:
                row = draw(st.lists(st.sampled_from(block), min_size=1, max_size=3))
            alpha.append(row)
        start += size
    for v in range(start, p + 1):
        alpha.append(draw(st.lists(st.integers(1, p), min_size=1, max_size=3)))
    return alpha


@st.composite
def specs(draw, alphas):
    alpha = draw(alphas)
    means = []
    for row in alpha:
        order = draw(st.sampled_from(ORDERS))
        if order in KINDS and draw(st.booleans()):
            means.append({"kind": KINDS[order], "arity": len(row)})
        else:
            means.append({"kind": "power", "order": order, "arity": len(row)})
    return {"p": len(alpha), "interval": {"lower": 0, "upper": None},
            "means": means, "alpha": alpha}


FAMILIES = {
    "circulant": circulant_alpha(),
    "chorded-ring": chorded_ring_alpha(),
    "blocks": block_alpha(),
}


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "spec.json"


def run_cli(path: Path, spec: dict, *argv: str) -> tuple[int, str]:
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], str(path), "--json", *argv[1:]])
    return code, out.getvalue()


def check_analyze(path: Path, spec: dict) -> dict:
    """analyze --json against the numpy shape of the incidence graph; on a
    graph that is not ergodic the certificate is decided by the initial
    classes: contractive with one aperiodic class, else falsified."""
    code, text = run_cli(path, spec, "analyze")
    assert code == 0
    out = json.loads(text)
    shape = checks.graph_shape(spec["alpha"])
    assert [tuple(e) for e in out["edges"]] == checks.incidence_edges(spec["alpha"])
    got = (out["irreducible"], out["period"], out["ergodic"], out["uniform_walk_length"])
    assert got == (shape["irreducible"], shape["period"], shape["ergodic"], shape["q0"])
    assert out["aperiodic"] == (shape["period"] == 1)
    p = spec["p"]
    cert = out["certificate"]
    if shape["ergodic"]:
        want = (checks.CERTIFIED, 3 ** p)
    elif len(shape["initial"]) == 1 and shape["initial_periods"] == [1]:
        want = (averaging.CONTRACTIVE, (p - 1) ** 2 + 1)
    else:
        want = (averaging.FALSIFIED, (p - 1) ** 2 + 1)
    assert (cert["class"], cert["n0"]) == want
    return shape


def check_tg(path: Path, spec: dict, c0: list[int]) -> None:
    """tg --json against the benchmark's simulation, which runs to the first
    constant or repeated coloring: the program's run is the same up to
    step (p-1)^2 + 1, and is never constant after it."""
    code, text = run_cli(path, spec, "tg", "--", ",".join(map(str, c0)))
    assert code == 0
    out = json.loads(text)
    states, first_constant, cycle_start = checks.tg_orbit(spec["alpha"], c0)
    bound = (spec["p"] - 1) ** 2 + 1
    trace = [tuple(c) for c in out["trace"]]
    if first_constant is not None:
        assert first_constant <= bound
        assert trace == states
        assert (out["steps_to_constant"], out["constant_value"]) == (
            first_constant, states[-1][0])
    else:
        assert trace == (states + [states[cycle_start]])[:bound + 1]
        assert out["steps_to_constant"] is None and out["constant_value"] is None


def keeps_its_oscillation(spec: dict, point: list[float], steps: int) -> bool:
    """Whether `steps` mpmath steps of the mapping keep the oscillation of
    the point, up to the relative slack of the 40-digit iteration.  (The
    bench's own re-check computes 1 - MP_SLACK in floats, which is 1.0, so
    one 40-digit rounding in an order -2 mean of one argument fails it.)"""
    with mpmath.workdps(checks.DPS):
        x = [mpmath.mpf(t) for t in point]
        before = max(x) - min(x)
        for _ in range(steps):
            x = checks.mp_apply(spec, x)
        return before > 0 and max(x) - min(x) >= before * (1 - mpmath.mpf(checks.MP_SLACK))


def check_verify(path: Path, spec: dict) -> None:
    """verify --json: the status of each check as the initial classes decide
    it (`checks.expected_verify`), and every witness re-checked by an
    mpmath iteration."""
    code, text = run_cli(path, spec, "verify", "--samples", "4")
    want = checks.expected_verify(spec)
    out = json.loads(text)
    assert {c["name"]: c["status"] for c in out["checks"]} == want
    assert code == (2 if "fail" in want.values() else 0)
    for c in out["checks"]:
        for w in c.get("witnesses", []):
            if c["name"] == "contractivity":
                steps = int(re.search(r"after (\d+) step", c["detail"]).group(1))
                assert keeps_its_oscillation(spec, w["point"], steps), w
            else:
                assert c["name"] == "strict"
                assert checks._recheck_strict_witness(spec, w["point"]) is None, w


def check_iterate(path: Path, spec: dict, x: list[float], n: int, trace: bool) -> None:
    """iterate --json against a loop of one `power_mean_eval` call per row
    and step, bit for bit: every point with --trace, else the first and
    the last, which are one point when n is 0."""
    flags = ["--trace"] if trace else []
    code, text = run_cli(path, spec, "iterate", "-n", str(n), *flags, ",".join(map(repr, x)))
    assert code == 0
    orders = {kind: order for order, kind in KINDS.items()}
    rows = [(PowerMeanSpec(m["order"] if "order" in m else orders[m["kind"]], m["arity"]),
             [a - 1 for a in row]) for m, row in zip(spec["means"], spec["alpha"])]
    points = [tuple(x)]
    for _ in range(n):
        y = points[-1]
        points.append(tuple(power_mean_eval(mean, [y[a] for a in row]) for mean, row in rows))
    shown = points if trace else [points[k] for k in sorted({0, n})]
    want = {"steps": n, "trace": [list(pt) for pt in shown],
            "oscillations": [max(pt) - min(pt) for pt in shown]}
    assert json.loads(text) == want


@pytest.mark.parametrize("family", FAMILIES)
def test_iterate_agrees_with_a_per_step_loop(spec_path, family):
    kernels = set()  # (compiled, traced) of each run

    @settings(SETTINGS, max_examples=50)
    @given(spec=specs(FAMILIES[family]), data=st.data())
    def run(spec, data):
        x = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=spec["p"], max_size=spec["p"]),
                      label="x")
        n, trace = data.draw(STEPS, label="n"), data.draw(st.booleans(), label="trace")
        check_iterate(spec_path, spec, x, n, trace)
        kernels.add((n > averaging._COMPILE_AFTER, trace))

    run()
    # the row functions alone, the compiled kernel alone (one call of n
    # steps) and the hand-over inside a traced run
    assert kernels == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("family", FAMILIES)
def test_graph_commands_agree_with_the_bench_checks(spec_path, family):
    @SETTINGS
    @given(spec=specs(FAMILIES[family]), data=st.data())
    def run(spec, data):
        check_analyze(spec_path, spec)
        c0 = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=spec["p"],
                                max_size=spec["p"]), label="c0")
        check_tg(spec_path, spec, c0)
        check_verify(spec_path, spec)

    run()
