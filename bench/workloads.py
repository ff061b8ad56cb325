"""Seeded inputs and operations of the three benchmark workloads.

Every input is drawn from `random.Random("<workload>:<seed>")`, so one
seed gives one set of inputs.  A workload is planned in two steps: `plan_*` draws the inputs
(pure data, no program code involved), and `setup` turns them into
operations that call the program.  Each operation names its output check
in `checks`, which never imports the program and is itself imported only
after the timed phase, so its numpy and mpmath stay out of the measured
process memory.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Strata of the orders of a mixed-order mapping: one order is drawn
#: uniformly from each range, (lo, lo) is a fixed order, and "small" is
#: +-U(2e-3, 9e-3), for the small-|s| path.  Drawing one order per stratum
#: keeps the cost of a mapping alike from seed to seed.
MIXED_STRATA = ((-3.0, -1.0), (-1.0, -0.2), (0.0, 0.0), "small", (0.2, 2.0), (2.0, 5.0))
MIXED_MAPPINGS = 48
#: Orders the generated graph specs draw from: harmonic to quadratic.
GRAPH_ORDERS = (-1.0, 0.0, 1.0, 2.0)
GRAPH_SIZES = (8, 12, 16, 24, 32, 48, 64, 96, 128)
VERIFY_SAMPLES = 4


def load_invmean(fresh: bool = False):
    """Import `invmean` and `invmean.cli` from this checkout's `src`.

    With fresh=True every already imported invmean module is dropped first,
    so the import runs the module code again, as a new process would.
    Raises ImportError when the package is missing or comes from elsewhere.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "invmean" or n.startswith("invmean.")]:
            del sys.modules[name]
    iv = importlib.import_module("invmean")
    cli = importlib.import_module("invmean.cli")
    origin = Path(iv.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"invmean imported from {origin}, not from {SRC}")
    return iv, cli


# ---------------------------------------------------------------------------
# spec dictionaries (the JSON format of the program's spec files)


def _spec(orders, alpha) -> dict:
    return {
        "p": len(alpha),
        "interval": {"lower": 0, "upper": None, "lower_open": True, "upper_open": True},
        "means": [{"kind": "power", "order": float(s), "arity": len(row)}
                  for s, row in zip(orders, alpha)],
        "alpha": [list(row) for row in alpha],
    }


def ring_alpha(p: int, first: int = 1) -> list[list[int]]:
    """Ring with loops on first..first+p-1: row i reads [i, i+1]."""
    return [[first + i, first + (i + 1) % p] for i in range(p)]


def ring_spec(p: int) -> dict:
    """Alternating harmonic/arithmetic ring with loops (ergodic, q0 = p-1)."""
    return _spec([-1.0 if i % 2 == 0 else 1.0 for i in range(p)], ring_alpha(p))


def cycle_alpha(p: int) -> list[list[int]]:
    """Pure directed cycle: coordinate i reads only i+1 (period p)."""
    return [[(i + 1) % p + 1] for i in range(p)]


def two_rings_alpha(p: int) -> list[list[int]]:
    """Two disjoint rings with loops of sizes p//2 and p - p//2 (reducible)."""
    h = p // 2
    return ring_alpha(h) + ring_alpha(p - h, first=h + 1)


def mixed_spec(rng: Random) -> dict:
    """Seeded mixed-order power means on the ring with loops (ergodic), one
    order per stratum in random coordinates.

    Rows stay [i, i+1]: a random third index made the median call move by
    13% from seed to seed (3% without), and on the order-0 row it meets a
    precision loss in the running product (CHANGES.md, FOUND)."""
    orders = []
    for stratum in MIXED_STRATA:
        if stratum == "small":
            orders.append(rng.choice((-1.0, 1.0)) * rng.uniform(2e-3, 9e-3))
        else:
            orders.append(rng.uniform(*stratum))
    rng.shuffle(orders)
    return _spec(orders, ring_alpha(len(orders)))


def fixture_spec(name: str) -> dict:
    return json.loads((SRC / "invmean" / "fixtures" / name).read_text())


# ---------------------------------------------------------------------------
# start points


def start_point(rng: Random, p: int, kind: str) -> tuple[float, ...]:
    """moderate: U(0.5, 4); near-one: 1 +- 0.1 (small-|s| path);
    huge: 10^U(295, 300) (overflow of t**s for s > 1, underflow for s < 0);
    wide: 10^U(-300, 300) (underflow of products and of t**s)."""
    if kind == "moderate":
        return tuple(rng.uniform(0.5, 4.0) for _ in range(p))
    if kind == "near-one":
        return tuple(1.0 + rng.uniform(-0.1, 0.1) for _ in range(p))
    if kind == "huge":
        return tuple(10.0 ** rng.uniform(295.0, 300.0) for _ in range(p))
    if kind == "wide":
        return tuple(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(p))
    raise ValueError(f"unknown start-point kind {kind!r}")


# ---------------------------------------------------------------------------
# plans: named specs plus the operations to run on them


@dataclass
class Plan:
    specs: dict[str, dict]           # generated spec files, written in setup
    ops: list[tuple]                  # workload-specific operation tuples


def plan_solve(seed: int) -> Plan:
    rng = Random(f"solve:{seed}")
    specs = {f"ring{p}": ring_spec(p) for p in (4, 8, 16, 32)}
    specs["example2"] = fixture_spec("example2.json")
    for k in range(MIXED_MAPPINGS):
        specs[f"mixed{k}"] = mixed_spec(rng)
    kinds = {
        "ring4": ("moderate", "huge", "wide"),
        "ring8": ("moderate", "huge", "wide"),
        "ring16": ("moderate", "huge"),
        "ring32": ("moderate",),
        "example2": ("moderate", "near-one", "huge", "wide"),
    }
    mixed_kinds = ("moderate", "near-one", "huge", "wide")
    for k in range(MIXED_MAPPINGS):
        kinds[f"mixed{k}"] = (mixed_kinds[k % 4],)
    ops = [
        (name, kind, start_point(rng, specs[name]["p"], kind))
        for name, spec_kinds in kinds.items()
        for kind in spec_kinds
    ]
    return Plan(specs, ops)


VERIFY_SPECS = ("ring6", "ring8", "example2", "example3", "example4", "example6")


def plan_verify(seed: int) -> Plan:
    rng = Random(f"verify:{seed}")
    specs = {"ring6": ring_spec(6), "ring8": ring_spec(8)}
    for name in VERIFY_SPECS[2:]:
        specs[name] = fixture_spec(f"{name}.json")
    # two suite seeds per spec: the cost of a suite moves with its samples
    ops = [(name, rng.randrange(2**31)) for _ in range(2) for name in VERIFY_SPECS]
    return Plan(specs, ops)


def _graph_orders(rng: Random, p: int) -> list[float]:
    return [rng.choice(GRAPH_ORDERS) for _ in range(p)]


def _ring_coloring(rng: Random, p: int, rings: list[range]) -> list[int]:
    """Random coloring with one 0 per ring, so every ring (and the graph)
    reaches the constant 0 coloring within its own size in steps."""
    c = [rng.choice((-1, 0, 1)) for _ in range(p)]
    for ring in rings:
        c[rng.choice(ring)] = 0
    return c


def plan_graph(seed: int) -> Plan:
    rng = Random(f"graph:{seed}")
    specs: dict[str, dict] = {}
    ops: list[tuple] = []
    for p in GRAPH_SIZES:
        specs[f"ring{p}"] = _spec(_graph_orders(rng, p), ring_alpha(p))
        specs[f"cycle{p}"] = _spec(_graph_orders(rng, p), cycle_alpha(p))
        specs[f"tworings{p}"] = _spec(_graph_orders(rng, p), two_rings_alpha(p))
    specs["cycle10"] = _spec(_graph_orders(rng, 10), cycle_alpha(10))
    for name in specs:
        ops.append(("analyze", name, None))
    for p in GRAPH_SIZES:
        h = p // 2
        ops.append(("tg", f"ring{p}", _ring_coloring(rng, p, [range(p)])))
        ops.append(("tg", f"tworings{p}",
                    _ring_coloring(rng, p, [range(h), range(h, p)])))
    for p in (8, 10):
        # nonconstant on purpose: on a cycle it then rotates forever
        c = [rng.choice((-1, 0, 1)) for _ in range(p)]
        c[0], c[1] = 1, -1
        ops.append(("tg", f"cycle{p}", c))
    return Plan(specs, ops)


PLANNERS = {"solve": plan_solve, "verify": plan_verify, "graph": plan_graph}


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One timed operation: `run` calls the program and returns a tuple;
    `checks.<check>(*check_args, *output)` judges it and returns None when
    it is correct, else the reason."""

    label: str
    run: Callable[[], tuple]
    check: str
    check_args: tuple


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """`invmean.cli.main(argv)` in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write_specs(plan: Plan, spec_dir: Path) -> dict[str, str]:
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in plan.specs.items():
        path = spec_dir / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths[name] = str(path)
    return paths


def setup(workload: str, plan: Plan, spec_dir: Path, fresh: bool) -> list[Op]:
    """Everything a new process does before its first operation: import the
    program, write the generated specs and, for `solve`, load and build them."""
    iv, cli = load_invmean(fresh)
    paths = write_specs(plan, spec_dir)
    if workload == "solve":
        mappings = {name: iv.load_mapping_spec(path).build() for name, path in paths.items()}
        return [_solve_op(iv, mappings[name], plan.specs[name], name, kind, x)
                for name, kind, x in plan.ops]
    if workload == "verify":
        return [_verify_op(cli, paths[name], plan.specs[name], name, seed)
                for name, seed in plan.ops]
    return [_graph_op(cli, paths[name], plan.specs[name], cmd, name, c0)
            for cmd, name, c0 in plan.ops]


def _solve_op(iv, mapping, spec, name, kind, x) -> Op:
    invariant = iv.invariant  # looked up per call, so a traced run sees wrappers

    def run():
        r = invariant.invariant_mean_eval(mapping, x)
        return (r.value, r.error_radius, r.iterations_used, r.converged)

    return Op(f"solve {name} {kind}", run, "check_solve", (spec, x))


def _verify_op(cli, path, spec, name, seed) -> Op:
    argv = ["verify", path, "--samples", str(VERIFY_SAMPLES), "--seed", str(seed), "--json"]
    return Op(f"verify {name}", lambda: call_cli(cli, argv), "check_verify", (spec,))


def _graph_op(cli, path, spec, cmd, name, c0) -> Op:
    if cmd == "analyze":
        argv = ["analyze", path, "--json"]
        return Op(f"analyze {name}", lambda: call_cli(cli, argv), "check_analyze", (spec, name))
    # "--" keeps a coloring that starts with -1 from being read as an option
    argv = ["tg", path, "--json", "--", ",".join(map(str, c0))]
    return Op(f"tg {name}", lambda: call_cli(cli, argv), "check_tg", (spec, c0))
