"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper at every name
callers look it up by: the attribute of every invmean module that holds it
(the defining module, `invmean.cli` and any other importer), or the class
attribute for methods.  Each call records a span (name, start, end,
parent) in flat arrays; spans stay in memory until `save` writes them.
A few counts are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, attribute) of each traced function; "Class.method" for methods.
TRACED = (
    ("specfile", "load_mapping_spec"),
    ("specfile", "MappingSpec.build"),
    ("means", "power_mean_eval"),
    ("means", "validate_mean"),
    ("means", "check_mean_property"),
    ("averaging", "ComposedMapping.apply"),
    ("averaging", "falsify_contractivity"),
    ("invariant", "invariant_mean_eval"),
    ("invariant", "verify_invariance"),
    ("invariant", "verify_mean_properties"),
    ("invariant", "check_oscillation_monotonicity"),
    ("invariant", "check_bracket_dichotomy"),
    ("digraph", "is_ergodic"),
    ("digraph", "tg_stabilize"),
    ("digraph", "tg_step"),
    ("cli", "main"),
)
OP = "bench.op"


class Tracer:
    def __init__(self) -> None:
        # span names drop the class: "averaging.apply", "specfile.build"
        self.names: list[str] = [OP] + [f"{m}.{a.split('.')[-1]}" for m, a in TRACED]
        self.name_ids = array("B")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: list[int] = []
        self.counts = {"apply_coords": 0, "iterations": 0, "unconverged_iterations": 0}

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def op(self, fn):
        """Run one benchmark operation inside a root span."""
        idx = self._open(0)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self._close(idx, t0, time.perf_counter_ns())

    def _wrap(self, fn, name_id: int, name: str):
        clock = time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if name == "averaging.apply":
                counts["apply_coords"] += len(args[1])
            elif name == "invariant.invariant_mean_eval":
                counts["iterations"] += result.iterations_used
                if not result.converged:
                    counts["unconverged_iterations"] += result.iterations_used
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each name it is looked up by."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "invmean" or key.startswith("invmean.")]
        for name_id, (module, attr) in enumerate(TRACED, start=1):
            name = self.names[name_id]
            home = sys.modules[f"invmean.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name_id, name))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name_id, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.uint8),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns (inclusive minus
        the durations of its direct children)."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n)
        self_ns = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        return {name: {"calls": float(calls[i]), "ns": float(incl[i]), "self_ns": float(self_ns[i])}
                for i, name in enumerate(self.names)}


def layer_metrics(tracer: Tracer, n_ops: int, scale: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per operation (or per call); span times
    are multiplied by `scale`, the run's calibration factor."""
    t = {name: {"calls": v["calls"], "ns": v["ns"] * scale, "self_ns": v["self_ns"] * scale}
         for name, v in tracer.totals().items()}
    c = tracer.counts

    def per_op(x: float) -> float:
        return x / n_ops

    def ms(name: str) -> tuple[float, str]:
        return per_op(t[name]["ns"]) / 1e6, "ms"

    pme = t["means.power_mean_eval"]
    apply = t["averaging.apply"]
    ime = t["invariant.invariant_mean_eval"]
    return {
        "means.power_mean_eval.calls": (per_op(pme["calls"]), "count"),
        "means.power_mean_eval.ns_per_call": (pme["ns"] / pme["calls"] if pme["calls"] else 0.0, "ns"),
        "averaging.apply.calls": (per_op(apply["calls"]), "count"),
        "averaging.apply.self_ns_per_coord": (
            apply["self_ns"] / c["apply_coords"] if c["apply_coords"] else 0.0, "ns"),
        "invariant.invariant_mean_eval.calls": (per_op(ime["calls"]), "count"),
        "invariant.invariant_mean_eval.iterations": (per_op(c["iterations"]), "count"),
        "invariant.invariant_mean_eval.self_ms": (per_op(ime["self_ns"]) / 1e6, "ms"),
        "invariant.invariant_mean_eval.unconverged_iterations": (
            per_op(c["unconverged_iterations"]), "count"),
        "invariant.check_bracket_dichotomy.ms": ms("invariant.check_bracket_dichotomy"),
        "averaging.falsify_contractivity.ms": ms("averaging.falsify_contractivity"),
        "invariant.verify_invariance.ms": ms("invariant.verify_invariance"),
        "invariant.verify_mean_properties.ms": ms("invariant.verify_mean_properties"),
        "invariant.check_oscillation_monotonicity.ms": ms("invariant.check_oscillation_monotonicity"),
        "means.check_mean_property.ms": ms("means.check_mean_property"),
        "specfile.load_mapping_spec.ms": ms("specfile.load_mapping_spec"),
        "specfile.build.ms": ms("specfile.build"),
        "means.validate_mean.ms": ms("means.validate_mean"),
        "digraph.is_ergodic.ms": ms("digraph.is_ergodic"),
        "digraph.tg_stabilize.ms": ms("digraph.tg_stabilize"),
        "digraph.tg_step.calls": (per_op(t["digraph.tg_step"]["calls"]), "count"),
        "cli.main.self_ms": (per_op(t["cli.main"]["self_ns"]) / 1e6, "ms"),
    }
