"""Run one workload of the invmean benchmark and print its metrics.

    python3 bench/run.py --workload solve|verify|graph --seed N --seconds S --trace 0|1

The load is a closed loop in this one process and thread: operations run
back to back, in whole rounds of the same operations, until `--seconds`
of wall time have passed at the end of a round.  Every output is checked
after the timed phase by `checks`, which is independent of the program.

Times are CPU seconds of this process, normalised by a fixed calibration
loop that runs every CAL_EVERY seconds between operations: a call's time
is scaled by CAL_REF over the time of the calibration runs around it.  On a machine whose cores are shared, the speed of identical Python
code drifts by up to 2x within seconds; the ratio to the calibration loop
cancels that drift (README.md has the figures).

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics.  With `--trace 1` the public functions of each layer
are wrapped (tracing.py), the spans are written to
bench/out/trace-<workload>.npz and the result holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import workloads

OUT = workloads.BENCH_DIR / "out"
#: Set-up runs per process; setup_s is their median.
SETUP_REPEATS = 7
#: Wall seconds between two calibration runs.
CAL_EVERY = 0.05
#: CPU seconds the calibration loop takes on the reference machine
#: (README.md), so normalised times read as seconds there.
CAL_REF = 1.1e-3


def calibration_loop() -> list[float]:
    """Fixed work of about a millisecond, of the same kind as the program's
    inner loop: a ring of quadratic and harmonic means in plain floats."""
    x = [1.0 + 0.25 * i for i in range(8)]
    for _ in range(300):
        x = [max(min((0.5 * (x[i] ** 2 + x[i - 1] ** 2)) ** 0.5, x[i]), x[i - 1]) if i % 2
             else 2.0 / (1.0 / x[i] + 1.0 / x[i - 1]) for i in range(8)]
    return x


class Calibration:
    """CPU times of calibration runs, taken at most every CAL_EVERY seconds
    of wall time.  `scale(k)` converts a time measured between runs k and
    k+1 into reference seconds.  It takes the median of the three runs
    before and of the three after, since one run alone is off by up to a
    tenth, and averages the two, since the speed can change within a long
    call."""

    def __init__(self) -> None:
        self.runs: list[float] = []
        self._last = -math.inf

    def measure(self) -> int:
        t0 = time.process_time()
        calibration_loop()
        self.runs.append(time.process_time() - t0)
        self._last = time.perf_counter()
        return len(self.runs) - 1

    def due(self) -> int:
        """Index of the latest run, after taking one when it is due."""
        if time.perf_counter() - self._last >= CAL_EVERY:
            return self.measure()
        return len(self.runs) - 1

    def scale(self, k: int) -> float:
        before = statistics.median(self.runs[max(0, k - 2):k + 1])
        after = statistics.median(self.runs[k + 1:k + 4])
        return 2.0 * CAL_REF / (before + after)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(ops, seconds: float, tracer, cal: Calibration):
    """Whole rounds of `ops` until `seconds` of wall time have passed.
    Returns the normalised time of each call, the distinct outputs of each
    op with how many calls gave each, and the exceptions raised."""
    raw: list[tuple[float, int]] = []
    outputs: list[list] = [[] for _ in ops]
    counts: list[list[int]] = [[] for _ in ops]
    raised: list[tuple[int, str]] = []
    clock = time.process_time
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            k = cal.due()
            t0 = clock()
            try:
                out = tracer.op(op.run) if tracer else op.run()
            except Exception as exc:  # an operation that raises counts as failed
                raw.append((clock() - t0, k))
                raised.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            raw.append((clock() - t0, k))
            try:
                counts[i][outputs[i].index(out)] += 1
            except ValueError:
                outputs[i].append(out)
                counts[i].append(1)
    for _ in range(3):
        cal.measure()
    times = [dt * cal.scale(k) for dt, k in raw]
    return times, outputs, counts, raised


def count_failures(ops, outputs, counts, raised) -> tuple[int, list[str]]:
    """Failed calls: those that raised, plus those whose output the
    independent check rejects (each distinct output is checked once)."""
    import checks  # after the timed phase: numpy and mpmath stay out of it

    failed = len(raised)
    reasons = [f"{ops[i].label}: raised {msg}" for i, msg in raised]
    for op, outs, ns in zip(ops, outputs, counts):
        for out, n in zip(outs, ns):
            bad = getattr(checks, op.check)(*op.check_args, *out)
            if bad:
                failed += n
                reasons.append(f"{op.label}: {bad}")
    return failed, reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        plan = workloads.PLANNERS[args.workload](args.seed)
    except OSError as exc:
        print(f"error: cannot read the program's fixtures: {exc}", file=sys.stderr)
        return 1
    spec_dir = OUT / f"specs-{args.workload}-{os.getpid()}"
    cal = Calibration()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # garbage of the previous import must not land on this one
            for _ in range(3):
                k = cal.measure()
            t0 = time.process_time()
            ops = workloads.setup(args.workload, plan, spec_dir, fresh=True)
            dt = time.process_time() - t0
            for _ in range(3):
                cal.measure()
            setup_times.append(dt * cal.scale(k))
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        times, outputs, counts, raised = run_rounds(ops, args.seconds, tracer, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except ImportError as exc:
        print(f"error: cannot import invmean from {workloads.SRC}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    attempted = len(times)
    failed, reasons = count_failures(ops, outputs, counts, raised)
    for reason in reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)

    # every round runs the same calls: throughput of the median round, so
    # that one call timed across a change of machine speed moves it little
    n = len(ops)
    ops_per_s = n / math.fsum(statistics.median(times[i::n]) for i in range(n))
    op_ms_median = statistics.median(times) * 1e3
    if tracer:
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracing.layer_metrics(
                       tracer, attempted, CAL_REF / statistics.median(cal.runs)).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms_median": {"value": op_ms_median, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops in "
          f"{attempted // len(ops)} rounds, {ops_per_s:.3f} ops/s, "
          f"median {op_ms_median:.3f} ms, calibration median "
          f"{statistics.median(cal.runs) * 1e3:.3f} ms")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
