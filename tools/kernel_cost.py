"""Time the two kernels of a composed mapping, as the README's table:

    python tools/kernel_cost.py [P ...]     (default: 4 8 32 256 1024)

prints one Markdown table row per mapping:

    ring, p = P   rows of the harmonic, geometric, arithmetic and quadratic
                  means in turn, row i reading (i, i+1), from
                  x = (1, 1.25, 1.5, ...), one row per P
    example4      the fixture, four rows of three arguments, from (1, 4, 9, 16)
    example2      the fixture from (1e300, 3e299, 7e296, 2e298), where its
                  geometric row lies outside 2^+-509

and these columns:

    compile per row   `averaging._compile_steps`: generate, compile and bind
                      the straight-line kernel, over the rows
    one step          one long call of that kernel (STEP_WORK / P steps, at
                      least 20), over its steps
    one step, row     one call of `ComposedMapping._steps` on the row
    functions         functions (`_rows`) of a new copy of the mapping, of
                      as many steps but at most `averaging._COMPILE_AFTER`,
                      so before its compile, over its steps
    break-even        the steps after which the compile has paid for itself:
                      the compile over the row-function step less the
                      compiled one
    per step in       one `invariant_mean_eval` from the start point, to
    invariant_mean_eval  convergence or to max_iter=2000, over the steps it
                      reports, stop tests included, once the mapping has
                      compiled its kernel

Each figure is the lowest of RUNS runs, each run the median of TIMINGS
timings (TIMINGS_HUGE from P = 1024 on), in CPU time of this process.
Standard library only; the package under src/ is imported.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import invmean as iv  # noqa: E402
from invmean import averaging  # noqa: E402

RUNS = 4
TIMINGS = 30
TIMINGS_HUGE = 10
#: about this many row evaluations per timing of "one step"
STEP_WORK = 64_000
MAX_ITER = 2000
HEADER = (
    "| mapping | compile per row | one step | one step, row functions | break-even "
    "| per step in `invariant_mean_eval` |\n"
    "|---|---|---|---|---|---|"
)
RING_ORDERS = (-1.0, 0.0, 1.0, 2.0)


def ring(p: int) -> tuple[iv.ComposedMapping, tuple[float, ...]]:
    specs = [iv.PowerMeanSpec(RING_ORDERS[i % 4], 2) for i in range(p)]
    m = iv.ComposedMapping(
        tuple(iv.make_power_mean(spec) for spec in specs),
        iv.POSITIVE_REALS,
        iv.IndexVector([(i + 1, (i + 1) % p + 1) for i in range(p)]),
    )
    return m, tuple(1.0 + 0.25 * i for i in range(p))


def fixture(name: str) -> iv.ComposedMapping:
    return iv.load_mapping_spec(iv.fixture_path(name)).build()


def best(timing, timings: int) -> float:
    """The lowest of RUNS medians of `timings` calls of timing()."""
    return min(statistics.median(timing() for _ in range(timings)) for _ in range(RUNS))


def clock(call) -> float:
    start = time.process_time()
    call()
    return time.process_time() - start


def costs(m: iv.ComposedMapping, x: tuple[float, ...]) -> tuple[float, float, float, float]:
    """(compile per row, one step, one step on the row functions, per step
    in `invariant_mean_eval`) of m from x, in seconds."""
    timings = TIMINGS_HUGE if m.p >= 1024 else TIMINGS
    compile_row = best(lambda: clock(lambda: averaging._compile_steps(m)), timings) / m.p
    n = max(20, STEP_WORK // m.p)
    kernel = averaging._compile_steps(m)
    step = best(lambda: clock(lambda: kernel(x, n)), timings) / n
    n_rows = min(n, averaging._COMPILE_AFTER)

    def row_functions() -> float:
        # a new copy per timing, so that none compiles, with its rows built
        # before the clock starts
        copy = iv.ComposedMapping(m.means, m.interval, m.alpha)
        copy._rows
        return clock(lambda: copy._steps(x, n_rows))

    row_step = best(row_functions, timings) / n_rows
    m.nth_iterate(x, averaging._COMPILE_AFTER + 1)  # compiles the kernel, not counted
    steps = iv.invariant_mean_eval(m, x, max_iter=MAX_ITER).iterations_used
    run = best(lambda: clock(lambda: iv.invariant_mean_eval(m, x, max_iter=MAX_ITER)), timings)
    return compile_row, step, row_step, run / steps


def row(name: str, m: iv.ComposedMapping, x: tuple[float, ...]) -> str:
    compile_row, step, row_step, run_step = costs(m, x)
    break_even = f"{compile_row * m.p / (row_step - step):.0f} steps" if row_step > step else "none"
    return (f"| {name} | {compile_row * 1e3:.3f} ms | {_us(step)} | {_us(row_step)} "
            f"| {break_even} | {_us(run_step)} |")


def _us(seconds: float) -> str:
    # two significant figures below 10 us, whole microseconds above
    us = seconds * 1e6
    return f"{us:.{2 if us < 1 else 1 if us < 10 else 0}f} µs"


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or [4, 8, 32, 256, 1024]
    print(HEADER)
    for p in sizes:
        print(row(f"ring, p = {p}", *ring(p)), flush=True)
    print(row("`example4`", fixture("example4.json"), (1.0, 4.0, 9.0, 16.0)))
    print(row("`example2`, huge start", fixture("example2.json"), (1e300, 3e299, 7e296, 2e298)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
