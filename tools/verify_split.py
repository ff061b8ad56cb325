"""Time one in-process `invmean verify SPEC --samples 4 --json` call, split
into its parts:

    python tools/verify_split.py [P ...]     (default: 6 8)

The spec is the harmonic/arithmetic ring with loops at each P (row i reads
i and i+1; `analyze_split.ring_spec`), the ring of the bench's `verify`
workload, written to a temporary file.  A call is timed as `main` runs
it, in these parts:

    load            `cli._load_spec`: read, parse and build the mapping
    contractivity   `ComposedMapping._contractivity`: the one contractivity
                    decision, with the graph's classification and q0
    mean-property   `check_mean_property`, once per distinct mean of the spec
    kernel          `ComposedMapping._steps`: the mapping's steps, and the
                    compile of its straight-line kernel when they pass
                    `averaging._COMPILE_AFTER` (no call here takes that many)
    dichotomy       `check_bracket_dichotomy`
    emission        `cli._emit_json`: the JSON text, written to a buffer

and the total, which adds argument parsing and the entries that `verify`
states as proved.  The decision is taken before `cmd_verify`, which
then reads it from the mapping.  A part's time leaves out the parts it
calls: the steps inside the dichotomy count as kernel time only.  Each
figure is the
minimum over RUNS calls, each on a newly loaded spec, after one call that
is not counted, in CPU time of this process.  Standard library only; the
package under src/ is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from analyze_split import ring_spec  # noqa: E402
from invmean import averaging, cli  # noqa: E402

RUNS = 15
PARTS = ("load", "contractivity", "mean-property", "kernel", "dichotomy", "emission")
# the parts that cmd_verify calls, by the name it looks them up by in cli
CALLED = {
    "mean-property": "check_mean_property",
    "dichotomy": "check_bracket_dichotomy",
    "emission": "_emit_json",
}


def split(path: str) -> dict[str, float]:
    """The parts of one `verify --samples 4 --json` call on the spec at
    path, in ms."""
    spent = dict.fromkeys(PARTS, 0.0)
    originals = {part: getattr(cli, name) for part, name in CALLED.items()}
    steps = averaging.ComposedMapping._steps
    inner = [0.0]  # the time of the timed calls inside the one running

    def timed(part, fn):
        def wrapper(*args, **kwargs):
            outer, inner[0] = inner[0], 0.0
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                t = time.process_time() - start
                spent[part] += t - inner[0]
                inner[0] = outer + t
        return wrapper

    for part, name in CALLED.items():
        setattr(cli, name, timed(part, originals[part]))
    averaging.ComposedMapping._steps = timed("kernel", steps)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            args = cli.build_parser().parse_args(["verify", path, "--samples", "4", "--json"])
            parsed = time.process_time()
            mapping = cli._load_spec(args.spec).build()
            built = time.process_time()
            mapping._contractivity
            decided = time.process_time()
            cli.cmd_verify(args, mapping)
            done = time.process_time()
    finally:
        for part, name in CALLED.items():
            setattr(cli, name, originals[part])
        averaging.ComposedMapping._steps = steps
    spent.update(load=built - parsed, contractivity=decided - built)
    spent["total"] = done - start
    return {part: 1e3 * t for part, t in spent.items()}


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or [6, 8]
    with tempfile.TemporaryDirectory() as tmp:
        for p in sizes:
            path = Path(tmp) / f"ring{p}.json"
            path.write_text(json.dumps(ring_spec(p)))
            split(str(path))  # a first call that warms the process, not counted
            runs = [split(str(path)) for _ in range(RUNS)]
            best = {part: min(run[part] for run in runs) for part in runs[0]}
            shares = ", ".join(
                f"{part} {best[part]:.2f} ms ({best[part] / best['total']:.0%})" for part in PARTS
            )
            print(f"p = {p}: total {best['total']:.2f} ms; {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
