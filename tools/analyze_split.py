"""Time one in-process `invmean analyze --json` call, split into its parts:

    python tools/analyze_split.py [P ...]     (default: 128 256)

The spec is the harmonic/arithmetic ring with loops at each P (row i reads
i and i+1, q0 = P - 1), written to a temporary file.  A call is timed as
`main` runs it, in three parts:

    load            `cli._load_spec`: read, parse and build the mapping
    classification  `cmd_analyze` less the emission: the incidence graph,
                    its classification and the contractivity certificate
    emission        `cli._emit_json`: the JSON text, written to a buffer

and the total, which adds argument parsing.  Each figure is the minimum
over RUNS calls, each on a newly loaded spec, after one call that is not
counted, in CPU time of this process.  Standard library only; the package under src/ is imported.
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

from invmean import cli  # noqa: E402

RUNS = 15


def ring_spec(p: int) -> dict:
    return {
        "p": p,
        "interval": {"lower": 0, "upper": None},
        "means": [{"kind": "harmonic" if i % 2 == 0 else "arithmetic", "arity": 2}
                  for i in range(p)],
        "alpha": [[i + 1, (i + 1) % p + 1] for i in range(p)],
    }


def split(path: str) -> dict[str, float]:
    """The parts of one `analyze --json` call on the spec at path, in ms."""
    emit, emitted = cli._emit_json, []

    def timed_emit(obj):
        start = time.process_time()
        code = emit(obj)
        emitted.append(time.process_time() - start)
        return code

    cli._emit_json = timed_emit
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            args = cli._parse_args(["analyze", path, "--json"])
            parsed = time.process_time()
            mapping = cli._load_spec(args.spec).build()
            built = time.process_time()
            cli.cmd_analyze(args, mapping)
            done = time.process_time()
    finally:
        cli._emit_json = emit
    ms = {
        "load": built - parsed,
        "classification": done - built - emitted[0],
        "emission": emitted[0],
        "total": done - start,
    }
    return {part: 1e3 * t for part, t in ms.items()}


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or [128, 256]
    with tempfile.TemporaryDirectory() as tmp:
        for p in sizes:
            path = Path(tmp) / f"ring{p}.json"
            path.write_text(json.dumps(ring_spec(p)))
            split(str(path))  # a first call that warms the process, not counted
            runs = [split(str(path)) for _ in range(RUNS)]
            best = {part: min(run[part] for run in runs) for part in runs[0]}
            shares = ", ".join(
                f"{part} {best[part]:.2f} ms ({best[part] / best['total']:.0%})"
                for part in ("load", "classification", "emission")
            )
            print(f"p = {p}: total {best['total']:.2f} ms; {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
