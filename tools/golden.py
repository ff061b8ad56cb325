"""Write or check the golden corpus of command-line runs:

    python tools/golden.py            rewrite tests/golden/
    python tools/golden.py --check    compare, write nothing, exit 1 on a change

The corpus holds one entry per run of the `invmean` command line, a file
<spec>.<command>.txt (<command>-json.txt for the --json form) with the
run's argv, exit code, stdout and stderr, as `entry_text` renders them.
Each spec gets five commands, in human and --json form:

    analyze
    verify --samples 20 --seed 7
    iterate -n 50 --trace SPEC 1e-3,4,9e5,16
    invariant SPEC 1e-3,4,9e5,16
    tg SPEC -- -1,0,1,1

where the point and the coloring repeat to the spec's p (1e-3,4,9e5,16,1e-3
at p = 5).  The specs are the bundled fixtures and the files in
tests/golden/specs/:

    example2-order1e17  example2 with mean 4 of order 1e17, which rounds to
                        max(x), so that `verify` samples the properties of K
                        instead of stating them as proved
    ring32              a ring with loops at p = 32 (ergodic, q0 = 31)
    tworings10          two disjoint rings with loops of 5 (two initial classes)
    cycle8              a pure cycle of p = 8 means of arity 1 (period 8)
    fed5                two initial classes {1, 2} and {3, 4} that both feed
                        vertex 5
    wielandt16          the 16-cycle with the chord 16 -> 2, read by one
                        geometric mean of arity 2 and arithmetic means of
                        arity 1 (ergodic, q0 = 15^2 + 1 = 226, Wielandt's
                        bound); its invariant run ends at max_iter after
                        10 000 steps

Each run is made in this process through `invmean.cli.main`, from the
root of the repository, on the package under src/, which is put first on
sys.path: under `python -S` nothing outside the standard library is
imported.  --check prints the name of every entry that moved, is missing
or has no run, and after each one that moved the first 20 lines of a
unified diff from the entry to the run.  Regenerating the corpus changes
a check: say which entries moved, and why.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import itertools
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from invmean import FIXTURES, cli  # noqa: E402

START = "1e-3,4,9e5,16"
COLORING = "-1,0,1,1"
#: How many lines of a unified diff --check prints after each entry that moved.
DIFF_LINES = 20


def specs() -> list[str]:
    """The spec paths of the runs, relative to the root of the repository."""
    return [f"src/invmean/fixtures/{name}" for name in FIXTURES] + sorted(
        path.relative_to(ROOT).as_posix() for path in (CORPUS / "specs").glob("*.json")
    )


def repeat(values: str, p: int) -> str:
    """The comma-separated values, repeated and cut to p items."""
    items = values.split(",")
    return ",".join(items[i % len(items)] for i in range(p))


def runs() -> list[tuple[str, list[str]]]:
    """(entry name, argv) of every run, in corpus order."""
    out = []
    for spec in specs():
        stem = Path(spec).stem
        p = json.loads((ROOT / spec).read_bytes())["p"]
        start, coloring = repeat(START, p), repeat(COLORING, p)
        commands = {
            "analyze": ["analyze", spec],
            "verify": ["verify", "--samples", "20", "--seed", "7", spec],
            "iterate": ["iterate", "-n", "50", "--trace", spec, start],
            "invariant": ["invariant", spec, start],
            "tg": ["tg", spec, "--", coloring],
        }
        for command, argv in commands.items():
            out.append((f"{stem}.{command}", argv))
            # --json right after the spec: not between an option and its
            # value, nor after "--", where it would be read as a positional
            at = argv.index(spec) + 1
            out.append((f"{stem}.{command}-json", [*argv[:at], "--json", *argv[at:]]))
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `invmean argv`, run in this process
    from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def entry_text(argv: list[str], code: int, out: str, err: str) -> str:
    """The corpus entry of one run; the byte counts keep where stdout ends
    and stderr begins unambiguous."""
    return (
        f"argv: {shlex.join(['invmean', *argv])}\nexit: {code}\n"
        f"stdout: {len(out.encode())} bytes\n{out}"
        f"stderr: {len(err.encode())} bytes\n{err}"
    )


def moved_lines(name: str, held: bytes, text: str) -> list[str]:
    """The first DIFF_LINES lines of a unified diff from the held entry to
    this run's, so that a check that fails elsewhere shows what moved; bytes
    that are not UTF-8 show as backslash escapes."""
    diff = difflib.unified_diff(
        held.decode(errors="backslashreplace").split("\n"), text.split("\n"),
        f"{name}.txt (held)", f"{name}.txt (this run)", lineterm="",
    )
    return list(itertools.islice(diff, DIFF_LINES))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 1
    check = bool(argv)
    os.chdir(ROOT)
    entries = {name: entry_text(args, *run(args)) for name, args in runs()}
    present = {path.stem: path for path in CORPUS.glob("*.txt")}
    if check:
        problems = [f"no run: {name}" for name in sorted(present.keys() - entries.keys())]
        for line in problems:
            print(line)
        for name, text in entries.items():
            if name not in present:
                problems.append(f"missing: {name}")
                print(problems[-1])
            elif (held := present[name].read_bytes()) != text.encode():
                problems.append(f"moved: {name}")
                print(problems[-1])
                for line in moved_lines(name, held, text):
                    print(line)
        print(f"{len(entries)} runs, {len(problems)} entries moved, missing or without a run")
        return 1 if problems else 0
    for name in present.keys() - entries.keys():
        present[name].unlink()
    for name, text in entries.items():
        (CORPUS / f"{name}.txt").write_text(text, encoding="utf-8", newline="")
    print(f"wrote {len(entries)} entries to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
