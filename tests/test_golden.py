"""Every golden run of tools/golden.py prints today what tests/golden/ holds,
byte for byte: each test id names its entry."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

RUNS = golden.runs()


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(golden.ROOT)


@pytest.mark.parametrize("name, argv", RUNS, ids=[name for name, _ in RUNS])
def test_run_matches_its_entry(at_root, name, argv):
    want = (golden.CORPUS / f"{name}.txt").read_bytes().decode()
    got = golden.entry_text(argv, *golden.run(argv))
    assert got == want, f"golden entry {name} moved"


def test_every_run_gets_past_the_argument_parser():
    # argparse's usage errors print "usage:" on stderr
    for name, _ in RUNS:
        assert "\nusage: " not in (golden.CORPUS / f"{name}.txt").read_text(), name


def test_every_entry_has_a_run():
    names = sorted(path.stem for path in golden.CORPUS.glob("*.txt"))
    assert names == sorted(name for name, _ in RUNS)


def test_the_runs():
    # eleven specs, five commands each, in human and --json form; the
    # order-1e17 spec is the one whose verify samples the properties of K,
    # and wielandt16's invariant run the one that ends at max_iter
    assert [Path(spec).stem for spec in golden.specs()[5:]] == [
        "cycle8", "example2-order1e17", "fed5", "ring32", "tworings10", "wielandt16",
    ]
    assert len(golden.specs()) == 11 and len(RUNS) == 110
    assert dict(RUNS)["example2-order1e17.tg-json"] == [
        "tg", "tests/golden/specs/example2-order1e17.json", "--json", "--", "-1,0,1,1",
    ]
    assert dict(RUNS)["ring32.iterate-json"][:6] == [
        "iterate", "-n", "50", "--trace", "tests/golden/specs/ring32.json", "--json",
    ]
    # the point and the coloring repeat to the spec's p
    assert dict(RUNS)["fed5.invariant"][-1] == "1e-3,4,9e5,16,1e-3"
    assert dict(RUNS)["ring32.tg"][-1] == ",".join(["-1,0,1,1"] * 8)


def test_check_names_the_entry_that_moved(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "golden"
    corpus.mkdir()
    for path in golden.CORPUS.glob("*.txt"):
        (corpus / path.name).write_bytes(path.read_bytes())
    (corpus / "example4.invariant.txt").write_bytes(
        (corpus / "example4.invariant.txt").read_bytes().replace(b"exit: ", b"exit:  ")
    )
    (corpus / "example5.analyze-json.txt").unlink()
    (corpus / "stale.analyze.txt").write_text("")
    real_specs = golden.specs()  # the spec files stay where they are
    monkeypatch.setattr(golden, "specs", lambda: real_specs)
    monkeypatch.setattr(golden, "CORPUS", corpus)
    monkeypatch.chdir(tmp_path)  # main changes to the root; this restores the cwd
    assert golden.main(["--check"]) == 1
    argv = dict(RUNS)["example4.invariant"]
    stdout = f"stdout: {len(golden.run(argv)[1].encode())} bytes"
    assert capsys.readouterr().out.splitlines() == [
        "no run: stale.analyze",
        "moved: example4.invariant",
        "--- example4.invariant.txt (held)",
        "+++ example4.invariant.txt (this run)",
        "@@ -1,5 +1,5 @@",
        f" argv: invmean {' '.join(argv)}",
        "-exit:  0",
        "+exit: 0",
        f" {stdout}",
        " value: 29.9812572725",
        " error_radius: 1.82031349993e-08",
        "missing: example5.analyze-json",
        "110 runs, 3 entries moved, missing or without a run",
    ]
    assert golden.main(["--check", "--now"]) == 1  # an unknown argument


def test_check_shows_at_most_20_lines_of_diff():
    held = "".join(f"line {k}\n" for k in range(40)).encode() + b"\xff"
    lines = golden.moved_lines("x.analyze", held, "other\n")
    assert len(lines) == golden.DIFF_LINES == 20
    assert lines[:4] == [
        "--- x.analyze.txt (held)", "+++ x.analyze.txt (this run)", "@@ -1,41 +1,2 @@", "-line 0",
    ]
    # bytes that are not UTF-8 show as escapes
    assert golden.moved_lines("x", b"a\xff", "a")[-2:] == ["-a\\xff", "+a"]
