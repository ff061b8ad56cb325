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


def test_every_entry_has_a_run():
    names = sorted(path.stem for path in golden.CORPUS.glob("*.txt"))
    assert names == sorted(name for name, _ in RUNS)


def test_the_runs():
    # six specs, five commands each, in human and --json form; the order-1e17
    # spec is the one whose verify samples the properties of K
    assert golden.specs()[-1] == "tests/golden/specs/example2-order1e17.json"
    assert len(golden.specs()) == 6 and len(RUNS) == 60
    assert dict(RUNS)["example2-order1e17.tg-json"] == [
        "tg", "tests/golden/specs/example2-order1e17.json", "--json", "--", "-1,0,1,1",
    ]


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
    assert capsys.readouterr().out.splitlines() == [
        "no run: stale.analyze",
        "moved: example4.invariant",
        "missing: example5.analyze-json",
        "60 runs, 3 entries moved, missing or without a run",
    ]
    assert golden.main(["--check", "--now"]) == 1  # an unknown argument
