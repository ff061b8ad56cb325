"""tools/verify_split.py times the parts of one `verify --json` call."""

import importlib.util
import json
import re
from pathlib import Path

from invmean import CERTIFIED, cli, load_mapping_spec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify_split.py"
spec = importlib.util.spec_from_file_location("verify_split", TOOL)
verify_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verify_split)


def test_the_ring_is_certified(tmp_path):
    # so verify samples the dichotomy, the part it times, and states invariance
    path = tmp_path / "ring6.json"
    path.write_text(json.dumps(verify_split.ring_spec(6)))
    assert load_mapping_spec(path).build()._contractivity.status == CERTIFIED


def test_the_timed_call_is_verify(tmp_path, monkeypatch):
    # the split runs the command that main runs: the same report is emitted
    path = tmp_path / "ring6.json"
    path.write_text(json.dumps(verify_split.ring_spec(6)))
    emitted = []
    monkeypatch.setattr(cli, "_emit_json", lambda obj: emitted.append(obj) or 0)
    parts = verify_split.split(str(path))
    assert cli.main(["verify", str(path), "--samples", "4", "--json"]) == 0
    assert emitted[0] == emitted[1]
    assert [c["name"] for c in emitted[0]["checks"]][2:5] == [
        "certificate", "invariance", "bracket-dichotomy"]
    # invariance is stated, not timed: no part samples it
    assert emitted[0]["checks"][3]["detail"].startswith("proved: ")
    # each part is timed, and together they take no more than the whole
    assert set(parts) == set(verify_split.PARTS) | {"total"}
    assert sum(parts[part] for part in verify_split.PARTS) <= parts["total"] + 1e-9


def test_prints_each_part_and_restores_the_wrapped_functions(capsys):
    wrapped = {name: getattr(cli, name) for name in verify_split.CALLED.values()}
    assert verify_split.main(["4"]) == 0
    assert {name: getattr(cli, name) for name in wrapped} == wrapped
    number = r"\d+\.\d\d ms"
    part = rf"{number} \(\d+%\)"
    parts = ", ".join(rf"{name} {part}" for name in verify_split.PARTS)
    assert re.fullmatch(rf"p = 4: total {number}; {parts}\n", capsys.readouterr().out)
