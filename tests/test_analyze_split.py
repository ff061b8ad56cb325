"""tools/analyze_split.py times the parts of one `analyze --json` call."""

import importlib.util
import json
import re
from pathlib import Path

from invmean import cli, load_mapping_spec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "analyze_split.py"
spec = importlib.util.spec_from_file_location("analyze_split", TOOL)
analyze_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(analyze_split)


def test_the_ring_spec_is_the_ergodic_ring_with_loops(tmp_path):
    path = tmp_path / "ring6.json"
    path.write_text(json.dumps(analyze_split.ring_spec(6)))
    mapping = load_mapping_spec(path).build()
    assert [m.label for m in mapping.means] == ["P_-1", "P_1"] * 3
    assert mapping.graph.sorted_edges() == sorted(
        [(i, i) for i in range(1, 7)] + [(i % 6 + 1, i) for i in range(1, 7)]
    )


def test_prints_each_part_and_restores_the_emitter(capsys):
    emit = cli._emit_json
    assert analyze_split.main(["8"]) == 0
    assert cli._emit_json is emit
    number = r"\d+\.\d\d ms"
    part = rf"{number} \(\d+%\)"
    assert re.fullmatch(
        rf"p = 8: total {number}; load {part}, classification {part}, emission {part}\n",
        capsys.readouterr().out,
    )
