"""tools/analyze_split.py times the parts of one `analyze --json` call."""

import importlib.util
import json
import re
from pathlib import Path

from invmean import cli, is_ergodic, load_mapping_spec
from invmean.digraph import _is_circulant

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
    assert _is_circulant(mapping.graph.out_masks, 6)


def test_the_chorded_ring_is_ergodic_but_not_circulant(tmp_path):
    for p in (3, 6, 7, 128):
        path = tmp_path / f"chorded{p}.json"
        path.write_text(json.dumps(analyze_split.chorded_ring_spec(p)))
        mapping = load_mapping_spec(path).build()
        ring = {(i, i) for i in range(1, p + 1)} | {(i % p + 1, i) for i in range(1, p + 1)}
        assert mapping.graph.edges == ring | {((p + 1) // 2 + 1, 1)}
        assert mapping.means[0].label == "P_-1" and mapping.means[0].arity == 3
        assert is_ergodic(mapping.graph).ergodic
        assert not _is_circulant(mapping.graph.out_masks, p)


def test_prints_each_part_of_each_shape_and_restores_the_emitter(capsys):
    emit = cli._emit_json
    assert analyze_split.main(["8", "9"]) == 0
    assert cli._emit_json is emit
    number = r"\d+\.\d\d ms"
    part = rf"{number} \(\d+%\)"
    line = rf"total {number}; load {part}, classification {part}, emission {part}\n"
    assert re.fullmatch(
        "".join(rf"p = {p}, {shape}: {line}" for p in (8, 9) for shape in ("ring", "chorded ring")),
        capsys.readouterr().out,
    )
