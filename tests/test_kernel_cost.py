"""tools/kernel_cost.py prints the README's table of kernel costs."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_cost.py"
spec = importlib.util.spec_from_file_location("kernel_cost", TOOL)
kernel_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_cost)


def test_the_ring_cycles_through_the_four_named_means():
    m, x = kernel_cost.ring(6)
    assert [mean.label for mean in m.means] == ["P_-1", "P_0", "P_1", "P_2", "P_-1", "P_0"]
    assert m.alpha.rows == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1))
    assert x == (1.0, 1.25, 1.5, 1.75, 2.0, 2.25)


def test_prints_one_row_per_mapping(monkeypatch, capsys):
    # fewer timings than the table's, so that the test takes well under a second
    monkeypatch.setattr(kernel_cost, "RUNS", 1)
    monkeypatch.setattr(kernel_cost, "TIMINGS", 3)
    assert kernel_cost.main(["4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "\n".join(lines[:2]) == kernel_cost.HEADER
    names = ["ring, p = 4", "`example4`", "`example2`, huge start"]
    assert len(lines) == 2 + len(names)
    us = r"\d+(\.\d{1,2})? µs"
    steps = r"(\d+ steps|none)"
    for name, line in zip(names, lines[2:]):
        assert re.fullmatch(
            rf"\| {re.escape(name)} \| \d+\.\d{{3}} ms \| {us} \| {us} \| {steps} \| {us} \|", line
        )


def test_the_row_functions_are_timed_before_the_compile(monkeypatch):
    # the "one step, row functions" column times the kernel a mapping
    # starts on, so none of its timed calls may reach the compile
    m, x = kernel_cost.ring(4)
    compiled = []
    compile_steps = kernel_cost.averaging._compile_steps
    monkeypatch.setattr(kernel_cost, "RUNS", 1)
    monkeypatch.setattr(kernel_cost, "TIMINGS", 2)
    monkeypatch.setattr(kernel_cost.averaging, "_compile_steps",
                        lambda m: compiled.append(m) or compile_steps(m))
    kernel_cost.costs(m, x)
    # the timed compiles, the kernel of "one step", and the mapping's own
    # compile before the timed invariant_mean_eval runs
    assert len(compiled) == kernel_cost.RUNS * kernel_cost.TIMINGS + 2
