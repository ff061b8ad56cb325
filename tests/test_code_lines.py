"""tools/code_lines.py counts lines with code, not comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    "class docstring" " continued"

    def f(self):
        """Function docstring."""
        x = (1,
             2)
        """a string statement that is no docstring"""
        return math.pi, f"""{x}
"""
'''


def test_counts_code_not_comments_or_docstrings():
    # import, class, def, the two lines of x, the string statement and the
    # two lines of the returned f-string
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_per_file_counts_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["9", "total"],
    ]
