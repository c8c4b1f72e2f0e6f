"""``tools/logic_lines.py``, the line counter that size figures rest on."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "logic_lines.py"
spec = importlib.util.spec_from_file_location("logic_lines", TOOL)
logic_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(logic_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os


def f(a, b):
    """Function docstring."""
    # a comment line
    x = os.path.join(a,
                     b,
                     "c")

    return x  # a trailing comment
'''


def test_counts_only_lines_that_hold_code():
    # import, def, the three lines of the call, return
    assert logic_lines.logic_lines(SNIPPET) == 6


def test_main_prints_per_file_counts_and_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("y = 1\n")
    assert logic_lines.main(["logic_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["1", "b.py"], ["6", "pkg/a.py"], ["7", "total"]]
