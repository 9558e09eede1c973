"""`tools/code_lines.py`, the count behind every line-count claim: only lines
that hold a token of code count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment on its own line

X = "a string that is assigned"  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment in the body

    "a bare string statement"
    return max(
        x,
        1)
'''


def test_counts_only_lines_that_hold_code(tmp_path):
    # X, the def line and the three lines of the call
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 5


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "other.py").write_text("Y = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "5", "6"]
    assert lines[-1].split() == ["6", "total"]
