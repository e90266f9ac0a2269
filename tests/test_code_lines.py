import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# The code lines are 4 (import), 9 (def f), 11-12 (the two lines of a
# string that is not a docstring), 13, 16, 19, 22 and 25: nine in all.
_MODULE = '''"""Module docstring
over two lines."""

import math  # a comment

# a comment line


def f(x):
    """Function docstring."""
    y = """a string
that is not a docstring"""
    return x + len(y)


def g():
    "an implicitly " \\
        "joined docstring"
    return math.pi


def h():
    ("a parenthesized, implicitly "
     "joined docstring")
    return 1
'''


def test_only_code_lines_count(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(_MODULE)
    assert code_lines.code_lines(path) == 9


def test_each_module_shows_code_and_physical_lines(tmp_path, monkeypatch, capsys):
    (tmp_path / "module.py").write_text(_MODULE)
    (tmp_path / "empty.py").write_text("")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "  code  lines  module",
        "     0      0  empty.py",
        "     9     25  module.py",
        "     9     25  total",
    ]
