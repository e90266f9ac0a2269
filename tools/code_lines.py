"""Count the code lines of each module of src/gibq and their total.

A physical line counts when it holds a token other than a comment, NL,
NEWLINE, INDENT, DEDENT or a docstring, where a docstring is a string
that forms a whole statement.  A token that spans several lines (a
triple-quoted string that is not a docstring) counts every line it
spans.  Blank lines, comment lines and docstrings therefore count zero.

Run from the repository root:  python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gibq"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(source: str) -> set:
    """(line, column) of each string constant that is a whole statement."""
    return {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = _docstring_starts(source)
    lines = set()
    in_docstring = False
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type == tokenize.NEWLINE:
                in_docstring = False
            if tok.type == tokenize.STRING and tok.start in docstrings:
                in_docstring = True  # its implicitly joined parts follow
            if tok.type in _NOT_CODE or in_docstring:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,d}  {path.name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
