"""The README stays runnable: its command lines parse, the configs it
names exist and validate, and neither it nor a test docstring points to
helper files outside the package and its configs."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from gibq.cli import build_parser
from gibq.harness import validate_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_commands():
    blocks = re.findall(r"```bash\n(.*?)```", README, flags=re.S)
    lines = (line.split("#")[0].strip() for block in blocks for line in block.splitlines())
    return [line for line in lines if line.startswith("gibq ")]


def test_readme_gibq_lines_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert callable(args.func)


def test_readme_configs_exist_and_validate():
    names = sorted(set(re.findall(r"configs/[\w.-]+\.json", README)))
    assert len(names) >= 2
    for name in names:
        validate_config(json.loads((ROOT / name).read_text()))


def test_no_mention_of_a_scripts_directory():
    assert "scripts/" not in README
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef))]
        for node in nodes:
            doc = ast.get_docstring(node) or ""
            assert "scripts/" not in doc, f"{path.name}: {getattr(node, 'name', 'module')}"
