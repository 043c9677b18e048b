"""Only the command line writes to stdout or stderr, so the library can run
inside it without changing a byte of its output."""

import ast
from pathlib import Path

from conftest import source_trees

CLI = dict(source_trees())[Path("cli.py")]


def _writes(tree: ast.AST) -> list[int]:
    """Lines that call print or name sys.stdout / sys.stderr, however imported."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print":
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name in ("stdout", "stderr") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_the_cli_writes_output():
    found = [
        f"{path}:{line}"
        for path, tree in source_trees()
        if path.name != "cli.py"
        for line in _writes(tree)
    ]
    assert not found, f"output outside cli.py: {found}"


def test_the_check_sees_each_kind_of_write():
    source = "import sys\nfrom sys import stderr\nprint(1)\nsys.stdout.write('x')\n"
    assert _writes(ast.parse(source)) == [2, 3, 4]
    assert _writes(CLI)


def _schema_keys(tree: ast.AST) -> list[int]:
    """Lines of dict literals with a "schema" key."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and key.value == "schema"
    ]


def test_only_the_cli_owns_the_output_schema():
    found = [
        f"{path}:{line}"
        for path, tree in source_trees()
        if path.name != "cli.py"
        for line in _schema_keys(tree)
    ]
    assert not found, f"output schema outside cli.py: {found}"


def test_the_schema_check_sees_a_schema_key():
    assert _schema_keys(ast.parse('x = {"a": 1,\n "schema": 1}')) == [1]
    assert _schema_keys(CLI)
