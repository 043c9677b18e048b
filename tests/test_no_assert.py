"""Runtime invariants must survive `python -O`, which strips `assert`
statements, so the package raises its own errors instead."""

import ast
from pathlib import Path

import subposet_lab

SRC = Path(subposet_lab.__file__).parent


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert in src/subposet_lab: {found}"
