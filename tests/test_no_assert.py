"""Runtime invariants must survive `python -O`, which strips `assert`
statements, so the package raises its own errors instead."""

import ast

from conftest import source_trees


def test_no_assert_statements_in_src():
    found = []
    for path, tree in source_trees():
        found += [
            f"{path}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert in src/subposet_lab: {found}"
