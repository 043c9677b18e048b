"""Every exception type in errors.py, other than the base class, must be
raised somewhere in the package: a type nothing raises is dead API that
callers may still try to catch."""

import ast
from pathlib import Path

from conftest import source_trees


def _raised_name(exc: ast.expr | None) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def test_every_error_class_is_raised_in_src():
    trees = dict(source_trees())
    declared = {
        node.name
        for node in trees[Path("errors.py")].body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for tree in trees.values():
        raised |= {
            _raised_name(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)
        }
    unraised = sorted(declared - raised - {"SubposetLabError"})
    assert not unraised, f"error classes never raised in src/subposet_lab: {unraised}"
