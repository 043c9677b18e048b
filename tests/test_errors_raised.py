"""Every exception type in errors.py, other than the base class, must be
raised somewhere in the package: a type nothing raises is dead API that
callers may still try to catch."""

import ast
from pathlib import Path

import subposet_lab

SRC = Path(subposet_lab.__file__).parent


def _raised_name(exc: ast.expr | None) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def test_every_error_class_is_raised_in_src():
    declared = {
        node.name
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        raised |= {
            _raised_name(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)
        }
    unraised = sorted(declared - raised - {"SubposetLabError"})
    assert not unraised, f"error classes never raised in src/subposet_lab: {unraised}"
