"""Python stops a call chain at a fixed number of frames, so a function in the
package that calls itself needs a depth bound that does not grow with the
host. Every such function is listed here with its bound."""

import ast
from pathlib import Path

import subposet_lab
from subposet_lab.posets import MAX_SPEC_ELEMENTS

SRC = Path(subposet_lab.__file__).parent

BOUNDED = {
    ("posets.py", "_extend"): "one frame per pattern element: at most the "
    "pattern's size, at most MAX_SPEC_ELEMENTS for a parsed spec",
    ("posets.py", "parse_poset_spec"): "one frame per nested product: at most "
    "MAX_SPEC_ELEMENTS (64), refused beyond",
}


def self_calls(tree):
    """(name, line) of every call a function makes to its own name."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                    if name == fn.name:
                        yield fn.name, node.lineno


def test_only_bounded_functions_call_themselves():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in self_calls(tree):
            found.setdefault((str(path.relative_to(SRC)), name), line)
    unbounded = sorted(f"{path}:{line} {name}" for (path, name), line in found.items()
                       if (path, name) not in BOUNDED)
    assert not unbounded, f"recursion with no stated bound in src/subposet_lab: {unbounded}"
    assert set(found) == set(BOUNDED), f"no longer recursive: {set(BOUNDED) - set(found)}"
    assert MAX_SPEC_ELEMENTS == 64  # the bound stated above
