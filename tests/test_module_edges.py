"""Each package module imports what it uses at its top and reads other
modules only through their public names: no import hides inside a function,
and no module reaches into another one's `_name`."""

import ast

from conftest import source_trees

MODULES = {path.stem for path, _ in source_trees()}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_import_inside_a_function():
    found = [
        f"{path}:{node.lineno}"
        for path, tree in source_trees()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"function-local import in src/subposet_lab: {found}"


def test_no_module_reads_another_modules_private_names():
    found = []
    for path, tree in source_trees():
        # Names this module binds to sibling modules (`from . import families`).
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings |= {a.asname or a.name for a in node.names if a.name in MODULES}
                elif node.module in MODULES:
                    found += [
                        f"{path}:{node.lineno} {node.module}.{a.name}"
                        for a in node.names
                        if _private(a.name)
                    ]
        found += [
            f"{path}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ]
    assert not found, f"cross-module private read in src/subposet_lab: {found}"
