"""Python stops a call chain at a fixed number of frames, so a function in the
package that calls itself, directly or through other functions of its module,
needs a depth bound that does not grow with the host. Every such call cycle is
listed here with its bound."""

import ast
from math import comb

from subposet_lab.families import IntervalChainSpec, chain_masks
from subposet_lab.posets import MAX_SPEC_ELEMENTS
from subposet_lab.solver import ROW_MAX_K

from conftest import source_trees

BOUNDED = {
    ("posets.py", ("_extend",)): "one frame per pattern element: at most the "
    "pattern's size, at most MAX_SPEC_ELEMENTS for a parsed spec",
    ("posets.py", ("parse_poset_spec",)): "one frame per nested product: at "
    "most MAX_SPEC_ELEMENTS (64), refused beyond",
    ("solver.py", ("_row", "_rows", "alpha")): "depth 2: alpha gets rows only "
    "on a union of full levels with a level strictly between 0 and n, and the "
    "capacity host _row passes back to alpha, a k-interval chain on such a "
    "level, is never one (test_capacity_hosts_never_get_rows)",
}


def call_graph(tree):
    """Each function's name -> (line, the names of this module's functions it
    calls). Calls are matched by name, whether to a function or a method."""
    calls = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line, names = calls.setdefault(fn.name, (fn.lineno, set()))
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    names.add(getattr(callee, "id", None) or getattr(callee, "attr", None))
    return {name: (line, names & calls.keys()) for name, (line, names) in calls.items()}


def call_cycles(tree):
    """(sorted names, first line) of each set of functions that reach one
    another through calls, a function that calls itself included."""
    graph = call_graph(tree)
    reach = {}
    for name in graph:
        seen, todo = set(), list(graph[name][1])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo += graph[callee][1]
        reach[name] = seen
    cycles = {}
    for name in graph:
        if name in reach[name]:
            members = tuple(sorted(m for m in reach[name] if name in reach[m]))
            cycles[members] = min(graph[m][0] for m in members)
    return cycles


def test_the_cycle_finder_sees_self_calls_and_cycles():
    source = (
        "def a():\n    b()\n"
        "def b():\n    c(); a()\n"
        "def c():\n    pass\n"
        "class K:\n    def d(self):\n        self.d()\n"
    )
    assert call_cycles(ast.parse(source)) == {("a", "b"): 1, ("d",): 8}


def test_only_bounded_functions_call_themselves():
    found = {}
    for path, tree in source_trees():
        for members, line in call_cycles(tree).items():
            found[(str(path), members)] = line
    unbounded = sorted(f"{path}:{line} {' -> '.join(members)}"
                       for (path, members), line in found.items()
                       if (path, members) not in BOUNDED)
    assert not unbounded, f"recursion with no stated bound in src/subposet_lab: {unbounded}"
    assert set(found) == set(BOUNDED), f"no longer recursive: {set(BOUNDED) - set(found)}"
    assert MAX_SPEC_ELEMENTS == 64  # the bound stated above


def test_capacity_hosts_never_get_rows():
    # A row's capacity host is the canonical k-interval chain, k <= ROW_MAX_K,
    # on levels that include one strictly between 0 and n; it would get rows
    # only if that level were full. Its N_w members of size w lie in the at
    # most k + 1 intervals reaching size w, so N_w <= 2^k < n <= C(n, w) once
    # n > 2^k; below that, count.
    for n in range(2, (1 << ROW_MAX_K) + 1):
        for k in range(1, min(ROW_MAX_K, n - 1) + 1):
            sizes = [mask.bit_count() for mask in chain_masks(IntervalChainSpec.canonical(n, k))]
            assert all(sizes.count(w) < comb(n, w) for w in range(1, n)), (n, k)
