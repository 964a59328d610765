"""No solver depends on Python's recursion limit.

A function that names itself inside its own body can recurse once per
input item, and a deep input then ends in RecursionError.  The CLI maps
that to exit 4, but an answer is better than a resource exit, so each
function that still recurses is listed here with its reason.  The files are
parsed with ast, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "naewidth"

ALLOWED = {
    # one level per candidate edge; waits for the recursion-free clique
    # search, which waits for the benchmark to collect after set-up
    "matchings.max_clique.expand",
    # called by the benchmark's width workload; leaves src/ with it
    "widths.enumerate_leaf_trees.rec",
}


def self_naming_functions(path):
    """Qualified names (module.outer.inner) of the functions in a file that
    name themselves in their own body, as a name or as self.name."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and any(
                    isinstance(sub, ast.Name) and sub.id == child.name
                    or isinstance(sub, ast.Attribute) and sub.attr == child.name
                    and isinstance(sub.value, ast.Name) and sub.value.id in ("self", "cls")
                    for stmt in child.body for sub in ast.walk(stmt)):
                found.add(name)
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_no_function_in_src_names_itself():
    found = set().union(*map(self_naming_functions, sorted(SRC.glob("*.py"))))
    assert found <= ALLOWED, f"functions that recurse: {sorted(found - ALLOWED)}"
    assert found == ALLOWED, f"no longer recursive, drop from ALLOWED: {sorted(ALLOWED - found)}"


def test_the_guard_sees_direct_and_indirect_self_reference(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def walk(x):\n    return all(map(walk, x))\n\n"
        "def outer(n):\n    def inner(k):\n        return inner(k - 1) if k else 0\n"
        "    return inner(n)\n\n"
        "class C:\n    def step(self):\n        return self.step()\n\n"
        "def flat(xs):\n    return sum(xs)\n")
    assert self_naming_functions(module) == {"m.walk", "m.outer.inner", "m.C.step"}
