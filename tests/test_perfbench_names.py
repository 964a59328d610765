"""The library names the benchmark workloads call still exist.

perfbench runs outside this suite, so a change that deletes or renames a
function, or a keyword parameter, that perfbench/workloads.py uses would
otherwise show only there.  The file is parsed with ast, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def module_aliases(tree):
    """{local name: module} of the naewidth modules the file imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "naewidth":
            for alias in node.names:
                module = importlib.import_module(f"naewidth.{alias.name}")
                aliases[alias.asname or alias.name] = module
    return aliases


def module_attribute(node, aliases):
    """(module, name) if node reads a name off an imported naewidth module."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases):
        return aliases[node.value.id], node.attr
    return None


def test_workload_names_and_keywords_exist():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases = module_aliases(tree)
    assert len(aliases) == 9, sorted(aliases)
    names = {module_attribute(node, aliases) for node in ast.walk(tree)} - {None}
    for module, name in names:
        assert hasattr(module, name), f"{module.__name__}.{name} is gone"
    calls = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and module_attribute(node.func, aliases):
            module, name = module_attribute(node.func, aliases)
            params = inspect.signature(getattr(module, name)).parameters
            calls += 1
            for kw in node.keywords:
                assert kw.arg in params, f"{module.__name__}.{name} has no parameter {kw.arg!r}"
    assert names and calls, (len(names), calls)
