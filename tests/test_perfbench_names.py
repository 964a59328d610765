"""The library names the benchmark calls still exist, and its reads of
library objects still give its answers.

perfbench runs outside this suite, so a change that deletes or renames a
function, a method or a keyword parameter that perfbench uses would
otherwise show only there.  The name checks parse the files with ast; the
other tests import perfbench's workloads and harness, run the three checks
that read a WeightedGraph's members, and make one pass of the cut-kernel
and width-exact workloads under the benchmark's own checks.
"""

import argparse
import ast
import hashlib
import importlib
import inspect
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from naewidth.formula import brute_force_nae, parse_nae_dimacs
from naewidth.red1 import SMALL, build_H, witness_order
from naewidth.red2 import build_partitioned

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# instances and classes of the stdlib types whose methods perfbench calls
STDLIB = ("", b"", [], {}, set(), io.TextIOWrapper, io.StringIO(), random.Random(),
          argparse.ArgumentParser(), Path(), subprocess.CompletedProcess([], 0),
          hashlib.sha256())


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


def parsed(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def imported_modules(tree):
    """Local names of the modules a file imports: every plain import, and
    every name imported from the naewidth package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "naewidth":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def root_name(node):
    """The name an attribute, call or subscript chain starts from, if any."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def called_attributes(tree):
    """{name: source} of the attributes a file calls (x.m(...)) or passes on
    to a call (f(x.m)), read off an object rather than an imported module."""
    modules = imported_modules(tree)
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for attr in (node.func, *node.args, *(kw.value for kw in node.keywords)):
                if isinstance(attr, ast.Attribute) and root_name(attr) not in modules:
                    names[attr.attr] = ast.unparse(attr)
    return names


def defined_names(tree):
    """Functions, classes, class-level fields and assigned attributes a file
    defines, and the argparse destinations of the --options it names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("--")):
            names.add(node.value[2:].replace("-", "_"))
    return names


def class_attributes(tree):
    """Methods, class-level fields and self.x attributes of a file's classes."""
    names = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
        names.update(node.attr for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


def test_perfbench_methods_exist_on_library_classes():
    """Every attribute perfbench calls or passes on that perfbench does not
    define itself and no stdlib type it uses has (gs.num_dummy_edges,
    gs.validate, gadget.adjacent, ...) is an attribute of a naewidth class."""
    bench = parsed(sorted((ROOT / "perfbench").glob("*.py")))
    library = set().union(*map(class_attributes, parsed(sorted((ROOT / "src" / "naewidth").glob(
        "*.py")))))
    known = set().union(*map(defined_names, bench), *map(dir, STDLIB))
    called = {name: source for tree in bench for name, source in called_attributes(tree).items()}
    missing = {source for name, source in called.items() if name not in known | library}
    assert not missing, f"perfbench calls names no naewidth class has: {sorted(missing)}"
    assert {"num_dummy_edges", "validate", "adjacent"} <= called.keys() & library


def perfbench_modules():
    """perfbench's harness, run and workloads modules, on this checkout's src/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import harness
        import run
        run.import_library()
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return harness, run, workloads


def test_perfbench_reads_of_a_step1_graph():
    """workloads._saturation (H.adj[v]), harness.balancing_violation
    (H.edges()) and harness.dummy_edge_closed_form give their answers on
    the four-copies build at small and its witness order."""
    harness, _, workloads = perfbench_modules()
    f = parse_nae_dimacs(workloads.FOUR_COPIES)
    build = build_H(f, SMALL)
    order = witness_order(f, build, brute_force_nae(f))
    edges = list(build.graph.edges())
    assert workloads._saturation(build) == ""
    assert harness.balancing_violation(build.graph.n, edges, order, SMALL.tau) == ""
    assert harness.dummy_edge_closed_form(edges) == build_partitioned(build.graph).num_dummy_edges()


@pytest.mark.parametrize("workload", ["cut-kernel", "width-exact"])
def test_perfbench_cut_workloads_pass_their_own_checks(workload, tmp_path):
    """One pass of the benchmark's cut-kernel and width-exact workloads, the
    only runs of the cut kernel at the benchmark's sizes, made at seed 0:
    every operation answers and passes the benchmark's own check."""
    _, run, workloads = perfbench_modules()
    reference = json.loads(Path(run.REFERENCE).read_text(encoding="utf-8"))
    prepare, run_pass = workloads.WORKLOADS[workload]
    inputs = prepare(0, str(tmp_path), reference)
    done = run.one_pass(run_pass, inputs, None, str(tmp_path))
    assert done.attempted > 0 and done.failed == {}, done.failed
