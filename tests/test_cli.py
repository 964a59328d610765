import contextlib
import functools
import hashlib
import io
import itertools
import json
import operator
import os
import random
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naewidth
from naewidth import red2, red3, serialize
from naewidth.cli import run
from naewidth.formula import brute_force_nae, emit_nae_dimacs, parse_nae_dimacs, random_strict_formula
from naewidth.red1 import Constants
from naewidth.tree import Tree
from naewidth.wgraph import DEAD_SET_CAP, ROLES, WeightedGraph, check_balancing_order

from conftest import adjacency_sets, gadget_entry, graph_doc, path_graph, weighted_graph_doc

FOUR_COPIES = "p cnf 3 4\n" + "1 2 3 0\n" * 4


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(FOUR_COPIES)
    return str(path)


def file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_graph_doc(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(serialize.canonical_json(weighted_graph_doc(g)))
    return str(path)


def k4_file(tmp_path):
    g = WeightedGraph()
    for i in range(4):
        g.add_vertex(str(i))
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v, 1)
    return write_graph_doc(tmp_path, g, "k4.json")


def test_nae_check_and_solve(cnf_file, capsys):
    assert run(["nae", "check", cnf_file]) == 0
    assert run(["nae", "solve", cnf_file]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out == {"satisfiable": True, "assignment": "FFT"}


MALFORMED_CNF = [
    "p cnf 2 1\n1 -2 2 0\n",
    # integers DIMACS does not allow, though Python's int() reads them
    FOUR_COPIES[:-len("1 2 3 0\n")] + "+1 2 3 0\n",
    FOUR_COPIES[:-len("1 2 3 0\n")] + "\u0661 2 3 0\n",
    FOUR_COPIES.replace("p cnf 3 4", "p cnf +3 4"),
]


def test_nae_check_invalid_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    for text in MALFORMED_CNF:
        bad.write_text(text, encoding="utf-8")
        assert run(["nae", "check", str(bad)]) == 3, text
        err = capsys.readouterr().err
        assert json.loads(err)["type"] == "validation"


FANO_CLAUSES = "1 2 3 0\n1 4 5 0\n1 6 7 0\n2 4 6 0\n2 5 7 0\n3 4 7 0\n3 5 6 0\n"


def test_nae_solve_unsat_exits_1(tmp_path):
    path = tmp_path / "fano.cnf"
    path.write_text("p cnf 7 7\n" + FANO_CLAUSES)
    assert run(["nae", "solve", str(path), "--lax"]) == 1


def test_nae_solve_cap_cannot_raise_the_bound(tmp_path):
    """The Fano clauses plus 18 free variables make a lax 25-variable
    instance; --cap only lowers the brute-force bound of 24, so --cap 25 and
    --cap 60 exit 3 at once instead of scanning 2^25 assignments."""
    path = tmp_path / "fano25.cnf"
    path.write_text("p cnf 25 7\n" + FANO_CLAUSES)
    for cap in ([], ["--cap", "25"], ["--cap", "60"]):
        proc = subprocess.run(
            [sys.executable, "-m", "naewidth.cli", "nae", "solve", "--lax", *cap, str(path)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, cap
        err = json.loads(proc.stderr)
        assert err["type"] == "validation" and "cap 24" in err["error"]


def test_nae_solve_at_the_cap(tmp_path, capsys):
    """The Fano clauses plus padding on variables 8-24 make an UNSAT lax
    instance at the brute-force cap of 24: solved, not refused, and --cap 23
    refuses it."""
    path = tmp_path / "fano24.cnf"
    padding = "8 9 10 0\n11 12 13 0\n14 15 16 0\n17 18 19 0\n20 21 22 0\n22 23 24 0\n"
    path.write_text("p cnf 24 13\n" + FANO_CLAUSES + padding)
    assert run(["nae", "solve", "--lax", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"satisfiable": False}
    assert run(["nae", "solve", "--lax", "--cap", "23", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "cap 23" in err["error"]


def test_nae_gen_sat_only_checks_the_cap_before_sampling(monkeypatch, capsys):
    def draw(*args):
        raise AssertionError("sampled a formula over the cap")

    monkeypatch.setattr("naewidth.formula.random_strict_formula", draw)
    assert run(["nae", "gen", "-n", "300000", "--sat-only"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "type": "validation", "error": "num_vars 300000 exceeds brute-force cap 24"}


def test_nae_gen_deterministic(capsys):
    assert run(["nae", "gen", "-n", "6", "--seed", "3", "--count", "2", "--sat-only"]) == 0
    first = capsys.readouterr().out
    assert run(["nae", "gen", "-n", "6", "--seed", "3", "--count", "2", "--sat-only"]) == 0
    assert capsys.readouterr().out == first
    # each emitted document is a header plus eight clauses
    lines = first.splitlines()
    assert len(lines) == 18
    parse_nae_dimacs("\n".join(lines[:9]) + "\n", strict=True)


def test_usage_error_exits_2():
    assert run(["nonsense"]) == 2
    assert run(["reduce"]) == 2
    assert run(["nae", "gen", "-n", "3", "--count", "-1"]) == 2
    assert run(["nae", "gen", "-n", "3", "--count", "-1", "--sat-only"]) == 2


def test_reduce_witness_balance_flow(cnf_file, tmp_path, capsys):
    h_path = str(tmp_path / "H.json")
    assert run(["reduce", "step1", "--profile", "small", "-i", cnf_file, "-o", h_path]) == 0
    order_path = str(tmp_path / "order.json")
    assert run(["witness", "order", "-i", h_path, "--cnf", cnf_file, "-o", order_path]) == 0
    assert run(["balance", "check", "-i", h_path, "--order", order_path,
                "--threshold", "36"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["balanced"] is True
    # a too-small threshold is a clean negative answer
    assert run(["balance", "check", "-i", h_path, "--order", order_path,
                "--threshold", "35"]) == 1


def test_witness_decode_round_trip(cnf_file, tmp_path, capsys):
    h_path = str(tmp_path / "H.json")
    run(["reduce", "step1", "--profile", "small", "-i", cnf_file, "-o", h_path])
    order_path = str(tmp_path / "order.json")
    run(["witness", "order", "-i", h_path, "--cnf", cnf_file,
         "--assignment", "TFF", "-o", order_path])
    capsys.readouterr()
    assert run(["witness", "decode", "-i", h_path, "--cnf", cnf_file,
                "--order", order_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nae_satisfies"] is True


def test_reduce_all_byte_identical(cnf_file, tmp_path):
    prefix1 = str(tmp_path / "run1")
    prefix2 = str(tmp_path / "run2")
    assert run(["reduce", "all", "--profile", "small", "-i", cnf_file, "-o", prefix1]) == 0
    assert run(["reduce", "all", "--profile", "small", "-i", cnf_file, "-o", prefix2]) == 0
    for suffix in ("step1", "step2", "step3"):
        a = (tmp_path / f"run1.{suffix}.json").read_bytes()
        b = (tmp_path / f"run2.{suffix}.json").read_bytes()
        assert a == b


def test_custom_profile_parsing(cnf_file, tmp_path):
    h_path = str(tmp_path / "H.json")
    assert run(["reduce", "step1", "--profile", "custom:36,3,6,3,3",
                "-i", cnf_file, "-o", h_path]) == 0
    assert run(["reduce", "step1", "--profile", "custom:1,2,3",
                "-i", cnf_file, "-o", h_path]) == 3
    assert run(["reduce", "step1", "--profile", "bogus",
                "-i", cnf_file, "-o", h_path]) == 3


def test_width_exact_and_cap_guard(tmp_path, capsys):
    k4 = k4_file(tmp_path)
    assert run(["width", "exact", "--kind", "mim", "-i", k4]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 1
    assert run(["width", "exact", "--kind", "mim", "--cap", "3", "-i", k4]) == 3


def test_width_exact_default_cap_is_12(tmp_path, capsys):
    for n, code in ((12, 0), (13, 3)):
        path = tmp_path / f"c{n}.json"
        path.write_text(serialize.canonical_json(
            graph_doc({v: {(v - 1) % n, (v + 1) % n} for v in range(n)})))
        capsys.readouterr()
        assert run(["width", "exact", "--kind", "mim", "-i", str(path)]) == code
        if code == 0:
            assert json.loads(capsys.readouterr().out)["value"] == 2
        else:
            assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_linear_width_exact_above_the_general_cap(tmp_path, capsys):
    """The 16-vertex G* of path([2]) at custom:12,1,2,1,2 answers --linear
    under the default cap, and exits 4 on a tiny budget; a 37-cycle is above
    the linear cap and exits 3."""
    star = red3.build_Gstar(red2.build_partitioned(path_graph([2])), Constants(12, 1, 2, 1, 2))
    gstar = tmp_path / "gstar.json"
    gstar.write_text(serialize.canonical_json(graph_doc(
        {x: {y for y in range(star.n) if star.adjacent(x, y)} for x in range(star.n)})))
    argv = ["width", "exact", "--kind", "mim", "--linear", "-i", str(gstar)]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2
    assert run(argv + ["--budget", "10"]) == 4
    assert json.loads(capsys.readouterr().err)["type"] == "budget"
    cycle = tmp_path / "c37.json"
    cycle.write_text(serialize.canonical_json(
        graph_doc({v: {(v - 1) % 37, (v + 1) % 37} for v in range(37)})))
    assert run(["width", "exact", "--kind", "mim", "--linear", "-i", str(cycle)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "cap 36" in err["error"]


def test_width_cap_cannot_raise_the_bound(tmp_path):
    """--cap 30 on a 30-cycle would ask for all 2^29 cut values; the cap
    only lowers the bound of 12, so the command exits 3 at once.  It runs in
    a child process held to 1 GiB of address space and 120 s, so code that
    honours the raised cap fails here instead of filling the host."""
    path = tmp_path / "c30.json"
    path.write_text(serialize.canonical_json(
        graph_doc({v: {(v - 1) % 30, (v + 1) % 30} for v in range(30)})))
    proc = subprocess.run(
        [sys.executable, "-m", "naewidth.cli", "width", "exact", "--kind", "mim",
         "--cap", "30", "-i", str(path)],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["type"] == "validation" and "cap 12" in err["error"]


def test_cutval_and_budget(tmp_path, capsys):
    k4 = k4_file(tmp_path)
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps({"A": [0, 1], "B": [2, 3]}))
    assert run(["cutval", "--kind", "mim", "-i", k4, "--cut", str(cut)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"exact": True, "kind": "mim", "value": 1}
    assert run(["cutval", "--kind", "sim", "-i", k4, "--cut", str(cut),
                "--budget", "0"]) == 4


@pytest.mark.parametrize("graph_text, cut_text", [
    (None, json.dumps({"A": [0, 1]})),
    (None, '{"A": [0, 1], "B": [2'),
    (json.dumps({"format_version": 1, "kind": "graph", "vertices": [{"id": 0}, {"id": 1}],
                 "edges": [[0, 1]]}), json.dumps({"A": [0], "B": [1]})),
], ids=["cut-missing-B", "truncated-json", "edge-lists"])
def test_malformed_cutval_input_exits_3(tmp_path, capsys, graph_text, cut_text):
    graph = k4_file(tmp_path)
    if graph_text is not None:
        (tmp_path / "k4.json").write_text(graph_text)
    cut = tmp_path / "cut.json"
    cut.write_text(cut_text)
    assert run(["cutval", "--kind", "mim", "-i", graph, "--cut", str(cut)]) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


def _edge_faults():
    """Weighted graph documents with one fault check_simple or add_edge
    refuses: a self-loop, a duplicate edge, or a weight below 1."""
    h = WeightedGraph()
    for label in "uvw":
        h.add_vertex(label)
    h.add_edge(0, 1, 2)
    h.add_edge(1, 2, 3)
    doc = weighted_graph_doc(h)
    for extra in ({"u": 2, "v": 2, "weight": 1}, {"u": 1, "v": 0, "weight": 2},
                  {"u": 0, "v": 2, "weight": 0}):
        yield {**doc, "edges": doc["edges"] + [extra]}


@pytest.mark.parametrize("doc", _edge_faults(), ids=["self-loop", "duplicate", "zero-weight"])
def test_weighted_graph_edge_faults_exit_3(tmp_path, capsys, doc):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    order = tmp_path / "order.json"
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1, 2])))
    for argv in (["reduce", "step2", "-i", str(path), "-o", str(tmp_path / "g.json")],
                 ["balance", "check", "-i", str(path), "--order", str(order),
                  "--threshold", "5"]):
        capsys.readouterr()
        assert run(argv) == 3
        assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_balance_check_on_a_20000_leaf_star(tmp_path):
    """Loading a graph audits it in O(|E|): the centre of a star with 20,000
    unit-weight leaves, placed in the middle of the order, has 10,000 leaves
    on either side."""
    h = WeightedGraph.from_edges(["centre"] + [f"leaf{i}" for i in range(1, 20001)],
                                 ["plain"] * 20001, [(0, i, 1) for i in range(1, 20001)])
    order = tmp_path / "order.json"
    order.write_text(serialize.canonical_json(
        serialize.order_doc(list(range(1, 10001)) + [0] + list(range(10001, 20001)))))
    assert run(["balance", "check", "-i", write_graph_doc(tmp_path, h), "--order", str(order),
                "--threshold", "10000"]) == 0


@pytest.mark.parametrize("field, value", [
    ("weight", 2.5), ("weight", True), ("id", True), ("label", 5)])
def test_weighted_graph_fields_of_the_wrong_type_exit_3(tmp_path, capsys, field, value):
    """Vertex ids, edge endpoints and weights are integers (not floats or
    booleans) and labels are strings; reduce step2 and balance check refuse
    anything else instead of failing inside the build or answering NO."""
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 1)
    doc = weighted_graph_doc(h)
    holder = {"weight": doc["edges"][0], "id": doc["vertices"][1], "label": doc["vertices"][0]}
    holder[field][field] = value
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    order = tmp_path / "order.json"
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    for argv in (["reduce", "step2", "-i", str(path), "-o", str(tmp_path / "g.json")],
                 ["balance", "check", "-i", str(path), "--order", str(order),
                  "--threshold", "2"]):
        capsys.readouterr()
        assert run(argv) == 3
        assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_balance_solve(tmp_path, capsys):
    g = WeightedGraph()
    for i in range(3):
        g.add_vertex(str(i))
    g.add_edge(0, 1, 4)
    g.add_edge(1, 2, 3)
    path = write_graph_doc(tmp_path, g)
    out_path = str(tmp_path / "order.json")
    assert run(["balance", "solve", "-i", path, "--threshold", "5",
                "-o", out_path]) == 0
    order = serialize.order_from_doc(json.loads(open(out_path).read()))
    assert order.index(1) == 1
    assert run(["balance", "solve", "-i", path, "--threshold", "3"]) == 1


def test_balance_solve_long_path_without_recursion(tmp_path):
    """A 400-vertex unit path at threshold 2 answers with an order in a
    child process whose recursion limit is 200: the order search keeps its
    own stack instead of recursing once per placed vertex."""
    g = WeightedGraph()
    for i in range(400):
        g.add_vertex(str(i))
    for i in range(399):
        g.add_edge(i, i + 1, 1)
    path, out = write_graph_doc(tmp_path, g), str(tmp_path / "order.json")
    code = ("import sys; from naewidth.cli import run; sys.setrecursionlimit(200); "
            "sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "balance", "solve", "-i", path, "--threshold", "2",
         "-o", out],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    order = serialize.order_from_doc(json.loads(open(out).read()))
    assert check_balancing_order(g, order, 2) == (True, None)


def paths_and_a_triangle(tmp_path):
    """Four unit 3-vertex paths beside a weight-2 triangle, written as a
    graph document: they have no 2-balancing order."""
    g = WeightedGraph()
    for _ in range(4):
        a, b, c = (g.add_vertex(label) for label in "abc")
        g.add_edge(a, b, 1)
        g.add_edge(b, c, 1)
    x, y, z = (g.add_vertex(label) for label in "xyz")
    for u, v in ((x, y), (y, z), (x, z)):
        g.add_edge(u, v, 2)
    return write_graph_doc(tmp_path, g)


def test_balance_solve_refutes_the_union_of_paths_and_a_triangle(tmp_path, capsys):
    """The order search proves each dead prefix set once, so it answers NO
    well within 10^5 placements."""
    path = paths_and_a_triangle(tmp_path)
    assert run(["balance", "solve", "-i", path, "--threshold", "2", "--budget", "100000"]) == 1
    assert json.loads(capsys.readouterr().out) == {"balanced": False}


def test_balance_solve_budget_message_counts_the_dead_sets(tmp_path, capsys):
    """An exhausted order search exits 4 and says how many dead prefix sets
    it kept, against DEAD_SET_CAP; the count grows with the budget."""
    path = paths_and_a_triangle(tmp_path)
    counts = []
    for budget in (20, 200):
        assert run(["balance", "solve", "-i", path, "--threshold", "2",
                    "--budget", str(budget)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "budget"
        found = re.fullmatch(rf"order search exceeded {budget} nodes, with (\d+) of "
                             rf"DEAD_SET_CAP = {DEAD_SET_CAP} dead sets", err["error"])
        counts.append(int(found.group(1)))
    assert 0 < counts[0] < counts[1] <= 200


def test_layout_group_project_flow(cnf_file, tmp_path, capsys):
    # tiny 2-gadget instance driven end to end through the layout commands
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 3)
    h_path = write_graph_doc(tmp_path, h, "h.json")
    g_path = str(tmp_path / "g.json")
    assert run(["reduce", "step2", "-i", h_path, "-o", g_path]) == 0
    gstar_path = str(tmp_path / "gstar.json")
    assert run(["reduce", "step3", "--profile", "small", "-i", g_path,
                "-o", gstar_path]) == 0
    order_path = str(tmp_path / "horder.json")
    open(order_path, "w").write(serialize.canonical_json(serialize.order_doc([0, 1])))
    layout_path = str(tmp_path / "layout.json")
    assert run(["witness", "caterpillar", "-i", gstar_path, "--order", order_path,
                "-o", layout_path]) == 0
    grouped_path = str(tmp_path / "grouped.json")
    assert run(["layout", "group", "-i", gstar_path, "--hybrid", layout_path,
                "-o", grouped_path]) == 0
    mapping_path = str(tmp_path / "mapping.json")
    assert run(["layout", "to-mapping", "-i", gstar_path, "--hybrid", grouped_path,
                "-o", mapping_path]) == 0
    assert run(["layout", "project", "-i", gstar_path, "--mapping", mapping_path]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["kind"] == "tree_mapping"
    assert sorted(part for _, part in doc["parts"]) == [0, 1]


def test_witness_path_mapping(cnf_file, tmp_path, capsys):
    h = WeightedGraph()
    for i in range(3):
        h.add_vertex(str(i))
    h.add_edge(0, 1, 2)
    h.add_edge(1, 2, 3)
    h_path = write_graph_doc(tmp_path, h, "h.json")
    g_path = str(tmp_path / "g.json")
    run(["reduce", "step2", "-i", h_path, "-o", g_path])
    order_path = str(tmp_path / "horder.json")
    open(order_path, "w").write(serialize.canonical_json(serialize.order_doc([2, 1, 0])))
    capsys.readouterr()
    assert run(["witness", "path-mapping", "-i", g_path, "--order", order_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "tree_mapping" and doc["is_path"]


@pytest.fixture(scope="module")
def toy_gstar(tmp_path_factory):
    """G* document of the single-edge H of weight 3 (two 18-vertex gadgets);
    its step-2 document is g.json beside it."""
    root = tmp_path_factory.mktemp("toy")
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 3)
    g_path = str(root / "g.json")
    assert run(["reduce", "step2", "-i", write_graph_doc(root, h, "h.json"),
                "-o", g_path]) == 0
    gstar_path = str(root / "gstar.json")
    assert run(["reduce", "step3", "--profile", "small", "-i", g_path,
                "-o", gstar_path]) == 0
    return gstar_path


GOOD_MAPPING = {"format_version": 1, "kind": "tree_mapping", "nodes": [0, 1],
                "edges": [[0, 1]], "parts": [[0, 0], [1, 1]], "is_path": True}


@pytest.mark.parametrize("change", [
    {},
    {"edges": [[0, 5]]},
    {"parts": [[0, 0], [7, 1]]},
    {"nodes": ["0", "1"]},
    {"edges": [[0, 1, 2]]},
    {"is_path": "yes"},
    {"parts": None},
    {"kind": "tree_layout"},
], ids=["valid", "edge-to-unlisted-node", "part-on-unlisted-node", "string-node-ids",
        "edge-triple", "non-boolean-flag", "missing-parts", "wrong-kind"])
def test_malformed_tree_mapping_exits_3(toy_gstar, tmp_path, capsys, change):
    doc = {k: v for k, v in dict(GOOD_MAPPING, **change).items() if v is not None}
    mapping_path = tmp_path / "m.json"
    mapping_path.write_text(json.dumps(doc))
    code = run(["layout", "project", "-i", toy_gstar, "--mapping", str(mapping_path)])
    if not change:
        assert code == 0
        return
    assert code == 3
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_cyclic_hybrid_tree_exits_3(toy_gstar, tmp_path, capsys):
    doc = {"format_version": 1, "kind": "hybrid_tree", "nodes": [0, 1, 2],
           "edges": [[0, 1], [1, 2], [0, 2]],
           "placement": [[v, 0] for v in range(18)] + [[v, 1] for v in range(18, 36)]}
    hybrid_path = tmp_path / "cyc.json"
    hybrid_path.write_text(json.dumps(doc))
    assert run(["layout", "to-mapping", "-i", toy_gstar, "--hybrid", str(hybrid_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "acyclic" in err["error"]


@pytest.mark.parametrize("case", ["first-leaf-renamed", "gadget-split"])
def test_misshapen_hybrid_tree_exits_3(toy_gstar, tmp_path, capsys, case):
    """`layout group` refuses a tree that does not place exactly V(G*) or
    splits a gadget across nodes, instead of grouping it."""
    order = tmp_path / "order.json"
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    hybrid_path = tmp_path / "hybrid.json"
    argv = ["layout", "group", "-i", toy_gstar, "--hybrid", str(hybrid_path)]
    assert run(["witness", "caterpillar", "-i", toy_gstar, "--order", str(order),
                "-o", str(hybrid_path)]) == 0
    assert run(argv) == 0  # the caterpillar itself is accepted
    doc = json.loads(hybrid_path.read_text())
    if case == "first-leaf-renamed":
        doc["leaves"][0][1] = 9999
    else:  # gadget 0 on nodes 0 and 1, gadget 1 on node 2
        doc = {"format_version": 1, "kind": "hybrid_tree", "nodes": [0, 1, 2],
               "edges": [[0, 1], [1, 2]], "placement": [[v, min(v // 9, 2)] for v in range(36)]}
    hybrid_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(argv) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


TINY = "custom:12,1,2,1,1"  # the least valid constants: a four-copies G* of 16,816 vertices


@pytest.fixture(scope="module")
def step_docs(toy_gstar, tmp_path_factory):
    """Small step-1, step-2 and step-3 documents, orders of the step-3 and
    step-2 H (two and three vertices), and the witness order of the step-1 H.
    "step2toy" is the step-2 document under the step-3 toy; "step2m" and
    "step3m" are the four-copies step-2 and step-3 documents at TINY, whose
    bases carry the step-1 meta, and "orderm" is the witness order of their H."""
    root = tmp_path_factory.mktemp("step-docs")
    cnf = str(root / "f.cnf")
    open(cnf, "w").write(FOUR_COPIES)
    h_path = str(root / "H.json")
    assert run(["reduce", "step1", "--profile", "small", "-i", cnf, "-o", h_path]) == 0
    h = WeightedGraph()
    for i in range(3):
        h.add_vertex(str(i))
    h.add_edge(0, 1, 2)
    h.add_edge(1, 2, 3)
    g_path = str(root / "g2.json")
    assert run(["reduce", "step2", "-i", write_graph_doc(root, h, "h2.json"), "-o", g_path]) == 0
    order_path = root / "order.json"
    order_path.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    order3_path = root / "order3.json"
    order3_path.write_text(serialize.canonical_json(serialize.order_doc([2, 1, 0])))
    order1_path = str(root / "order1.json")
    assert run(["witness", "order", "-i", h_path, "--cnf", cnf, "-o", order1_path]) == 0
    tiny, orderm_path = str(root / "tiny"), str(root / "orderm.json")
    assert run(["reduce", "all", "--profile", TINY, "-i", cnf, "-o", tiny]) == 0
    assert run(["witness", "order", "-i", tiny + ".step1.json", "--cnf", cnf,
                "-o", orderm_path]) == 0
    return {"step1": h_path, "step2": g_path, "step3": toy_gstar,
            "step2toy": os.path.join(os.path.dirname(toy_gstar), "g.json"),
            "step2m": tiny + ".step2.json", "step3m": tiny + ".step3.json",
            "order": str(order_path), "order3": str(order3_path), "order1": order1_path,
            "orderm": orderm_path, "mutated": str(root / "mutated.json")}


def _drop_constants(doc):
    del doc["meta"]["constants"]


def _meta_not_an_object(doc):
    doc["meta"] = ["step1"]


def _vertex_not_a_record(doc):
    doc["vertices"][0] = 0


def _short_pad_pair(doc):
    doc["meta"]["pad_assign"][0] = doc["meta"]["pad_assign"][0][:1]


def _clause_group_unknown(doc):
    doc["meta"]["groups"]["C"] = [99999]


def _vx_group_is_vbar(doc):
    doc["meta"]["groups"]["vx"] = doc["meta"]["groups"]["vbar"]


def _pad_assign_key_moved(doc):
    doc["meta"]["pad_assign"][0][0] += 1


def _bl_spine_a_at_vertex_0(doc):
    doc["meta"]["BL"]["spine_a"] = [0]


def _num_vars_5(doc):
    doc["meta"]["num_vars"] = 5


def _num_clauses_99(doc):
    doc["meta"]["num_clauses"] = 99


def _hprime_n_plus_5(doc):
    doc["meta"]["hprime_n"] += 5


def _bl_attach_weight_changed(doc):
    doc["meta"]["BL"]["attach_weights"][0] = 999


def _terminal_sets_reversed(doc):
    doc["meta"]["sequence"]["terminal_sets"].reverse()


def _b1p_terminals_reversed(doc):
    doc["meta"]["sequence"]["B1p"]["terminals"].reverse()


def _roots_changed(doc):
    doc["meta"]["groups"]["roots"][0] += 1


def _vertex_label_changed(doc):
    doc["vertices"][0]["label"] = "v_x9"


def _extra_top_level_key(doc):
    doc["note"] = "extra"


def _edge_weight_plus_1(doc):
    doc["edges"][-1]["weight"] += 1


def _in_base(tamper):
    """The tamper applied to the document's base."""
    return lambda doc: tamper(doc["base"])


def _vertex_0_plain(doc):
    doc["vertices"][0]["role"] = "plain"


def _edge_rule_changed(doc):
    doc["edge_rule"] = "blocks-v0"


def _weight_scale_7(doc):
    doc["weight_scale"] = 7


def _drop_edge_record(doc):
    del doc["edges"][0]


def _edge_kind_dummy(doc):
    next(rec for rec in doc["edges"] if rec["kind"] != "dummy")["kind"] = "dummy"


def _edge_written_backwards(doc):
    rec = doc["edges"][0]
    rec["u"], rec["v"] = rec["v"], rec["u"]


def _drop_blocks(doc):
    del doc["blocks"]


def _tamper_parts(doc):
    doc["parts"][0]["size"] += 1
    doc["parts"].append({"owner": 999, "start": 0, "size": 1})


def _drop_gadget_copies(doc):
    del doc["gadgets"][0]["copies"]


def _drop_gadget_record(doc):
    del doc["gadgets"][1]


def _num_vertices_float(doc):
    doc["num_vertices"] = float(doc["num_vertices"])


def _format_version_true(doc):
    doc["format_version"] = True


def _vertex_0_id_false(doc):
    rec = doc["vertices"][0]
    assert rec["id"] == 0
    rec["id"] = False


def _unit_weight_true(doc):
    next(rec for rec in doc["edges"] if rec["weight"] == 1)["weight"] = True


def _first_block_start_false(doc):
    rec = doc["blocks"][0]
    assert rec["start"] == 0
    rec["start"] = False


def _meta_vx_0_false(doc):
    vx = doc["meta"]["groups"]["vx"]
    assert vx[0] == 0
    vx[0] = False


def _constants_a_true(doc):
    assert doc["constants"]["a"] == 1
    doc["constants"]["a"] = True


def _first_gadget_owner_false(doc):
    rec = doc["gadgets"][0]
    assert rec["owner"] == 0
    rec["owner"] = False


DECODE_ARGV = ["witness", "decode", "-i", "{doc}", "--cnf", "{cnf}", "--order", "{order1}"]
PATH_MAPPING_ARGV = ["witness", "path-mapping", "-i", "{doc}", "--order", "{orderm}", "-o", "{out}"]
CATERPILLAR_ARGV = ["witness", "caterpillar", "-i", "{doc}", "--order", "{order}", "-o", "{out}"]


@pytest.mark.parametrize("step, tamper, argv", [
    ("step1", _drop_constants, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _meta_not_an_object, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _vertex_not_a_record, ["reduce", "step2", "-i", "{doc}"]),
    ("step1", _short_pad_pair, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _clause_group_unknown, DECODE_ARGV),
    ("step1", _vx_group_is_vbar, DECODE_ARGV),
    ("step1", _pad_assign_key_moved, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _bl_spine_a_at_vertex_0, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _num_vars_5, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _num_vars_5, DECODE_ARGV),
    ("step1", _num_clauses_99, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _hprime_n_plus_5, ["witness", "order", "-i", "{doc}", "--cnf", "{cnf}"]),
    ("step1", _bl_attach_weight_changed, DECODE_ARGV),
    ("step1", _terminal_sets_reversed, DECODE_ARGV),
    ("step1", _b1p_terminals_reversed, DECODE_ARGV),
    ("step1", _roots_changed, DECODE_ARGV),
    ("step1", _vertex_label_changed, DECODE_ARGV),
    ("step1", _extra_top_level_key, DECODE_ARGV),
    ("step1", _edge_weight_plus_1, DECODE_ARGV),
    ("step2", _drop_blocks, ["witness", "path-mapping", "-i", "{doc}", "--order", "{order3}"]),
    ("step2", _tamper_parts, ["witness", "path-mapping", "-i", "{doc}", "--order", "{order3}"]),
    ("step3", _drop_gadget_copies, ["witness", "caterpillar", "-i", "{doc}", "--order", "{order}"]),
    ("step3", _drop_gadget_record, ["witness", "caterpillar", "-i", "{doc}", "--order", "{order}"]),
    ("step2m", _edge_rule_changed, PATH_MAPPING_ARGV),
    ("step2m", _extra_top_level_key, PATH_MAPPING_ARGV),
    ("step2m", _in_base(_bl_attach_weight_changed), PATH_MAPPING_ARGV),
    ("step2m", _in_base(_vertex_label_changed), PATH_MAPPING_ARGV),
    ("step2m", _in_base(_vertex_0_plain), PATH_MAPPING_ARGV),
    ("step3", _weight_scale_7, CATERPILLAR_ARGV),
    ("step3", _extra_top_level_key, CATERPILLAR_ARGV),
    ("step3m", _in_base(_in_base(_bl_attach_weight_changed)),
     ["witness", "caterpillar", "-i", "{doc}", "--order", "{orderm}", "-o", "{out}"]),
    ("step3", _in_base(_edge_rule_changed), CATERPILLAR_ARGV),
    ("step2toy", _drop_edge_record,
     ["witness", "path-mapping", "-i", "{doc}", "--order", "{order}", "-o", "{out}"]),
    ("step3", _drop_edge_record, CATERPILLAR_ARGV),
    ("step3", _edge_kind_dummy, CATERPILLAR_ARGV),
    ("step2toy", _in_base(_edge_written_backwards),
     ["witness", "path-mapping", "-i", "{doc}", "--order", "{order}", "-o", "{out}"]),
    ("step1", _bl_attach_weight_changed, ["reduce", "step2", "-i", "{doc}", "-o", "{out}"]),
    ("step2m", _in_base(_bl_attach_weight_changed),
     ["reduce", "step3", "--profile", TINY, "-i", "{doc}", "-o", "{out}"]),
    ("step2toy", _num_vertices_float,
     ["witness", "path-mapping", "-i", "{doc}", "--order", "{order}", "-o", "{out}"]),
    ("step2toy", _format_version_true,
     ["witness", "path-mapping", "-i", "{doc}", "--order", "{order}", "-o", "{out}"]),
    ("step1", _vertex_0_id_false, DECODE_ARGV),
    ("step1", _unit_weight_true, DECODE_ARGV),
    ("step2", _first_block_start_false,
     ["witness", "path-mapping", "-i", "{doc}", "--order", "{order3}"]),
    ("step3", _first_gadget_owner_false, CATERPILLAR_ARGV),
    ("step1", _meta_vx_0_false, DECODE_ARGV),
    ("step3m", _constants_a_true,
     ["witness", "caterpillar", "-i", "{doc}", "--order", "{orderm}", "-o", "{out}"]),
], ids=["step1-meta-without-constants", "step1-meta-not-an-object", "step1-vertex-not-a-record",
        "step1-short-pad-pair", "step1-clause-group-unknown", "step1-vx-group-is-vbar",
        "step1-pad-assign-key-moved", "step1-bl-spine-at-vertex-0", "step1-num-vars-order",
        "step1-num-vars-decode", "step1-num-clauses", "step1-hprime-n",
        "step1-bl-attach-weight", "step1-terminal-sets-reversed", "step1-b1p-terminals-reversed",
        "step1-roots-changed", "step1-vertex-label", "step1-extra-top-level-key",
        "step1-edge-weight-plus-1", "step2-without-blocks",
        "step2-parts-disagree", "step3-gadget-without-copies", "step3-gadget-record-missing",
        "step2-edge-rule", "step2-extra-top-level-key", "step2-base-bl-attach-weight",
        "step2-base-vertex-label", "step2-base-vertex-role-plain", "step3-weight-scale-7",
        "step3-extra-top-level-key", "step3-base-step1-meta", "step3-base-edge-rule",
        "step2-toy-edge-record-dropped", "step3-toy-edge-record-dropped",
        "step3-toy-edge-kind-dummy", "step2-toy-base-edge-backwards", "reduce-step2-bl-attach-weight",
        "reduce-step3-base-bl-attach-weight", "step2-toy-num-vertices-6.0",
        "step2-toy-format-version-true", "step1-id-false", "step1-weight-true",
        "step2-start-false", "step3-owner-false", "step1-meta-vx-false",
        "step3-constants-a-true"])
def test_malformed_step_documents_exit_3(step_docs, cnf_file, tmp_path, capsys, step, tamper, argv):
    paths = dict(step_docs, cnf=cnf_file, doc=str(tmp_path / "tampered.json"),
                 out=str(tmp_path / "out.json"))
    argv = [arg.format(**paths) for arg in argv]
    doc = json.loads(open(step_docs[step]).read())
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    assert run(argv) == 0  # the untampered document is accepted
    tamper(doc)
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(argv) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_weight_scale_must_be_the_factor_step3_picks(tmp_path, capsys):
    """Weight 9 is a multiple of a = 3, so step 3 scales by 1.  The same
    document read as H = 9/3 scaled by 3 lists the same G*, but step 3 would
    not scale that H, so the loader refuses it."""
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 9)
    g_path, star_path = str(tmp_path / "g.json"), tmp_path / "gstar.json"
    assert run(["reduce", "step2", "-i", write_graph_doc(tmp_path, h), "-o", g_path]) == 0
    assert run(["reduce", "step3", "-i", g_path, "-o", str(star_path)]) == 0
    order = tmp_path / "order.json"
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    argv = ["witness", "caterpillar", "-i", str(star_path), "--order", str(order),
            "-o", str(tmp_path / "layout.json")]
    assert run(argv) == 0
    doc = json.loads(star_path.read_text())
    doc["weight_scale"] = 3
    star_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "weight_scale 3" in err["error"]


def test_step1_constants_asking_for_a_huge_build_exit_3(step_docs, cnf_file, tmp_path):
    """tau = 36·10^6 keeps the constants valid but asks for about 10^9 padding
    vertices; the loader refuses before adding them.  The command runs in a
    child process held to 1 GiB of address space, so code without the bound
    fails here with a MemoryError instead of filling the host."""
    doc = json.loads(open(step_docs["step1"]).read())
    doc["meta"]["constants"]["tau"] = 36 * 10 ** 6
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "naewidth.cli", "witness", "decode", "-i", str(path),
         "--cnf", cnf_file, "--order", step_docs["order1"]],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["type"] == "validation"


def _paths(node, path=()):
    """The key path of node and of every value inside it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@pytest.fixture(scope="module")
def step1_fuzz(tmp_path_factory):
    """Files for `witness decode` on the four-copies step-1 document at `small`."""
    root = tmp_path_factory.mktemp("step1-fuzz")
    paths = {name: str(root / name) for name in ("f.cnf", "H.json", "order.json", "mutated.json")}
    open(paths["f.cnf"], "w").write(FOUR_COPIES)
    assert run(["reduce", "step1", "-i", paths["f.cnf"], "-o", paths["H.json"]]) == 0
    assert run(["witness", "order", "-i", paths["H.json"], "--cnf", paths["f.cnf"],
                "-o", paths["order.json"]]) == 0
    return paths


def _mutate(data, doc, paths):
    """Change the value at one path drawn from paths, in place: ±1 or the
    equal float on an int, the equal boolean on 0 and 1, another type, or
    deleted.  Returns (path, how)."""
    path = data.draw(st.sampled_from(paths))
    *head, last = path
    holder = functools.reduce(operator.getitem, head, doc)
    value = holder[last]
    hows = ["type", "delete"]
    if type(value) is int:
        hows += ["+1", "-1", "float"] + (["bool"] if value in (0, 1) else [])
    how = data.draw(st.sampled_from(hows))
    if how == "delete":
        del holder[last]
    elif how == "type":
        holder[last] = [value] if isinstance(value, str) else str(value)
    elif how == "float":
        holder[last] = float(value)
    elif how == "bool":
        holder[last] = bool(value)
    else:
        holder[last] = value + int(how)
    return path, how


def _run_quietly(argv):
    """The exit code of the CLI on argv and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _same_json(a, b):
    """Equal as JSON text, so 6.0 and true differ from 6 and 1."""
    return json.dumps(a) == json.dumps(b)


def _site_groups(doc):
    """Every value's path in doc, grouped by its first two keys, list indices
    left out, so that a draw favours no long list."""
    groups = {}
    for path in _paths(doc):
        if path:
            groups.setdefault(tuple(k for k in path if isinstance(k, str))[:2], []).append(path)
    return groups


def _another_b(mutated, path, how):
    """Whether the mutation was a ±1 on the step-1 constant b that left it
    valid (b >= 1).  Step 1 never reads b, so that document is the build at
    the other b, which a command on it must read as the original."""
    return (path[-3:] == ("meta", "constants", "b") and how in ("+1", "-1")
            and functools.reduce(operator.getitem, path, mutated) >= 1)


def _decode(step1_fuzz, doc):
    return _run_quietly(["witness", "decode", "-i", doc, "--cnf", step1_fuzz["f.cnf"],
                         "--order", step1_fuzz["order.json"]])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_step1_loader_accepts_exactly_the_build(step1_fuzz, data):
    """One mutated value (a meta entry, vertex field or edge field: ±1 or a
    float on an int, a boolean on 0 or 1, another type, or deleted) makes
    `witness decode` exit 3 with a JSON diagnostic unless the document still
    equals the original or is the build at another b."""
    text = open(step1_fuzz["H.json"]).read()
    original, mutated = json.loads(text), json.loads(text)
    sites = {"meta": [("meta",) + p for p in _paths(original["meta"]) if p],
             **{part: [(part, i, key) for i, rec in enumerate(original[part]) for key in rec]
                for part in ("vertices", "edges")}}
    path, how = _mutate(data, mutated, sites[data.draw(st.sampled_from(sorted(sites)))])
    open(step1_fuzz["mutated.json"], "w").write(json.dumps(mutated))
    code, out, err = _decode(step1_fuzz, step1_fuzz["mutated.json"])
    if _another_b(mutated, path, how):
        assert (code, out, err) == _decode(step1_fuzz, step1_fuzz["H.json"])
    elif _same_json(mutated, original):
        assert code == 0
    else:
        assert code == 3
        assert json.loads(err)["type"] == "validation"


@pytest.mark.parametrize("b", [4, 2])
def test_step1_loader_reads_the_build_at_another_b(step1_fuzz, tmp_path, b):
    """The four-copies document at `small` (b = 3) with b set to 4 or 2 is the
    output of `reduce step1 --profile custom:36,3,6,3,b`, and `witness decode`
    reads it as the original."""
    doc = json.loads(open(step1_fuzz["H.json"]).read())
    doc["meta"]["constants"]["b"] = b
    mutated, rebuilt = tmp_path / "mutated.json", tmp_path / "rebuilt.json"
    mutated.write_text(json.dumps(doc))
    assert run(["reduce", "step1", "--profile", f"custom:36,3,6,3,{b}", "-i", step1_fuzz["f.cnf"],
                "-o", str(rebuilt)]) == 0
    assert json.loads(rebuilt.read_text()) == doc
    assert _decode(step1_fuzz, str(mutated)) == _decode(step1_fuzz, step1_fuzz["H.json"])


REBUILT_DOCUMENTS = {
    "step2m": ["witness", "path-mapping", "-i", "{mutated}", "--order", "{orderm}", "-o", "{out}"],
    "step3": ["witness", "caterpillar", "-i", "{mutated}", "--order", "{order}", "-o", "{out}"],
}


def _rebuilt_command(step_docs, step, doc):
    """The command of REBUILT_DOCUMENTS[step] on step_docs[doc], its output
    beside that document."""
    paths = dict(step_docs, mutated=step_docs[doc], out=step_docs[doc] + ".out")
    return _run_quietly([arg.format(**paths) for arg in REBUILT_DOCUMENTS[step]])


def _rebuilt_output(step_docs, step):
    """What the command of REBUILT_DOCUMENTS[step] writes for the original."""
    assert _rebuilt_command(step_docs, step, step)[0] == 0
    return open(step_docs[step] + ".out").read()


def test_step2_loader_reads_the_base_at_another_b(step_docs, tmp_path):
    """The four-copies step-2 document at custom:12,1,2,1,1 with its base's
    b set to 2 is the step-2 output of the step-1 build at
    custom:12,1,2,1,2, and `witness path-mapping` reads it as the original;
    b = 0 is no valid constant and exits 3."""
    doc = json.loads(open(step_docs["step2m"]).read())
    doc["base"]["meta"]["constants"]["b"] = 2
    cnf, h_path, g_path = (str(tmp_path / name) for name in ("f.cnf", "H.json", "g.json"))
    open(cnf, "w").write(FOUR_COPIES)
    assert run(["reduce", "step1", "--profile", "custom:12,1,2,1,2", "-i", cnf, "-o", h_path]) == 0
    assert run(["reduce", "step2", "-i", h_path, "-o", g_path]) == 0
    assert json.loads(open(g_path).read()) == doc
    open(step_docs["mutated"], "w").write(json.dumps(doc))
    assert _rebuilt_command(step_docs, "step2m", "mutated")[0] == 0
    assert open(step_docs["mutated"] + ".out").read() == _rebuilt_output(step_docs, "step2m")
    doc["base"]["meta"]["constants"]["b"] = 0
    open(step_docs["mutated"], "w").write(json.dumps(doc))
    code, _, err = _rebuilt_command(step_docs, "step2m", "mutated")
    assert code == 3 and json.loads(err)["type"] == "validation"


@pytest.mark.parametrize("step", REBUILT_DOCUMENTS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_step2_and_step3_loaders_accept_exactly_the_rebuild(step_docs, step, data):
    """One mutated value anywhere in a step-2 document with a step-1 base
    (under `witness path-mapping`) or in the toy step-3 document, which lists
    its edges (under `witness caterpillar`): ±1 or a float on an int, a
    boolean on 0 or 1, another type, or deleted.  The command exits 0
    exactly when the document still equals the original or has the base of
    another b, and otherwise 3 with a JSON diagnostic.  Deleting
    the step-1 meta alone leaves the step-2 document of the plain graph H,
    which is accepted as such."""
    text = open(step_docs[step]).read()
    original, mutated = json.loads(text), json.loads(text)
    groups = _site_groups(original)
    path, how = _mutate(data, mutated, groups[data.draw(st.sampled_from(sorted(groups)))])
    open(step_docs["mutated"], "w").write(json.dumps(mutated))
    code, _, err = _rebuilt_command(step_docs, step, "mutated")
    if _another_b(mutated, path, how):
        assert code == 0
        assert open(step_docs["mutated"] + ".out").read() == _rebuilt_output(step_docs, step)
    elif _same_json(mutated, original) or (path, how) == (("base", "meta"), "delete"):
        assert code == 0
    else:
        assert code == 3
        assert json.loads(err)["type"] == "validation"


def test_reduce_step3_refuses_a_step1_base_of_other_constants(cnf_file, tmp_path, capsys):
    """A step-2 document whose base is the step-1 build at `small` is refused
    by `reduce step3 --profile paper`, which would write a gadget graph whose
    constants are not its base's, and read at `small`."""
    h_path, g_path, star_path = (str(tmp_path / f"{name}.json") for name in ("H", "g", "star"))
    assert run(["reduce", "step1", "--profile", "small", "-i", cnf_file, "-o", h_path]) == 0
    assert run(["reduce", "step2", "-i", h_path, "-o", g_path]) == 0
    capsys.readouterr()
    assert run(["reduce", "step3", "--profile", "paper", "-i", g_path, "-o", star_path]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "step-1 base" in err["error"]
    assert not os.path.exists(star_path)
    assert run(["reduce", "step3", "--profile", "small", "-i", g_path, "-o", star_path]) == 0


def test_step3_loader_refuses_a_step1_base_of_other_constants(cnf_file, tmp_path, capsys):
    """The four-copies step-3 document at `small` with its step-1 base's b
    set to 4 is refused: that base is the build at b = 4, not at the
    document's own constants."""
    out, order = str(tmp_path / "r"), str(tmp_path / "order.json")
    assert run(["reduce", "all", "--profile", "small", "-i", cnf_file, "-o", out]) == 0
    assert run(["witness", "order", "-i", out + ".step1.json", "--cnf", cnf_file,
                "-o", order]) == 0
    doc = json.loads(open(out + ".step3.json").read())
    doc["base"]["base"]["meta"]["constants"]["b"] = 4
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["witness", "caterpillar", "-i", str(mutated), "--order", order,
                "-o", str(tmp_path / "layout.json")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "step-1 base" in err["error"]


@pytest.fixture(scope="module")
def witness_docs(tmp_path_factory):
    """The step-2 and step-3 documents of path([3, 3]) at `small` (a 72-vertex
    G*) and its witnesses: the order [0, 1, 2], its caterpillar tree layout,
    the hybrid tree `layout group` makes of it, and the tree mapping
    `layout to-mapping` makes of that."""
    root = tmp_path_factory.mktemp("witness-docs")
    h = WeightedGraph()
    for i in range(3):
        h.add_vertex(str(i))
    h.add_edge(0, 1, 3)
    h.add_edge(1, 2, 3)
    paths = {name: str(root / f"{name}.json") for name in
             ("g", "star", "order", "tree_layout", "hybrid_tree", "tree_mapping", "mutated")}
    open(paths["order"], "w").write(serialize.canonical_json(serialize.order_doc([0, 1, 2])))
    for argv in (["reduce", "step2", "-i", write_graph_doc(root, h), "-o", "{g}"],
                 ["reduce", "step3", "-i", "{g}", "-o", "{star}"],
                 ["witness", "caterpillar", "-i", "{star}", "--order", "{order}",
                  "-o", "{tree_layout}"],
                 ["layout", "group", "-i", "{star}", "--hybrid", "{tree_layout}",
                  "-o", "{hybrid_tree}"],
                 ["layout", "to-mapping", "-i", "{star}", "--hybrid", "{hybrid_tree}",
                  "-o", "{tree_mapping}"]):
        assert run([arg.format(**paths) for arg in argv]) == 0
    return paths


WITNESS_COMMANDS = [
    ("order", ["witness", "path-mapping", "-i", "{g}", "--order", "{mutated}"]),
    ("order", ["witness", "caterpillar", "-i", "{star}", "--order", "{mutated}"]),
    ("tree_layout", ["layout", "group", "-i", "{star}", "--hybrid", "{mutated}"]),
    ("hybrid_tree", ["layout", "group", "-i", "{star}", "--hybrid", "{mutated}"]),
    ("hybrid_tree", ["layout", "to-mapping", "-i", "{star}", "--hybrid", "{mutated}"]),
    ("tree_mapping", ["layout", "project", "-i", "{star}", "--mapping", "{mutated}"]),
]


@pytest.mark.parametrize("kind, argv", WITNESS_COMMANDS,
                         ids=[f"{kind}-{argv[1]}" for kind, argv in WITNESS_COMMANDS])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_witness_documents_exit_0_or_3(witness_docs, kind, argv, data):
    """One mutated value in a witness document: ±1 or a float on an int, a
    boolean on 0 or 1, another type, or deleted.  A witness may stay valid under a change, so
    the command exits 0 or 3, 3 with a JSON diagnostic, and 0 on the
    unchanged document."""
    text = open(witness_docs[kind]).read()
    original, mutated = json.loads(text), json.loads(text)
    groups = _site_groups(original)
    _mutate(data, mutated, groups[data.draw(st.sampled_from(sorted(groups)))])
    open(witness_docs["mutated"], "w").write(json.dumps(mutated))
    code, _, err = _run_quietly([arg.format(**witness_docs) for arg in argv])
    assert code == 0 if _same_json(mutated, original) else code in (0, 3)
    if code == 3:
        assert json.loads(err)["type"] == "validation"


def _cnf_token(data):
    return data.draw(st.one_of(st.integers(-2, 10 ** 25).map(str),
                               st.sampled_from(["p", "cnf", "c", "0", ""]),
                               st.text(max_size=4)))


@pytest.fixture(scope="module")
def cnf_fuzz(tmp_path_factory):
    root = tmp_path_factory.mktemp("cnf-fuzz")
    return str(root / "mutated.cnf"), str(root / "H.json")


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cnf_text_exits_0_1_or_3(cnf_fuzz, data):
    """A seeded n=6 strict formula with one line replaced, deleted or
    repeated, or one token replaced by an integer (up to 10^25) or short
    text.  `nae check`, `nae solve` and `reduce step1` exit 0 or 3, `nae
    solve` also 1, 3 with a JSON diagnostic; the three agree on which texts
    they refuse."""
    cnf, out = cnf_fuzz
    lines = ["p cnf 6 8", "4 1 3 0", "5 6 3 0", "5 3 6 0", "1 4 3 0", "5 2 4 0", "1 6 2 0",
             "2 1 4 0", "5 2 6 0"]
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["token", "line", "delete", "repeat"]))
    if how == "token":
        tokens = lines[i].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = _cnf_token(data)
        lines[i] = " ".join(tokens)
    elif how == "line":
        lines[i] = " ".join(_cnf_token(data) for _ in range(data.draw(st.integers(0, 5))))
    elif how == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    with open(cnf, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    codes = []
    for argv, allowed in ((["nae", "check", cnf], (0, 3)), (["nae", "solve", cnf], (0, 1, 3)),
                          (["reduce", "step1", "-i", cnf, "-o", out], (0, 3))):
        code, _, err = _run_quietly(argv)
        assert code in allowed, argv
        if code == 3:
            assert json.loads(err)["type"] == "validation"
        codes.append(code == 3)
    assert len(set(codes)) == 1


# -- graph, cut and order documents of cutval, width exact and balance -------

@pytest.fixture(scope="module")
def doc_fuzz(tmp_path_factory):
    root = tmp_path_factory.mktemp("doc-fuzz")
    return {name: root / f"{name}.json" for name in ("graph", "cut", "order", "out")}


def _draw_graph_doc(data, weighted):
    """A graph document on 1 to 8 vertices, with weights 1 to 5 if weighted."""
    n = data.draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    if not weighted:
        return graph_doc(adjacency_sets(n, edges))
    g = WeightedGraph()
    for i in range(n):
        g.add_vertex(str(i))
    for u, v in edges:
        g.add_edge(u, v, data.draw(st.integers(1, 5)))
    return weighted_graph_doc(g)


def _maybe_mutate(data, doc):
    """doc, or a copy with one value mutated as _mutate does."""
    if not data.draw(st.booleans()):
        return doc
    mutated = json.loads(json.dumps(doc))
    _mutate(data, mutated, [path for path in _paths(doc) if path])
    return mutated


def _fields_ok(records, checks):
    """Whether every record is an object whose named fields pass their checks."""
    try:
        return all(check(rec[key]) for rec in records for key, check in checks.items())
    except (KeyError, TypeError):
        return False


def _is_int(value):
    return type(value) is int


def _graph_doc_size(doc, weighted):
    """The vertex count of a graph document the loader must accept, else None:
    the loader's rules restated over the JSON text."""
    if not (isinstance(doc, dict) and doc.get("kind") == ("weighted_graph" if weighted else "graph")
            and _same_json(doc.get("format_version"), serialize.FORMAT_VERSION)
            and isinstance(doc.get("vertices"), list) and isinstance(doc.get("edges"), list)):
        return None
    vertices, edges = doc["vertices"], doc["edges"]
    n = len(vertices)

    def on_ids(x):
        return _is_int(x) and 0 <= x < n

    vertex_checks, edge_checks = {"id": _is_int}, {"u": on_ids, "v": on_ids}
    if weighted:
        vertex_checks.update(label=lambda x: isinstance(x, str), role=lambda x: x in ROLES)
        edge_checks["weight"] = lambda w: _is_int(w) and w >= 1
    if not (_fields_ok(vertices, vertex_checks) and _fields_ok(edges, edge_checks)
            and [rec["id"] for rec in vertices] == list(range(n))
            and all(rec["u"] != rec["v"] for rec in edges)):
        return None
    if weighted and len({frozenset((rec["u"], rec["v"])) for rec in edges}) != len(edges):
        return None
    return n


def _order_ok(doc, n):
    return (isinstance(doc, dict) and doc.get("kind") == "order"
            and _same_json(doc.get("format_version"), serialize.FORMAT_VERSION)
            and isinstance(doc.get("sequence"), list)
            and all(map(_is_int, doc["sequence"])) and sorted(doc["sequence"]) == list(range(n)))


def _assert_documented(code, err, allowed):
    """code is one of the allowed exit codes; 3 and 4 come with a JSON
    diagnostic of their type."""
    assert code in allowed
    if code in (3, 4):
        assert json.loads(err)["type"] == {3: "validation", 4: "budget"}[code]


_INT_OPTION = st.one_of(st.integers(-3, 40), st.integers(-10 ** 30, 10 ** 30))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cutval_documents_exit_0_3_or_4(doc_fuzz, data):
    """A graph and a cut document of up to 8 vertices, either possibly with
    one value mutated, a threshold and a small budget: `cutval` exits 0 or 4
    on documents its loader must accept, and 3 with a JSON diagnostic on the
    rest."""
    graph = _maybe_mutate(data, _draw_graph_doc(data, weighted=False))
    n = len(graph["vertices"]) if isinstance(graph.get("vertices"), list) else 0
    side = data.draw(st.lists(st.sampled_from("AB-"), min_size=n, max_size=n))
    cut = _maybe_mutate(data, {key: [v for v in range(n) if side[v] == key] for key in "AB"})
    doc_fuzz["graph"].write_text(json.dumps(graph))
    doc_fuzz["cut"].write_text(json.dumps(cut))
    argv = ["cutval", "--kind", data.draw(st.sampled_from(["mim", "sim"])),
            "-i", str(doc_fuzz["graph"]), "--cut", str(doc_fuzz["cut"]),
            "--budget", str(data.draw(st.integers(-1, 30)))]
    if data.draw(st.booleans()):
        argv += ["--threshold", str(data.draw(_INT_OPTION))]
    code, out, err = _run_quietly(argv)
    size = _graph_doc_size(graph, weighted=False)
    cut_ok = (size is not None and isinstance(cut, dict)
              and all(isinstance(cut.get(key), list) and all(map(_is_int, cut[key]))
                      and set(cut[key]) <= set(range(size)) for key in "AB")
              and not set(cut["A"]) & set(cut["B"]))
    _assert_documented(code, err, (0, 4) if cut_ok else (3,))
    if code == 0:
        assert json.loads(out)["value"] >= 0


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_width_exact_graph_documents_exit_0_3_or_4(doc_fuzz, data):
    """A graph document of up to 8 vertices, possibly with one value mutated,
    under `width exact` with any kind, layout, cap and a small budget: exit 0
    or 4 on a document the loader must accept within the cap, and 3 with a
    JSON diagnostic on the rest."""
    graph = _maybe_mutate(data, _draw_graph_doc(data, weighted=False))
    doc_fuzz["graph"].write_text(json.dumps(graph))
    cap = data.draw(st.integers(-1, 13))
    argv = ["width", "exact", "--kind", data.draw(st.sampled_from(["mim", "sim", "omim"])),
            "-i", str(doc_fuzz["graph"]), "--cap", str(cap),
            "--budget", str(data.draw(st.integers(-1, 10 ** 4)))]
    if data.draw(st.booleans()):
        argv.append("--linear")
    code, out, err = _run_quietly(argv)
    size = _graph_doc_size(graph, weighted=False)
    _assert_documented(code, err, (0, 4) if size is not None and 1 <= size <= cap else (3,))
    if code == 0:
        assert json.loads(out)["value"] >= 0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_balance_documents_exit_0_1_3_or_4(doc_fuzz, data):
    """A weighted graph of up to 8 vertices and an order of its vertices,
    either possibly with one value mutated, any integer threshold and a small
    budget.  On documents the loaders must accept, `balance check` exits 0
    or 1 as the order is balanced or not, and `balance solve` exits 0 with a
    balanced order, 1 or 4; on the rest both exit 3 with a JSON diagnostic."""
    graph = _maybe_mutate(data, _draw_graph_doc(data, weighted=True))
    n = len(graph["vertices"]) if isinstance(graph.get("vertices"), list) else 0
    order = _maybe_mutate(data, serialize.order_doc(data.draw(st.permutations(range(n)))))
    doc_fuzz["graph"].write_text(json.dumps(graph))
    doc_fuzz["order"].write_text(json.dumps(order))
    graph_path, order_path, out_path = (str(doc_fuzz[key]) for key in ("graph", "order", "out"))
    threshold = str(data.draw(_INT_OPTION))
    size = _graph_doc_size(graph, weighted=True)
    code, out, err = _run_quietly(["balance", "check", "-i", graph_path, "--order", order_path,
                                   "--threshold", threshold])
    _assert_documented(code, err, (0, 1) if size is not None and _order_ok(order, size) else (3,))
    if code in (0, 1):
        assert json.loads(out)["balanced"] is (code == 0)
    code, out, err = _run_quietly(["balance", "solve", "-i", graph_path, "--threshold", threshold,
                                   "--budget", str(data.draw(st.integers(-1, 200))),
                                   "-o", out_path])
    _assert_documented(code, err, (0, 1, 4) if size is not None else (3,))
    if code == 0:
        assert _run_quietly(["balance", "check", "-i", graph_path, "--order", out_path,
                             "--threshold", threshold])[0] == 0


HUGE_HEADERS = ["p cnf 1000000000 1", "p cnf 99999999999999999999999 1"]


@pytest.mark.parametrize("argv", [["nae", "check"], ["nae", "solve"],
                                  ["reduce", "step1", "-o", os.devnull, "-i"]],
                         ids=["nae-check", "nae-solve", "reduce-step1"])
def test_huge_cnf_variable_counts_exit_3(tmp_path, argv):
    """A header declaring 10^9 (or 10^23) variables over one clause is
    refused because variable 1 occurs once; nothing is sized by the declared
    count.  The command runs in a child process held to 1 GiB of address
    space, so code that sizes a table by it fails here with a MemoryError
    (or an OverflowError) instead of filling the host."""
    for k, header in enumerate(HUGE_HEADERS):
        path = tmp_path / f"huge{k}.cnf"
        path.write_text(header + "\n1 2 3 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "naewidth.cli", *argv, str(path)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, header
        assert json.loads(proc.stderr)["type"] == "validation"


@pytest.mark.parametrize("command", ["order", "decode"])
def test_witness_cnf_must_be_the_encoded_formula(tmp_path, capsys, command):
    """--cnf must have the document's variable count and its clauses in file
    order; the order of the variables inside a clause is free."""
    def write_cnf(name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    assert run(["nae", "gen", "-n", "6", "--seed", "0", "--sat-only"]) == 0
    header, *clauses = capsys.readouterr().out.splitlines()
    phi = write_cnf("phi.cnf", [header] + clauses)
    h_path, order_path = str(tmp_path / "H.json"), str(tmp_path / "order.json")
    assert run(["reduce", "step1", "-i", phi, "-o", h_path]) == 0
    assert run(["witness", "order", "-i", h_path, "--cnf", phi, "-o", order_path]) == 0
    assert run(["nae", "gen", "-n", "6", "--seed", "1"]) == 0
    variants = {
        "clauses-written-backwards": ([header] + [" ".join(c.split()[-2::-1]) + " 0"
                                                  for c in clauses], 0),
        "clauses-in-reverse-order": ([header] + clauses[::-1], 3),
        "another-formula": (capsys.readouterr().out.splitlines(), 3),
        "three-variables": (FOUR_COPIES.splitlines(), 3),
    }
    for name, (lines, expected) in variants.items():
        psi = write_cnf(name + ".cnf", lines)
        last = ["-o", psi + ".order.json"] if command == "order" else ["--order", order_path]
        capsys.readouterr()
        assert run(["witness", command, "-i", h_path, "--cnf", psi] + last) == expected, name
        if expected:
            err = json.loads(capsys.readouterr().err)
            assert err["type"] == "validation" and "not the formula" in err["error"]


MISSING_OPTIONS = {
    "witness-order-cnf": (["witness", "order", "-i", "H.json"], "--cnf"),
    "witness-decode-cnf": (["witness", "decode", "-i", "H.json", "--order", "o.json"], "--cnf"),
    "witness-decode-order": (["witness", "decode", "-i", "H.json", "--cnf", "f.cnf"], "--order"),
    "witness-path-mapping-order": (["witness", "path-mapping", "-i", "G.json"], "--order"),
    "witness-caterpillar-order": (["witness", "caterpillar", "-i", "S.json"], "--order"),
    "balance-check-order": (["balance", "check", "-i", "H.json", "--threshold", "36"], "--order"),
    "layout-group-hybrid": (["layout", "group", "-i", "S.json"], "--hybrid"),
    "layout-to-mapping-hybrid": (["layout", "to-mapping", "-i", "S.json"], "--hybrid"),
    "layout-project-mapping": (["layout", "project", "-i", "S.json"], "--mapping"),
}


@pytest.mark.parametrize("case", MISSING_OPTIONS)
def test_missing_option_exits_2(capsys, case):
    argv, option = MISSING_OPTIONS[case]
    assert run(argv) == 2
    assert option in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["witness", "decode", "-i", "H.json", "--cnf", "f.cnf", "--order", "o.json", "-o", "x"],
    ["balance", "check", "-i", "H.json", "--threshold", "36", "--order", "o.json",
     "--budget", "9"],
    ["layout", "project", "-i", "S.json", "--mapping", "m.json", "--owner", "0"],
], ids=["witness-decode-output", "balance-check-budget", "layout-project-owner"])
def test_option_the_action_does_not_read_exits_2(capsys, argv):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_layout_group_unknown_owner_exits_3(toy_gstar, tmp_path, capsys):
    order, layout = tmp_path / "order.json", str(tmp_path / "layout.json")
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    assert run(["witness", "caterpillar", "-i", toy_gstar, "--order", str(order),
                "-o", layout]) == 0
    argv = ["layout", "group", "-i", toy_gstar, "--hybrid", layout, "--owner"]
    assert run(argv + ["1"]) == 0
    capsys.readouterr()
    assert run(argv + ["7"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "owner 7" in err["error"]


def test_input_directory_exits_3(cnf_file, tmp_path, capsys):
    assert run(["witness", "order", "-i", str(tmp_path), "--cnf", cnf_file]) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "io"


def test_non_utf8_cnf_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c caf\xe9\n" + FOUR_COPIES.encode())
    assert run(["nae", "check", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "io"


ORDER_COMMANDS = {
    "balance-check": ("step1", ["balance", "check", "-i", "{doc}", "--order", "{order}",
                                "--threshold", "36"]),
    "witness-decode": ("step1", ["witness", "decode", "-i", "{doc}", "--cnf", "{cnf}",
                                 "--order", "{order}"]),
    "witness-path-mapping": ("step2", ["witness", "path-mapping", "-i", "{doc}", "--order", "{order}"]),
    "witness-caterpillar": ("step3", ["witness", "caterpillar", "-i", "{doc}", "--order", "{order}"]),
}
BAD_SEQUENCES = {"without-sequence": {}, "sequence-not-a-list": {"sequence": 5},
                 "sequence-of-lists": {"sequence": [[1], [2]]},
                 "format-version-1.0": {"format_version": 1.0, "sequence": [0, 1, 2]}}


# a sequence of lists covers no part, so path-mapping and caterpillar refuse it at the
# coverage check whatever the order reader does; only the other two tell the cases apart
# apart; [0, 1, 2] covers the three parts of the path-mapping graph, so only the
# format_version 1.0 refuses that document
@pytest.mark.parametrize("command, bad", [
    *itertools.product(ORDER_COMMANDS, ["without-sequence", "sequence-not-a-list"]),
    ("balance-check", "sequence-of-lists"), ("witness-decode", "sequence-of-lists"),
    ("witness-path-mapping", "format-version-1.0")])
def test_malformed_order_documents_exit_3(step_docs, cnf_file, tmp_path, capsys, command, bad):
    order = tmp_path / "bad-order.json"
    order.write_text(json.dumps({"format_version": serialize.FORMAT_VERSION, "kind": "order",
                                 **BAD_SEQUENCES[bad]}))
    step, argv = ORDER_COMMANDS[command]
    capsys.readouterr()
    assert run([arg.format(doc=step_docs[step], cnf=cnf_file, order=order) for arg in argv]) == 3
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


@pytest.mark.parametrize("argv", [["witness", "caterpillar", "--order", "{order}"],
                                  ["layout", "group", "--hybrid", "{hybrid}"],
                                  ["layout", "to-mapping", "--hybrid", "{hybrid}"]],
                         ids=["witness-caterpillar", "layout-group", "layout-to-mapping"])
def test_witness_caterpillar_refuses_paper_gstar(tmp_path, argv):
    """path([45]) at the paper profile has a 1,417,176,180-vertex G*: over the
    layout cap, so `witness caterpillar`, and `layout group` and `to-mapping`
    on a one-node hybrid tree, exit 3 before listing a vertex.  The command
    runs in a child process held to 1 GiB of address space, so code without
    the cap fails here with a MemoryError instead of filling the host."""
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 45)
    g_path, star_path = str(tmp_path / "g.json"), str(tmp_path / "gstar.json")
    assert run(["reduce", "step2", "-i", write_graph_doc(tmp_path, h), "-o", g_path]) == 0
    assert run(["reduce", "step3", "--profile", "paper", "-i", g_path, "-o", star_path]) == 0
    assert json.loads(open(star_path).read())["num_vertices"] == 1417176180
    order, hybrid = tmp_path / "order.json", tmp_path / "hybrid.json"
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    hybrid.write_text(serialize.canonical_json(
        serialize.hybrid_tree_doc(Tree({0: []}, {0: 0}))))
    proc = subprocess.run(
        [sys.executable, "-m", "naewidth.cli", *argv[:2], "-i", star_path,
         *(arg.format(order=order, hybrid=hybrid) for arg in argv[2:])],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["type"] == "validation" and "layout cap" in err["error"]


def test_layout_group_on_a_7200_vertex_caterpillar_under_1_gib(tmp_path):
    """`layout group` on the caterpillar tree layout of the `small` G* of
    path([30] * 20) (7,200 vertices) writes the hybrid tree of the library's
    group_all.  The command runs in a child process held to 1 GiB of address
    space: grouping that holds a vertex set per tree edge at once fails here
    with a MemoryError."""
    paths = {name: str(tmp_path / f"{name}.json") for name in
             ("g", "star", "order", "tree_layout", "hybrid_tree")}
    open(paths["order"], "w").write(serialize.canonical_json(serialize.order_doc(range(21))))
    for argv in (["reduce", "step2", "-i", write_graph_doc(tmp_path, path_graph([30] * 20)),
                  "-o", "{g}"],
                 ["reduce", "step3", "--profile", "small", "-i", "{g}", "-o", "{star}"],
                 ["witness", "caterpillar", "-i", "{star}", "--order", "{order}",
                  "-o", "{tree_layout}"]):
        assert run([arg.format(**paths) for arg in argv]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "naewidth.cli", "layout", "group", "-i", paths["star"],
         "--hybrid", paths["tree_layout"], "-o", paths["hybrid_tree"]],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(naewidth.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    star = serialize.gstar_from_doc(json.loads(open(paths["star"]).read()))
    assert star.n == 7200
    layout = serialize.tree_layout_from_doc(json.loads(open(paths["tree_layout"]).read()))
    grouped = red3.group_all(star, red3.hybrid_from_layout(layout))
    assert open(paths["hybrid_tree"]).read() == serialize.canonical_json(
        serialize.hybrid_tree_doc(grouped))


def test_width_survey_script_runs_from_any_directory(tmp_path):
    """The script finds the package beside itself, not under the working directory."""
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "width_survey.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, script, "-n", "4"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "chain violations: 0" in proc.stdout


def test_run_pipeline_script_runs_from_any_directory(tmp_path):
    """The end-to-end demo builds the 1,992,096-vertex G* of the seeded n=6
    formula at `small` through ensure_divisible and build_Gstar."""
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "run_pipeline.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, script, "-n", "6", "--seed", "0"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "step 3: G* has 1992096 vertices" in proc.stdout


@pytest.fixture(scope="module")
def paper_docs(tmp_path_factory):
    """Paths of the step-1, step-2 and step-3 documents of the four-copies
    formula at the paper profile, each step run once on the one before's."""
    root = tmp_path_factory.mktemp("paper")
    source = root / "f.cnf"
    source.write_text(FOUR_COPIES)
    paths = {}
    for step in ("step1", "step2", "step3"):
        paths[step] = str(root / f"{step}.json")
        assert run(["reduce", step, "--profile", "paper", "-i", str(source),
                    "-o", paths[step]]) == 0
        source = paths[step]
    return paths


def test_reduce_step2_paper_profile(paper_docs):
    """Step 2 at the paper profile: 53.5 M G-vertices, audited per block."""
    doc = json.loads(open(paper_docs["step2"]).read())
    edges = doc["base"]["edges"]
    total = sum(e["weight"] for e in edges)
    assert doc["num_vertices"] == 2 * total == sum(b["size"] for b in doc["blocks"]) == 53513200
    degree = {}
    for e in edges:
        for x in (e["u"], e["v"]):
            degree[x] = degree.get(x, 0) + e["weight"]
    # I(u, v) meets the 2W - 2(d_u + d_v - w_uv) vertices of blocks off u and v;
    # summing over blocks counts every dummy edge from both ends
    dummy = sum(b["size"] * (total - degree[b["u"]] - degree[b["v"]] + b["size"])
                for b in doc["blocks"])
    assert serialize.partitioned_from_doc(doc).num_dummy_edges() == dummy == 1431702834898112


def test_gadget_document_version_1_exits_3(toy_gstar, step_docs, tmp_path, capsys):
    """Version-1 gadget documents listed every path entry; they are refused."""
    doc = json.loads(open(toy_gstar).read())
    star = serialize.gstar_from_doc(doc)
    doc["format_version"] = 1
    for rec in doc["gadgets"]:
        gadget = star.gadget(rec["owner"])
        rec["path"] = [{"tag": tag, "gvid": gv}
                       for tag, gv in (gadget_entry(star.GS, star.constants.a, gadget, pos)
                                       for pos in range(gadget.plen))]
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["witness", "caterpillar", "-i", str(old), "--order", step_docs["order"]]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation" and "unsupported format_version" in err["error"]


def test_reduce_lays_out_one_partitioned_graph(cnf_file, tmp_path, monkeypatch):
    """`reduce all` and `reduce step3` lay (G, S) out once: step 3 scales that
    block table by a (3 at small) instead of laying out a scaled copy of H.
    Loading the step-3 document lays it out once as well."""
    built = []
    init = red2.PartitionedGraph.__init__

    def counted(self, h):
        built.append(h)
        init(self, h)

    def layouts(argv):
        built.clear()
        assert run(argv) == 0
        return len(built)

    monkeypatch.setattr(red2.PartitionedGraph, "__init__", counted)
    prefix = str(tmp_path / "r")
    assert layouts(["reduce", "all", "-i", cnf_file, "-o", prefix]) == 1
    step3 = json.loads(open(prefix + ".step3.json").read())
    assert step3["weight_scale"] == 3
    assert layouts(["reduce", "step3", "-i", prefix + ".step2.json",
                    "-o", str(tmp_path / "s.json")]) == 1
    assert file_sha(tmp_path / "s.json") == file_sha(prefix + ".step3.json")
    built.clear()
    serialize.gstar_from_doc(step3)
    assert len(built) == 1


def test_reduce_all_makes_no_gadget(tmp_path, monkeypatch):
    """`reduce all --profile small` on the seeded n=6 formula (2,173
    H-vertices) and loading its step-3 document make no Gadget object: the
    gadget rows are arithmetic on the block table."""
    made = []
    init = red3.Gadget.__init__

    def counted(self, *args):
        made.append(args[1])
        init(self, *args)

    rng = random.Random(0)
    f = random_strict_formula(6, rng)
    while brute_force_nae(f) is None:
        f = random_strict_formula(6, rng)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(emit_nae_dimacs(f))
    monkeypatch.setattr(red3.Gadget, "__init__", counted)
    prefix = str(tmp_path / "r")
    assert run(["reduce", "all", "--profile", "small", "-i", str(cnf), "-o", prefix]) == 0
    star = serialize.gstar_from_doc(json.loads(open(prefix + ".step3.json").read()))
    assert len(star.parts()) == 2173 and made == []


def test_reduce_step3_paper_profile(paper_docs):
    """Step 3 at the paper profile: |V(G*)| = 2·a·b·|V(G)| ≈ 3.8e16, built per block."""
    g_path, star_path = paper_docs["step2"], paper_docs["step3"]
    n_g = json.loads(open(g_path).read())["num_vertices"]
    doc = json.loads(open(star_path).read())
    c = doc["constants"]
    assert n_g == 53513200
    assert doc["format_version"] == 2 and doc["weight_scale"] == c["a"] == 45
    assert doc["num_vertices"] == 2 * c["a"] * c["b"] * n_g == 37918816177788000
    # only at paper does the step-3 base carry H's weights times a (= 45)
    assert file_sha(g_path) == "7a057cafc21ccad91f1dc12f6ebf055197c00533a798378ae939866e823f4532"
    assert file_sha(star_path) == "fb1fce30646e34253caa6ab93e138be588aa85ce7ce8847ac025f7ae643e3a9d"


def test_json_nested_too_deeply_is_a_validation_error(tmp_path):
    """A document nested deeper than the JSON decoder's recursion guard is
    refused as invalid JSON, not answered NO with a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = _run_quietly(["cutval", "--kind", "mim", "-i", str(deep), "--cut", str(deep)])
    assert (code, out) == (3, "")
    assert json.loads(err)["type"] == "validation"


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_a_crash_exits_4_as_a_resource_budget(monkeypatch, error):
    """A handler that runs out of stack or memory exits 4 with a JSON
    diagnostic of type "resource", never 1 (the NO answer)."""
    def crash(args):
        raise error("out of it")

    monkeypatch.setitem(naewidth.cli._HANDLERS, "cutval", crash)
    code, out, err = _run_quietly(["cutval", "--kind", "mim", "-i", "g.json", "--cut", "c.json"])
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": f"{error.__name__}: out of it", "type": "resource"}


def test_cutval_on_a_long_induced_matching_exits_4(tmp_path):
    """The clique search recurses once per candidate edge, so the 1,200
    edges of an induced matching across the cut overflow Python's stack.
    That is a resource exit (4) with a JSON diagnostic, not a NO; it becomes
    an answer once the clique search keeps its own stack."""
    n = 1200
    graph, cut = tmp_path / "g.json", tmp_path / "cut.json"
    graph.write_text(json.dumps(graph_doc(adjacency_sets(2 * n, [(i, n + i) for i in range(n)]))))
    cut.write_text(json.dumps({"A": list(range(n)), "B": list(range(n, 2 * n))}))
    code, out, err = _run_quietly(["cutval", "--kind", "mim", "-i", str(graph), "--cut", str(cut)])
    assert (code, out) == (4, "")
    assert json.loads(err)["type"] == "resource"
