"""Pinned document bytes.

Round-trip tests only show that a document reloads to itself; these pin the
sha256 of the canonical JSON of fixed inputs, so any change in the bytes a
tree document, a width witness or a CLI output carries fails here.
"""

import hashlib
import json

from naewidth import serialize
from naewidth.cli import run
from naewidth.red1 import SMALL
from naewidth.red2 import build_partitioned, path_mapping_from_order
from naewidth.red3 import (build_Gstar, caterpillar_layout, group_all, hybrid_from_layout,
                           hybrid_to_tree_mapping)
from naewidth.tree import path
from naewidth.widths import exact_width, linear_layout_from_order

from conftest import (adj_fn, adjacency_sets, balancing_tree_doc, graph_doc, path_graph,
                      solve_balancing_tree, star_graph, weighted_graph_doc)

FOUR_COPIES = "p cnf 3 4\n" + "1 2 3 0\n" * 4

G7_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (1, 5), (2, 6)]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def doc_sha(doc):
    return sha(serialize.canonical_json(doc))


def toy(weights):
    gs = build_partitioned(path_graph(weights))
    star = build_Gstar(gs, SMALL)
    return gs, star, hybrid_from_layout(caterpillar_layout(star, sorted(star.parts())))


def library_docs():
    gs, star, ht = toy([3, 3])
    grouped = group_all(star, ht)
    g7 = adjacency_sets(7, G7_EDGES)
    return {
        "balancing_tree/path": balancing_tree_doc(path([2, 0, 3, 1])),
        "balancing_tree/star": balancing_tree_doc(
            solve_balancing_tree(star_graph([2, 2, 2, 2]), 3)),
        "tree_mapping/path": serialize.tree_mapping_doc(path_mapping_from_order(gs, [2, 0, 1])),
        "tree_mapping/contracted": serialize.tree_mapping_doc(
            hybrid_to_tree_mapping(star, grouped)),
        "tree_layout/linear": serialize.tree_layout_doc(linear_layout_from_order([4, 2, 7, 5, 1])),
        "tree_layout/general": serialize.tree_layout_doc(
            exact_width(adj_fn(g7), range(7), "sim")[1]),
        "hybrid_tree/grouped": serialize.hybrid_tree_doc(grouped),
    }


LIBRARY_SHA = {
    "balancing_tree/path":
        "90ae8f41e72be50220bbdd4f631de03e1941dc0e3dcc7d6e0a7809c1bcf9799b",
    "balancing_tree/star":
        "8b83e7cfe3297a1a0977207b15e18c35f8c825e1d0ebd71e4c4398fef35de555",
    "tree_mapping/path":
        "20626097024de3726a2f78eb614c8f53f1dbe9b346610e49a2be5f584cb2560e",
    "tree_mapping/contracted":
        "5df5a4a1a31394e326bca3508383805379eb9751ae5f5a8209019b50930e9f08",
    "tree_layout/linear":
        "314b00e4af4689db646f6e1535d7b7de43fe50212561b305fe4a251d81cb52c1",
    "tree_layout/general":
        "bf2bf7b126ed6c2922af2dd91b6547b8cef9ae75abb863c5e0ec8a5c9b8d6f5c",
    "hybrid_tree/grouped":
        "5b0c4fb6a2956d52149ff299858cee6f5ba2763c225febf3b39f493baafe3cec",
}


def test_tree_document_bytes_pinned():
    got = {name: doc_sha(doc) for name, doc in library_docs().items()}
    assert got == LIBRARY_SHA


def width_outputs(tmp_path, capsys, names):
    g7 = tmp_path / "g7.json"
    g7.write_text(serialize.canonical_json(graph_doc(adjacency_sets(7, G7_EDGES))))
    out = {}
    for name in names:
        kind, *linear = name.split("-")
        assert run(["width", "exact", "--kind", kind, "-i", str(g7)]
                   + ["--linear"] * len(linear)) == 0
        out[f"width/{name}"] = capsys.readouterr().out
    return out


def cli_outputs(tmp_path, capsys):
    out = width_outputs(tmp_path, capsys, ("mim", "sim", "omim", "mim-linear", "omim-linear"))

    h = tmp_path / "h.json"
    h.write_text(serialize.canonical_json(weighted_graph_doc(path_graph([3]))))
    g, gstar = str(tmp_path / "g.json"), str(tmp_path / "gstar.json")
    assert run(["reduce", "step2", "-i", str(h), "-o", g]) == 0
    assert run(["reduce", "step3", "--profile", "small", "-i", g, "-o", gstar]) == 0
    order = tmp_path / "order.json"
    order.write_text(serialize.canonical_json(serialize.order_doc([0, 1])))
    layout = tmp_path / "layout.json"
    assert run(["witness", "caterpillar", "-i", gstar, "--order", str(order),
                "-o", str(layout)]) == 0
    out["witness/caterpillar"] = layout.read_text()
    assert run(["layout", "group", "-i", gstar, "--hybrid", str(layout)]) == 0
    out["layout/group"] = capsys.readouterr().out

    cnf = tmp_path / "f.cnf"
    cnf.write_text(FOUR_COPIES)
    prefix = str(tmp_path / "all")
    assert run(["reduce", "all", "--profile", "small", "-i", str(cnf), "-o", prefix]) == 0
    source = str(cnf)
    for step in ("step1", "step2", "step3"):
        out[f"reduce/{step}"] = open(f"{prefix}.{step}.json").read()
        path = str(tmp_path / f"{step}.json")
        assert run(["reduce", step, "--profile", "small", "-i", source, "-o", path]) == 0
        assert open(path).read() == out[f"reduce/{step}"]  # one step at a time, same bytes
        source = path
    return out


CLI_SHA = {
    "width/mim":
        "266cd45b12e9f99a1dba0807be8c1978e961a9b01d7aebb9f92e282afbdf9d3c",
    "width/sim":
        "6144223d416d8e85c3b525e981614ae12881c52173bacf3e85bc2b36aa50de65",
    "width/omim":
        "865e1eb57525a0773e10d0e156f6b6759c7f9684452fb5bfadf8601c75a1eafc",
    "width/mim-linear":
        "5deb3e5096d9da70a97510e22c2c5aeec1be05ee03ba68f4a4b021d3766238c8",
    "width/omim-linear":
        "c20579ff527b41fe2cc6e36cde06345dceae14cab6014feb88a3f7e312745920",
    "witness/caterpillar":
        "eec1c3c8124fcd792b64cd60845dce4065758711fe32342d8dafc5135002166a",
    "layout/group":
        "83c6d1f5b081fc2d7db7e2f49fd74f3ef5c92a5e7031791e6b224e4dcfa3fe0b",
    "reduce/step1":
        "f4702eb4ced70c230d559b55cb7d2408d4fa329a0905f2e08c08f50280158409",
    "reduce/step2":
        "b7f4acab02bf93b51f9193692c8e41563bca5bc8eac832f492559057055038ad",
    "reduce/step3":
        "f03b843368468b0eb5d0f8514a5d653bd18433fb757d7eabb29ef63a73038a62",
}


def test_cli_output_bytes_pinned(tmp_path, capsys):
    got = {name: sha(text) for name, text in cli_outputs(tmp_path, capsys).items()}
    assert got == CLI_SHA


# The linear reports without nodes_explored, a count that follows which cut
# values the order search asks for: their value and witness bytes alone.
LINEAR_SHA = {
    "width/mim-linear":
        "360cb911edc931f3812b5f2eb21f546731955db2ad44ad6f7e797b227443e876",
    "width/omim-linear":
        "7643bc1ecfc1d2518956bee7e13980dd8a17646f135dcf6ff51b51969b93ac62",
}


def test_linear_width_values_and_witnesses_pinned(tmp_path, capsys):
    got = {}
    for name, text in width_outputs(tmp_path, capsys, ("mim-linear", "omim-linear")).items():
        report = json.loads(text)
        del report["nodes_explored"]
        got[name] = doc_sha(report)
    assert got == LINEAR_SHA
