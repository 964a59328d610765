import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth import serialize
from naewidth.errors import ValidationError
from naewidth.formula import parse_nae_dimacs, random_strict_formula
from naewidth.red1 import PROFILES, SMALL, build_H
from naewidth.red2 import build_partitioned, path_mapping_from_order
from naewidth.red3 import build_Gstar, caterpillar_layout, group_all, hybrid_from_layout
from naewidth.tree import Tree, path
from naewidth.wgraph import WeightedGraph
from naewidth.widths import linear_layout_from_order

from conftest import NON_BIJECTIVE_PLACEMENTS, random_weighted_graph

FOUR_COPIES = parse_nae_dimacs("p cnf 3 4\n" + "1 2 3 0\n" * 4)


def graph_equal(a, b):
    return (a.labels == b.labels and a.roles == b.roles
            and sorted(a.edges()) == sorted(b.edges()))


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_weighted_graph_round_trip(seed, n):
    g = random_weighted_graph(random.Random(seed), n, p=0.5)
    doc = serialize.weighted_graph_doc(g)
    back = serialize.weighted_graph_from_doc(doc)
    assert graph_equal(g, back)
    assert serialize.weighted_graph_doc(back) == doc


def test_weighted_graph_doc_rejects_sparse_ids():
    doc = {"format_version": 1, "kind": "weighted_graph",
           "vertices": [{"id": 1, "label": "", "role": "plain"}], "edges": []}
    with pytest.raises(ValidationError, match="dense"):
        serialize.weighted_graph_from_doc(doc)


def test_hbuild_round_trip():
    build = build_H(FOUR_COPIES, SMALL)
    doc = serialize.hbuild_doc(build)
    back = serialize.hbuild_from_doc(doc)
    assert graph_equal(build.graph, back.graph)
    assert back.constants == build.constants
    assert back.vx == build.vx and back.cvert == build.cvert
    assert back.pad_assign == build.pad_assign
    assert back.hprime_weights == build.hprime_weights
    assert serialize.hbuild_doc(back) == doc


@pytest.mark.parametrize("n, profile", [(3, "small"), (6, "small"), (9, "small"),
                                        (12, "small"), (6, "paper")])
def test_hbuild_reload_is_the_build(n, profile):
    """Reloading a step-1 document of a seeded strict formula rebuilds that
    formula: the reloaded build writes the same document."""
    f = random_strict_formula(n, random.Random(n))
    doc = serialize.hbuild_doc(build_H(f, PROFILES[profile]))
    back = serialize.hbuild_from_doc(json.loads(serialize.canonical_json(doc)))
    assert back.formula.clauses == tuple(tuple(sorted(c)) for c in f.clauses)
    assert serialize.hbuild_doc(back) == doc


def test_partitioned_round_trip_with_edges():
    h = WeightedGraph()
    for i in range(4):
        h.add_vertex(str(i))
    h.add_edge(0, 1, 2)
    h.add_edge(2, 3, 2)
    gs = build_partitioned(h)
    doc = serialize.partitioned_doc(gs)
    assert len(doc["edges"]) == 20  # 4 matching + 16 dummy, explicitly listed
    back = serialize.partitioned_from_doc(doc)
    assert back.n == gs.n and back.block_pairs == gs.block_pairs
    assert serialize.partitioned_doc(back) == doc


def test_partitioned_doc_omits_huge_edge_lists():
    build = build_H(FOUR_COPIES, SMALL)
    gs = build_partitioned(build.graph)
    doc = serialize.partitioned_doc(gs)
    assert "edges" not in doc
    assert doc["num_vertices"] == gs.n == 2 * build.graph.total_weight()
    back = serialize.partitioned_from_doc(doc)
    assert back.n == gs.n


def test_gstar_round_trip():
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 3)
    gs = build_partitioned(h)
    star = build_Gstar(gs, SMALL)
    doc = serialize.gstar_doc(star)
    assert "edges" in doc  # 36 vertices: small enough to list
    back = serialize.gstar_from_doc(doc)
    assert back.n == star.n
    assert serialize.gstar_doc(back) == doc


def test_order_round_trip():
    order = [3, 1, 2, 0]
    assert serialize.order_from_doc(serialize.order_doc(order)) == order


@given(st.permutations(range(7)))
@settings(max_examples=40)
def test_order_round_trip_quantified(order):
    order = list(order)
    doc = serialize.order_doc(order)
    assert serialize.order_from_doc(json.loads(json.dumps(doc))) == order


@given(st.permutations(range(6)))
@settings(max_examples=25)
def test_linear_layout_round_trip_quantified(order):
    layout = linear_layout_from_order(list(order))
    doc = serialize.tree_layout_doc(layout)
    back = serialize.tree_layout_from_doc(json.loads(json.dumps(doc)))
    assert back.leaf_order == list(order)
    assert serialize.tree_layout_doc(back) == doc


@given(st.permutations(range(6)))
@settings(max_examples=25)
def test_balancing_tree_round_trip_quantified(order):
    bt = path(order)
    doc = serialize.balancing_tree_doc(bt)
    back = serialize.balancing_tree_from_doc(json.loads(json.dumps(doc)))
    assert back.placement == bt.placement
    assert serialize.balancing_tree_doc(back) == doc


def test_balancing_tree_round_trip():
    bt = path([2, 0, 1])
    doc = serialize.balancing_tree_doc(bt)
    back = serialize.balancing_tree_from_doc(doc)
    assert back.tree_adj.keys() == bt.tree_adj.keys()
    assert back.placement == bt.placement
    assert serialize.balancing_tree_doc(back) == doc


@pytest.mark.parametrize("case", NON_BIJECTIVE_PLACEMENTS)
def test_balancing_tree_doc_refuses_a_non_bijective_placement(case):
    doc = serialize.balancing_tree_doc(Tree(*NON_BIJECTIVE_PLACEMENTS[case]))
    with pytest.raises(ValidationError, match="bijection"):
        serialize.balancing_tree_from_doc(json.loads(json.dumps(doc)))


def test_tree_mapping_round_trip():
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 2)
    gs = build_partitioned(h)
    mapping = path_mapping_from_order(gs, [1, 0])
    doc = serialize.tree_mapping_doc(mapping)
    back = serialize.tree_mapping_from_doc(doc)
    assert back.part_at == mapping.part_at and back.is_path
    assert serialize.tree_mapping_doc(back) == doc


def test_tree_layout_round_trip():
    layout = linear_layout_from_order([4, 2, 7, 5])
    doc = serialize.tree_layout_doc(layout)
    back = serialize.tree_layout_from_doc(doc)
    assert back.leaf_vertex == layout.leaf_vertex
    assert back.leaf_order == layout.leaf_order
    assert serialize.tree_layout_doc(back) == doc


def test_hybrid_tree_round_trip():
    h = WeightedGraph()
    h.add_vertex("u")
    h.add_vertex("v")
    h.add_edge(0, 1, 3)
    gs = build_partitioned(h)
    star = build_Gstar(gs, SMALL)
    ht = group_all(star, hybrid_from_layout(caterpillar_layout(star, [0, 1])))
    doc = serialize.hybrid_tree_doc(ht)
    back = serialize.hybrid_tree_from_doc(doc)
    assert back.placement == ht.placement
    assert serialize.hybrid_tree_doc(back) == doc


def test_unweighted_graph_doc_round_trip():
    adj = {0: {1, 2}, 1: {0}, 2: {0}, 3: set()}
    doc = serialize.graph_doc(adj)
    assert all("weight" not in e for e in doc["edges"])
    assert serialize.graph_from_doc(json.loads(json.dumps(doc))) == adj
    # weighted documents are accepted too, weights ignored
    g = WeightedGraph()
    for i in range(3):
        g.add_vertex(str(i))
    g.add_edge(0, 2, 7)
    wdoc = serialize.weighted_graph_doc(g)
    assert serialize.graph_from_doc(wdoc) == {0: {2}, 1: set(), 2: {0}}


def test_canonical_json_is_stable():
    build = build_H(FOUR_COPIES, SMALL)
    text1 = serialize.canonical_json(serialize.hbuild_doc(build))
    build2 = build_H(FOUR_COPIES, SMALL)
    text2 = serialize.canonical_json(serialize.hbuild_doc(build2))
    assert text1 == text2
    assert text1.endswith("\n")
    json.loads(text1)
