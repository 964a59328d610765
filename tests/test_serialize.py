import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth import serialize
from naewidth.errors import ValidationError
from naewidth.formula import parse_nae_dimacs, random_strict_formula
from naewidth.cli import run
from naewidth.red1 import PROFILES, SMALL, Constants, build_H
from naewidth.red2 import PartitionedGraph, build_partitioned, path_mapping_from_order
from naewidth.red3 import (build_Gstar, caterpillar_layout, ensure_divisible, group_all,
                           hybrid_from_layout)
from naewidth.tree import Tree, path
from naewidth.wgraph import ROLES, WeightedGraph
from naewidth.widths import linear_layout_from_order

from conftest import (NON_BIJECTIVE_PLACEMENTS, balancing_tree_doc, balancing_tree_from_doc,
                      graph_doc, path_graph, random_weighted_graph,
                      reference_gstar_doc, reference_graph_doc, reference_hbuild_doc,
                      reference_partitioned_doc, weighted_graph_doc)

FOUR_COPIES = parse_nae_dimacs("p cnf 3 4\n" + "1 2 3 0\n" * 4)


def graph_equal(a, b):
    return (a.labels == b.labels and a.roles == b.roles
            and sorted(a.edges()) == sorted(b.edges()))


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_weighted_graph_round_trip(seed, n):
    g = random_weighted_graph(random.Random(seed), n, p=0.5)
    doc = weighted_graph_doc(g)
    back = serialize.weighted_graph_from_doc(doc)
    assert graph_equal(g, back)
    assert weighted_graph_doc(back) == doc


def assert_ascending(g):
    assert all(x < y for lst in g.adj for (x, _), (y, _) in zip(lst, lst[1:]))


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("profile", [SMALL, PROFILES["paper"], Constants(12, 1, 2, 1, 1)],
                         ids=["small", "paper", "custom:12,1,2,1,1"])
def test_build_H_adjacency_is_ascending(profile, n):
    assert_ascending(build_H(random_strict_formula(n, random.Random(n)), profile).graph)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_added_and_loaded_adjacency_is_ascending(seed, n):
    """add_edge in any order, and a document with its edge records shuffled
    and turned around, give strictly ascending adjacency lists."""
    rng = random.Random(seed)
    edges = list(random_weighted_graph(rng, n, p=0.5).edges())
    rng.shuffle(edges)
    g = WeightedGraph()
    for i in range(n):
        g.add_vertex(f"v{i}")
    for u, v, w in edges:
        g.add_edge(*rng.sample((u, v), 2), w)
    assert_ascending(g)
    doc = weighted_graph_doc(g)
    rng.shuffle(doc["edges"])
    for rec in doc["edges"]:
        if rng.random() < 0.5:
            rec["u"], rec["v"] = rec["v"], rec["u"]
    back = serialize.weighted_graph_from_doc(doc)
    assert_ascending(back)
    assert (back.start, back.nbr, back.wt) == (g.start, g.nbr, g.wt)


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
    assert back.hprime_n == build.hprime_n
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


TINY = "custom:12,1,2,1,1"  # a = b = 1: step 3 keeps the weights, and G* has 2|V(G)| vertices
PROFILE_CONSTANTS = {"small": SMALL, TINY: Constants(tau=12, gamma=1, lam=2, a=1, b=1)}


@given(n=st.sampled_from([3, 6, 9]), seed=st.integers(0, 10 ** 6),
       profile=st.sampled_from(sorted(PROFILE_CONSTANTS)))
@settings(max_examples=30, deadline=None)
def test_step_writers_write_the_reference_encoding(n, seed, profile):
    """For a random strict formula, every step writer's text is canonical_json
    of the reference record dicts in conftest: step 1; step 2 written around
    the step-1 meta and spliced around the step-1 text; step 3 both ways,
    its base carrying H's weights times the step-3 scale (3 at small)."""
    c = PROFILE_CONSTANTS[profile]
    build = build_H(random_strict_formula(n, random.Random(seed)), c)
    meta = serialize._hbuild_meta(build)
    step1 = serialize.hbuild_text(build)
    assert step1 == serialize.canonical_json(reference_hbuild_doc(build))
    gs = build_partitioned(build.graph)
    step2 = serialize.canonical_json(reference_partitioned_doc(gs, meta))
    assert serialize.partitioned_text(gs, base_meta=meta) == step2
    assert serialize.partitioned_text(gs, base=step1) == step2
    gs, scale = ensure_divisible(gs, c)
    assert scale == (3 if profile == "small" else 1)
    star = build_Gstar(gs, c)
    step3 = serialize.canonical_json(reference_gstar_doc(star, meta, scale))
    assert serialize.gstar_text(star, base_meta=meta, weight_scale=scale) == step3
    assert serialize.gstar_text(star, weight_scale=scale, base=step1) == step3


@pytest.fixture(scope="module")
def writer_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("writers")
    return {name: str(root / f"{name}.json") for name in ("H", "step2", "step3")}


def _reduce_texts(files, h, profile):
    """The step-2 and step-3 texts `reduce step2` and `reduce step3` write
    for H, and the reference encodings of both."""
    c = PROFILE_CONSTANTS[profile]
    with open(files["H"], "w") as fh:
        fh.write(serialize.canonical_json(reference_graph_doc(h)))
    assert run(["reduce", "step2", "-i", files["H"], "-o", files["step2"]]) == 0
    assert run(["reduce", "step3", "--profile", profile, "-i", files["step2"],
                "-o", files["step3"]]) == 0
    gs = build_partitioned(h)
    gs3, scale = ensure_divisible(gs, c)
    written = [open(files[step]).read() for step in ("step2", "step3")]
    return written, [serialize.canonical_json(reference_partitioned_doc(gs)),
                     serialize.canonical_json(reference_gstar_doc(build_Gstar(gs3, c), None, scale))]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reduce_writes_the_reference_encoding(writer_files, data):
    """`reduce step2` and `reduce step3` on a random weighted graph of 2 to 5
    vertices, labelled by arbitrary text (non-ASCII, quotes, backslashes,
    control characters), write canonical_json of the reference documents.
    A path through all vertices keeps each one on an edge, as step 3 needs."""
    n = data.draw(st.integers(2, 5))
    h = WeightedGraph()
    for _ in range(n):
        h.add_vertex(data.draw(st.text(max_size=8)), data.draw(st.sampled_from(ROLES)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    chosen += [(u, u + 1) for u in range(n - 1) if (u, u + 1) not in chosen]
    for u, v in data.draw(st.permutations(chosen)):
        h.add_edge(*data.draw(st.permutations((u, v))), data.draw(st.integers(1, 40)))
    written, reference = _reduce_texts(writer_files, h, data.draw(st.sampled_from(
        sorted(PROFILE_CONSTANTS))))
    assert written == reference


def _disjoint_edges(w):
    h = WeightedGraph()
    for label in "abcd":
        h.add_vertex(label)
    h.add_edge(0, 1, w)
    h.add_edge(2, 3, w)
    return h


@pytest.mark.parametrize("h, profile, listed", [
    (path_graph([3]), "small", (True, True)),
    (path_graph([3, 3]), TINY, (True, True)),
    (_disjoint_edges(37), TINY, (False, False)),  # 148 G-vertices, 4·37·37 dummy edges > 5000
    (path_graph([80]), TINY, (False, False)),     # 160 G-vertices > 150
], ids=["both-listed", "tiny-both-listed", "too-many-edges", "too-many-vertices"])
def test_writers_list_explicit_edges_below_the_limits(writer_files, h, profile, listed):
    """Both sides of the explicit-edge limits: a step-2 or step-3 document
    lists its edges only up to 150 vertices and 5000 edges, and `reduce`
    writes the reference encoding either way."""
    written, reference = _reduce_texts(writer_files, h, profile)
    assert written == reference
    assert tuple("edges" in json.loads(text) for text in written) == listed


def test_step2_edge_limit_is_checked_before_asking_the_oracle(monkeypatch):
    """A step-2 graph whose table counts more than 5000 edges is written and
    loaded without one oracle call: two disjoint weight-37 H-edges give 148
    G-vertices and 74 + 4·37² = 5550 edges."""
    gs = build_partitioned(_disjoint_edges(37))
    assert (gs.n, gs.num_matching_edges() + gs.num_dummy_edges()) == (148, 5550)
    calls = []
    adjacent = PartitionedGraph.adjacent
    monkeypatch.setattr(PartitionedGraph, "adjacent",
                        lambda g, p, q: calls.append((p, q)) or adjacent(g, p, q))
    text = serialize.partitioned_text(gs)
    back = serialize.partitioned_from_doc(json.loads(text))
    assert "edges" not in json.loads(text) and back.n == gs.n
    assert calls == []


def test_step_documents_audit_h_once(tmp_path, monkeypatch):
    """Reading a step-2 or step-3 document, or the input of `reduce step2`,
    runs check_simple on H once when the base is a plain weighted graph (in
    weighted_graph_from_doc) and never when it is a step-1 document, whose H
    is the rebuild of its formula."""
    build = build_H(FOUR_COPIES, SMALL)
    calls = []
    check_simple = WeightedGraph.check_simple
    monkeypatch.setattr(WeightedGraph, "check_simple", lambda g: calls.append(g) or check_simple(g))
    for text, audits in ((serialize.weighted_graph_text(build.graph), 1),
                         (serialize.hbuild_text(build), 0)):
        h_path, g_path, star_path = (str(tmp_path / name) for name in ("h", "g", "star"))
        with open(h_path, "w") as fh:
            fh.write(text)
        for argv, load, path in (
                (["reduce", "step2", "-i", h_path, "-o", g_path], serialize.partitioned_from_doc,
                 g_path),
                (["reduce", "step3", "--profile", "small", "-i", g_path, "-o", star_path],
                 serialize.gstar_from_doc, star_path)):
            calls.clear()
            assert run(argv) == 0 and len(calls) == audits
            with open(path) as fh:
                doc = json.load(fh)
            calls.clear()
            load(doc)
            assert len(calls) == audits


def _keys_reversed(value):
    if isinstance(value, dict):
        return {key: _keys_reversed(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_keys_reversed(item) for item in value]
    return value


def test_step_loaders_take_any_key_order():
    """The loaders compare values, not text: the step documents of the
    four-copies formula at small, with every object's keys reversed, load as
    the originals do."""
    build = build_H(FOUR_COPIES, SMALL)
    gs, scale = ensure_divisible(build_partitioned(build.graph), SMALL)
    step1 = serialize.hbuild_text(build)
    texts = [step1, serialize.partitioned_text(build_partitioned(build.graph), base=step1),
             serialize.gstar_text(build_Gstar(gs, SMALL), weight_scale=scale, base=step1)]
    loaders = [serialize.hbuild_from_doc, serialize.partitioned_from_doc, serialize.gstar_from_doc]
    for text, load in zip(texts, loaders):
        reordered = _keys_reversed(json.loads(text))
        assert list(reordered) != list(json.loads(text))
        assert serialize.canonical_json(reordered) == text
        load(reordered)


def test_typed_answers_on_deep_nesting():
    """The type check walks an explicit stack, so a document nested deeper
    than the recursion limit gets an answer, not a RecursionError."""
    deep, bad = {"a": 1}, {"a": 1.5}
    for _ in range(5000):
        deep, bad = [deep, "x"], [bad, "x"]
    assert serialize._typed(deep) is True
    assert serialize._typed(bad) is False


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
    assert [back.leaf_vertex[x] for x in sorted(back.leaf_vertex)] == list(order)
    assert serialize.tree_layout_doc(back) == doc


@given(st.permutations(range(6)))
@settings(max_examples=25)
def test_balancing_tree_round_trip_quantified(order):
    bt = path(order)
    doc = balancing_tree_doc(bt)
    back = balancing_tree_from_doc(json.loads(json.dumps(doc)))
    assert back.placement == bt.placement
    assert balancing_tree_doc(back) == doc


def test_balancing_tree_round_trip():
    bt = path([2, 0, 1])
    doc = balancing_tree_doc(bt)
    back = balancing_tree_from_doc(doc)
    assert back.tree_adj.keys() == bt.tree_adj.keys()
    assert back.placement == bt.placement
    assert balancing_tree_doc(back) == doc


@pytest.mark.parametrize("case", NON_BIJECTIVE_PLACEMENTS)
def test_balancing_tree_doc_refuses_a_non_bijective_placement(case):
    doc = balancing_tree_doc(Tree(*NON_BIJECTIVE_PLACEMENTS[case]))
    with pytest.raises(ValidationError, match="bijection"):
        balancing_tree_from_doc(json.loads(json.dumps(doc)))


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
    doc = graph_doc(adj)
    assert all("weight" not in e for e in doc["edges"])
    assert serialize.graph_from_doc(json.loads(json.dumps(doc))) == adj
    # weighted documents are accepted too, weights ignored
    g = WeightedGraph()
    for i in range(3):
        g.add_vertex(str(i))
    g.add_edge(0, 2, 7)
    wdoc = weighted_graph_doc(g)
    assert serialize.graph_from_doc(wdoc) == {0: {2}, 1: set(), 2: {0}}


def test_canonical_json_is_stable():
    build = build_H(FOUR_COPIES, SMALL)
    text1 = serialize.canonical_json(serialize.hbuild_doc(build))
    build2 = build_H(FOUR_COPIES, SMALL)
    text2 = serialize.canonical_json(serialize.hbuild_doc(build2))
    assert text1 == text2
    assert text1.endswith("\n")
    json.loads(text1)
