import itertools
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth.errors import CapExceededError, ValidationError
from naewidth.matchings import DEFAULT_BUDGET
from naewidth.red1 import SMALL, Constants
from naewidth.red2 import (TreeMapping, build_partitioned, cut_value, mapping_cut, mapping_value,
                           path_mapping_from_order)
from naewidth.red3 import (build_Gstar, caterpillar_layout, group_all, hybrid_from_layout,
                           hybrid_to_tree_mapping)
from naewidth.tree import Tree
from naewidth.widths import (
    EXACT_CAP,
    LINEAR_CAP,
    TreeLayout,
    _general_exact,
    _linear_exact,
    enumerate_leaf_trees,
    exact_width,
    layout_value,
    linear_layout_from_order,
    tree_cut_values,
)

from conftest import (adj_fn, adjacency_sets, brute_exact_width, brute_mim, brute_uim,
                      double_factorial, path_graph, random_graph_adj, raw_cut_table,
                      suffix_dp_linear_exact)


def complete_graph(n):
    return adjacency_sets(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    return adjacency_sets(n, [(i, (i + 1) % n) for i in range(n)])


class SingletonParts:
    """Adapter viewing a plain graph as a partitioned graph with parts {v}."""

    def __init__(self, adj):
        self.adj_sets = adj

    def parts(self):
        return sorted(self.adj_sets)

    def part_vertices(self, u):
        return [u]

    def adjacent(self, p, q):
        return q in self.adj_sets[p]


def test_layout_value_complete_graphs():
    for n in range(2, 6):
        adj = complete_graph(n)
        layout = linear_layout_from_order(list(range(n)))
        assert layout_value(adj_fn(adj), range(n), layout, "mim") == 1


def test_layout_value_edgeless():
    adj = adjacency_sets(4, [])
    layout = linear_layout_from_order([0, 1, 2, 3])
    for kind in ("mim", "sim", "omim"):
        assert layout_value(adj_fn(adj), range(4), layout, kind) == 0


def test_layout_value_p4_order_layout():
    adj = adjacency_sets(4, [(0, 1), (1, 2), (2, 3)])
    layout = linear_layout_from_order([0, 1, 2, 3])
    fn = adj_fn(adj)
    # exhaustive check over the layout's cuts

    expected = max(brute_mim(fn, sorted(side), sorted(set(range(4)) - side))
                   for _, side in layout.sides())
    assert expected == 1
    assert layout_value(fn, range(4), layout, "mim") == 1
    assert layout_value(fn, (v for v in range(4)), layout, "mim") == 1


def test_uim_examples():
    adj = adjacency_sets(2, [(0, 1)])
    fn = adj_fn(adj)
    assert cut_value(fn, [0, 1], [], "omim") == (0, True)
    assert cut_value(fn, [0], [1], "omim") == (1, True)


def test_uim_matches_brute_force(rng):
    for _ in range(25):
        n = rng.randint(4, 10)
        adj = random_graph_adj(rng, n, p=0.4)
        fn = adj_fn(adj)
        side_a = [v for v in range(n) if rng.random() < 0.5]
        side_b = [v for v in range(n) if v not in side_a]
        got, exact = cut_value(fn, side_a, side_b, "omim")
        assert exact and got == min(brute_uim(fn, range(n), side_a),
                                    brute_uim(fn, range(n), side_b))


def test_exact_width_k4_mim():
    adj = complete_graph(4)
    value, layout = exact_width(adj_fn(adj), range(4), "mim")
    assert value == 1
    assert layout_value(adj_fn(adj), range(4), layout, "mim") == 1


def test_exact_width_cap():
    adj = complete_graph(4)
    with pytest.raises(CapExceededError):
        exact_width(adj_fn(adj), range(4), "mim", cap=3)


def test_exact_width_c5_linear_mim_golden():
    adj = cycle(5)
    fn = adj_fn(adj)
    # independent oracle: scan all 120 orders, evaluating every cut by brute
    # force (prefixes and singletons both)
    def order_value(order):
        best = 0
        layout = linear_layout_from_order(list(order))
        for _, side in layout.sides():
            rest = sorted(set(range(5)) - side)
            best = max(best, brute_mim(fn, sorted(side), rest))
        return best

    oracle = min(order_value(o) for o in itertools.permutations(range(5)))
    assert oracle == 2
    value, layout = exact_width(fn, range(5), "mim", linear=True)
    assert value == 2
    # lexicographically least optimum
    assert [layout.leaf_vertex[x] for x in sorted(layout.leaf_vertex)] == [0, 1, 2, 3, 4]
    assert layout_value(fn, range(5), layout, "mim") == 2


def test_exact_width_c5_separates_sim_from_mim():
    fn = adj_fn(cycle(5))
    assert exact_width(fn, range(5), "sim")[0] == 1
    assert exact_width(fn, range(5), "mim")[0] == 2


def test_width_chain_on_random_graphs(rng):
    for _ in range(8):
        n = rng.randint(2, 5)
        adj = random_graph_adj(rng, n, p=0.5)
        fn = adj_fn(adj)
        sim = exact_width(fn, range(n), "sim")[0]
        omim = exact_width(fn, range(n), "omim")[0]
        mim = exact_width(fn, range(n), "mim")[0]
        lin_mim = exact_width(fn, range(n), "mim", linear=True)[0]
        lin_sim = exact_width(fn, range(n), "sim", linear=True)[0]
        assert sim <= omim <= mim <= lin_mim
        assert sim <= lin_sim


def test_witness_layout_achieves_value(rng):
    for _ in range(6):
        n = rng.randint(2, 5)
        adj = random_graph_adj(rng, n, p=0.6)
        fn = adj_fn(adj)
        for kind in ("mim", "sim", "omim"):
            for linear in (False, True):
                value, layout = exact_width(fn, range(n), kind, linear=linear)
                assert layout_value(fn, range(n), layout, kind) == value


def assert_same_as_enumeration(fn, n):
    """exact_width equals the tree scan: value, tree_adj keys and neighbour
    lists in order, and the leaf map."""
    for kind in ("mim", "sim", "omim"):
        value, layout = exact_width(fn, range(n), kind)
        ref_value, ref = brute_exact_width(fn, range(n), kind)
        assert value == ref_value
        assert list(layout.tree_adj.items()) == list(ref.tree_adj.items())
        assert list(layout.leaf_vertex.items()) == list(ref.leaf_vertex.items())


def test_exact_width_general_matches_enumeration(rng):
    for n in range(1, 9):
        for _ in range(1 if n == 8 else 3):
            assert_same_as_enumeration(adj_fn(random_graph_adj(rng, n, p=rng.random())), n)


def test_exact_width_general_matches_enumeration_on_atlas():
    for graph in nx.graph_atlas_g()[1:209]:
        n = graph.number_of_nodes()
        assert_same_as_enumeration(adj_fn({v: set(graph.neighbors(v)) for v in range(n)}), n)


def test_exact_width_general_witness_above_enumeration_sizes(rng):
    for n in range(9, EXACT_CAP + 1):
        fn = adj_fn(random_graph_adj(rng, n, p=0.5))
        value, layout = exact_width(fn, range(n), "mim")
        assert not layout.linear and sorted(layout.leaf_vertex.values()) == list(range(n))
        assert all(len(nbrs) in (1, 3) for nbrs in layout.tree_adj.values())
        assert layout_value(fn, range(n), layout, "mim") == value


@pytest.mark.parametrize("b, values", [(2, {"mim": 2, "sim": 2}), (3, {"mim": 3, "sim": 2})])
def test_linear_exact_width_of_gadget_graphs_above_the_general_cap(b, values):
    """G* of path([2]) at custom:12,1,2,1,b has 8b vertices: above EXACT_CAP
    for b = 2 and 3, within LINEAR_CAP."""
    star = build_Gstar(build_partitioned(path_graph([2])), Constants(12, 1, 2, 1, b))
    assert EXACT_CAP < star.n == 8 * b <= LINEAR_CAP
    for kind, expected in values.items():
        value, layout = exact_width(star.adjacent, range(star.n), kind, linear=True)
        assert value == expected
        assert layout_value(star.adjacent, range(star.n), layout, kind) == value


def test_width_chain_above_enumeration_sizes(rng):
    for n in (9, 10):
        fn = adj_fn(random_graph_adj(rng, n, p=0.5))
        sim, omim, mim = (exact_width(fn, range(n), kind)[0] for kind in ("sim", "omim", "mim"))
        assert sim <= omim <= mim <= exact_width(fn, range(n), "mim", linear=True)[0]


def test_exact_width_reports_nodes_explored():
    fn = adj_fn(cycle(5))
    stats = {"nodes": 0}
    exact_width(fn, range(5), "mim", stats=stats)
    assert stats["nodes"] > 0


def test_tree_enumeration_counts():
    for leaves in range(3, 8):
        count = sum(1 for _ in enumerate_leaf_trees(leaves))
        assert count == double_factorial(2 * leaves - 5)


def test_tree_enumeration_produces_distinct_ternary_trees():
    seen = set()
    for adj, leaf_nodes in enumerate_leaf_trees(5):
        for node, nbrs in adj.items():
            assert len(nbrs) in (1, 3)
        layout = TreeLayout(tree_adj=adj, leaf_vertex={i: i for i in leaf_nodes})
        splits = frozenset(
            min(frozenset(side), frozenset(set(range(5)) - side), key=sorted)
            for _, side in layout.sides())
        assert splits not in seen
        seen.add(splits)


def test_linear_layout_value_equals_singleton_path_mapping(rng):
    for _ in range(10):
        n = rng.randint(2, 6)
        adj = random_graph_adj(rng, n, p=0.5)
        order = list(range(n))
        rng.shuffle(order)
        layout = linear_layout_from_order(order)
        parts = SingletonParts(adj)
        mapping = path_mapping_from_order(parts, order)
        fn = adj_fn(adj)
        for kind in ("mim", "sim"):
            lv = layout_value(fn, range(n), layout, kind)
            mv, exact = mapping_value(parts, mapping, kind)
            assert exact and lv == mv


def test_unknown_kind_is_a_validation_error():
    adjacent = adj_fn(cycle(4))
    calls = [
        lambda: cut_value(adjacent, [0], [1], "xim"),
        lambda: exact_width(adjacent, range(4), "xim"),
        lambda: exact_width(adjacent, range(4), "xim", linear=True),
        lambda: exact_width(adjacent, [0], "xim"),
        lambda: layout_value(adjacent, range(4), linear_layout_from_order(range(4)), "xim"),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="unknown cut kind"):
            call()


class CountingOracle:
    """An adjacency oracle that records every vertex pair it is asked."""

    def __init__(self, adjacent):
        self.adjacent = adjacent
        self.asked = []

    def __call__(self, x, y):
        self.asked.append(frozenset((x, y)))
        return self.adjacent(x, y)


def assert_sweeps_ask_each_pair_once(adjacent, part_vertices, tree, mapping, kind, thresholds):
    """tree_cut_values and mapping_value ask the oracle for each vertex pair
    at most once, for exactly the pairs that one raw cut_value per cut asks
    for, and give the raw values; mapping_value also stops at the same edge."""
    vertices = sorted(tree.placement)
    pairs = len(vertices) * (len(vertices) - 1) // 2

    def check(memo, raw):
        assert len(memo.asked) == len(set(memo.asked)) <= pairs
        assert set(memo.asked) == set(raw.asked)

    memo, raw = CountingOracle(adjacent), CountingOracle(adjacent)
    got = tree_cut_values(memo, iter(vertices), tree, kind)  # one pass over the vertices
    assert got == {edge: cut_value(raw, [v for v in vertices if v not in far], far, kind)[0]
                   for edge, far in tree.sides()}
    check(memo, raw)

    for threshold in thresholds:
        memo, raw = CountingOracle(adjacent), CountingOracle(adjacent)
        got = mapping_value(SimpleNamespace(part_vertices=part_vertices, adjacent=memo),
                            mapping, kind, threshold=threshold)
        parts = SimpleNamespace(part_vertices=part_vertices, adjacent=raw)
        best, exact = 0, True
        for edge in mapping.edges():
            value, is_exact = cut_value(raw, *mapping_cut(parts, mapping, edge), kind,
                                        threshold=threshold)
            best, exact = max(best, value), exact and is_exact
            if threshold is not None and best >= threshold:
                exact = False
                break
        assert got == (best, exact)
        check(memo, raw)


@st.composite
def graphs_on_trees(draw):
    """A graph on n <= 8 vertices, and a tree on n nodes with one vertex each."""
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    tree_adj = {0: []}
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        tree_adj[node] = [parent]
        tree_adj[parent].append(node)
    order = draw(st.permutations(range(n)))
    return adjacency_sets(n, [e for e, k in zip(pairs, keep) if k]), tree_adj, order


@given(graphs_on_trees(), st.sampled_from(("mim", "sim", "omim")), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_sweeps_ask_each_pair_once_on_random_graphs(case, kind, threshold):
    adj, tree_adj, order = case
    tree = Tree(tree_adj, {v: node for node, v in enumerate(order)})
    mapping = TreeMapping(tree_adj, dict(enumerate(order)))
    assert_sweeps_ask_each_pair_once(adj_fn(adj), lambda u: [u], tree, mapping, kind,
                                     (None, threshold))


@pytest.mark.parametrize("kind", ["mim", "sim", "omim"])
def test_sweeps_ask_each_pair_once_on_the_path3_gstar(kind):
    star = build_Gstar(build_partitioned(path_graph([3])), SMALL)
    hybrid = hybrid_from_layout(caterpillar_layout(star, sorted(star.parts())))
    mapping = hybrid_to_tree_mapping(star, group_all(star, hybrid))
    assert_sweeps_ask_each_pair_once(star.adjacent, star.part_vertices, hybrid, mapping, kind,
                                     (None, 2))


@st.composite
def labelled_graphs(draw):
    """A graph on n <= 8 distinct vertex labels from 0..49, as adjacency sets."""
    labels = sorted(draw(st.sets(st.integers(0, 49), min_size=1, max_size=8)))
    pairs = list(itertools.combinations(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = {v: set() for v in labels}
    for (u, v), k in zip(pairs, keep):
        if k:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@given(labelled_graphs(), st.sampled_from(("mim", "sim", "omim")), st.booleans())
@settings(max_examples=80, deadline=None)
def test_exact_width_matches_a_per_cut_table(adj, kind, linear):
    """exact_width gives the value and witness of the same search over a
    table of one cut value per cut, and for general layouts its node count
    too; the linear search values only the cuts it tries."""
    fn, verts = adj_fn(adj), sorted(adj)
    stats, raw_stats = {"nodes": 0}, {"nodes": 0}
    value, layout = exact_width(fn, reversed(verts), kind, linear=linear, stats=stats)
    table = raw_cut_table(fn, verts, kind, stats=raw_stats)
    if linear:
        ref_value, order = suffix_dp_linear_exact(table, len(verts))
        assert [layout.leaf_vertex[x] for x in sorted(layout.leaf_vertex)] == [verts[i] for i in order]
    else:
        ref_value, tree_adj = _general_exact(len(verts), lambda mask, bound: table[mask])
        assert list(layout.tree_adj.items()) == list(tree_adj.items())
        assert layout.leaf_vertex == dict(enumerate(verts))
        assert stats == raw_stats
    assert value == ref_value


@st.composite
def symmetric_cut_tables(draw):
    """n <= 9 and a table of small values on every vertex-index bitmask, a
    mask's complement taking its value and the empty cut 0."""
    n = draw(st.integers(1, 9))
    full = (1 << n) - 1
    table = [0] * (full + 1)
    top = draw(st.integers(0, 4))
    for mask in range(1, full):
        comp = full ^ mask
        table[mask] = table[comp] if comp < mask else draw(st.integers(0, top))
    return table, n


@given(symmetric_cut_tables())
@settings(max_examples=200, deadline=None)
def test_linear_exact_equals_the_suffix_dp(case):
    """The prefix-set search gives the value and least optimal order of the
    subset DP over suffix completions."""
    table, n = case
    assert (_linear_exact(n, lambda mask, bound: table[mask], DEFAULT_BUDGET)
            == suffix_dp_linear_exact(table, n))


@given(symmetric_cut_tables())
@settings(max_examples=200, deadline=None)
def test_linear_exact_with_cut_values_cut_off_at_the_bound(case):
    """A cut function that reports bound + 1 for every cut above the bound,
    as a threshold search does, gives the suffix DP's answer too."""
    table, n = case
    assert (_linear_exact(n, lambda mask, bound: min(table[mask], bound + 1), DEFAULT_BUDGET)
            == suffix_dp_linear_exact(table, n))


def test_exact_width_asks_each_vertex_pair_once(rng):
    for n in range(1, 11):
        fn = adj_fn(random_graph_adj(rng, n, p=rng.random()))
        for kind in ("mim", "sim", "omim"):
            for linear in (False, True):
                oracle = CountingOracle(fn)
                exact_width(oracle, range(n), kind, linear=linear)
                assert len(oracle.asked) == len(set(oracle.asked)) == n * (n - 1) // 2
