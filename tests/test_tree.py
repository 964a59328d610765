"""The tree core: the one-pass edge sweep against a per-edge DFS reference,
and the connectivity/acyclicity check behind every tree type."""

import pytest

from naewidth import serialize
from naewidth.errors import ValidationError
from naewidth.red1 import SMALL
from naewidth.red2 import TreeMapping, build_partitioned
from naewidth.red3 import build_Gstar, caterpillar_layout, group_gadget, hybrid_from_layout
from naewidth.tree import Tree, path
from naewidth.widths import TreeLayout, enumerate_leaf_trees

from conftest import balancing_tree_doc, balancing_tree_from_doc, brute_sides, enumerate_labeled_trees, path_graph


def assert_sides_match(tree):
    got = [(edge, set(far)) for edge, far in tree.sides()]
    assert got == brute_sides(tree.tree_adj, tree.placement)
    assert [edge for edge, _ in got] == list(tree.edges())


def test_sides_match_reference_on_leaf_trees():
    count = 0
    for leaves in range(1, 8):
        for adj, leaf_nodes in enumerate_leaf_trees(leaves):
            assert_sides_match(TreeLayout(tree_adj=adj, leaf_vertex={i: i for i in leaf_nodes}))
            assert_sides_match(Tree(adj, {node: node for node in adj}))
            count += 1
    assert count == 1 + 1 + 1 + 3 + 15 + 105 + 945


def test_sides_match_reference_on_labeled_trees():
    for n in range(1, 7):
        for adj in enumerate_labeled_trees(list(range(n))):
            tree = Tree(adj, {v: v for v in range(n)})
            assert_sides_match(tree)
            everything = frozenset(range(n))
            for (x, y), far in tree.sides():
                assert tree.side(x, y) == far
                assert tree.side(y, x) == everything - far


def test_sides_match_reference_on_grouped_hybrid_trees():
    star = build_Gstar(build_partitioned(path_graph([3])), SMALL)
    ht = hybrid_from_layout(caterpillar_layout(star, star.parts()))
    assert_sides_match(ht)
    for u in star.parts():
        ht = group_gadget(star, ht, u)
        assert_sides_match(ht)


def test_side_rejects_a_non_edge():
    with pytest.raises(ValidationError, match="not a tree edge"):
        path("abc").side(0, 2)


def test_path_and_subdivide():
    line = path("abc")
    assert line.tree_adj == {0: [1], 1: [0, 2], 2: [1]}
    assert line.placement == {"a": 0, "b": 1, "c": 2}
    assert line.subdivide(1, 2, 9) == {0: [1], 1: [0, 9], 2: [9], 9: [1, 2]}
    assert line.tree_adj == {0: [1], 1: [0, 2], 2: [1]}  # subdivide copies


LINE = {0: [1], 1: [0, 2], 2: [1]}
TRIANGLE = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
# a triangle with one pendant leaf per corner: ternary, but not a tree
TRIANGLE_WITH_LEAVES = {0: [1, 2, 3], 1: [0, 2, 4], 2: [0, 1, 5], 3: [0], 4: [1], 5: [2]}


def closed_into_triangle(doc):
    """A tree document over nodes 0, 1, 2 with the edge [0, 2] added."""
    return {**doc, "edges": doc["edges"] + [[0, 2]]}


@pytest.mark.parametrize("build", [
    lambda: Tree(TRIANGLE, {0: 0, 1: 1, 2: 2}),
    lambda: balancing_tree_from_doc(
        closed_into_triangle(balancing_tree_doc(path([0, 1, 2])))),
    lambda: TreeMapping(tree_adj=TRIANGLE, part_at={0: 0, 1: 1, 2: 2}),
    lambda: TreeLayout(tree_adj=TRIANGLE_WITH_LEAVES, leaf_vertex={3: 0, 4: 1, 5: 2}),
    lambda: serialize.hybrid_tree_from_doc(
        closed_into_triangle(serialize.hybrid_tree_doc(Tree(LINE, {0: 0, 1: 1})))),
], ids=["tree", "balancing_tree", "tree_mapping", "tree_layout", "hybrid_tree"])
def test_constructors_reject_cycles(build):
    with pytest.raises(ValidationError, match="connected and acyclic"):
        build()


def test_tree_rejects_disconnected_empty_and_dangling():
    with pytest.raises(ValidationError, match="connected and acyclic"):
        Tree({0: [1], 1: [0], 2: []}, {})
    with pytest.raises(ValidationError, match="empty tree"):
        Tree({}, {})
    with pytest.raises(ValidationError, match="unknown node"):
        Tree({0: [5]}, {})
    with pytest.raises(ValidationError, match="unknown node"):
        Tree({0: []}, {0: 0, 1: 3})


def test_linear_layout_must_be_a_caterpillar():
    spider = {0: [1, 2, 3], 1: [0, 4], 2: [0, 5], 3: [0, 6], 4: [1], 5: [2], 6: [3]}
    with pytest.raises(ValidationError, match="caterpillar"):
        TreeLayout(tree_adj=spider, leaf_vertex={4: 0, 5: 1, 6: 2}, linear=True)
    star = {0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]}
    with pytest.raises(ValidationError, match="caterpillar"):
        TreeLayout(tree_adj=star, leaf_vertex={i: i for i in range(1, 5)}, linear=True)
