"""Branch-decomposition width machinery: mim/sim/omim values of tree
layouts and exact-width oracles for graphs of at most EXACT_CAP vertices,
or LINEAR_CAP for linear layouts.

General layouts are unrooted ternary trees with graph vertices on the
leaves; linear layouts are rooted full binary caterpillars, equivalently a
vertex order.  Both exact widths read one memo of cut values: a subset DP
over the clusters of a tree rooted at the last vertex finds ternary trees
from all 2^(n-1) cuts, and the prefix-set search of wgraph finds vertex
orders from the prefix cuts it tries, each with an early-exit threshold.
enumerate_leaf_trees lists all (2L-5)!! ternary trees by leaf insertion;
the DP's witness keeps its node numbering.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter

from .errors import CapExceededError, ValidationError
from .matchings import DEFAULT_BUDGET, AdjacencyCache
from .tree import Tree
from .wgraph import prefix_orders

EXACT_CAP = 12
# The smallest small-profile G* toy, of path([3]), answers within the default budget.
LINEAR_CAP = 36


class TreeLayout(Tree):
    """Tree with graph vertices bijectively on its leaves.

    General layouts have every internal node of degree 3; linear layouts are
    the canonical left-aligned caterpillar of a vertex order (spine
    p_1..p_{N-1}, leaf l_j under p_j, and l_N also under p_{N-1}), whose
    leaf order is read off the leaf node ids.
    """

    def __init__(self, tree_adj: dict, leaf_vertex: dict, linear: bool = False):
        leaves = {x for x, nbrs in tree_adj.items() if len(nbrs) <= 1}
        if set(leaf_vertex) != leaves:
            raise ValidationError("leaf map must cover exactly the tree leaves")
        if len(set(leaf_vertex.values())) != len(leaf_vertex):
            raise ValidationError("leaf map is not injective")
        for x, nbrs in tree_adj.items():
            if x in leaves:
                continue
            if not linear and len(nbrs) != 3:
                raise ValidationError(f"internal node {x} has degree {len(nbrs)}")
            if linear and (len(nbrs) > 3 or len(nbrs) - sum(map(leaves.__contains__, nbrs)) > 2):
                raise ValidationError(f"linear layout is not a caterpillar at node {x}")
        super().__init__(tree_adj, {v: leaf for leaf, v in leaf_vertex.items()})
        self.leaf_vertex = leaf_vertex  # leaf node -> graph vertex
        self.linear = linear


def linear_layout_from_order(order) -> TreeLayout:
    """Canonical caterpillar realization of a vertex order."""
    n = len(order)
    if n == 0:
        raise ValidationError("empty order")
    if n == 1:
        return TreeLayout(tree_adj={0: []}, leaf_vertex={0: order[0]}, linear=True)
    # spine nodes 0..n-2 as tree.path lists them, each followed by its leaf:
    # leaf j sits at node n-1+j under spine node min(j, n-2); one int per node
    node = list(range(2 * n - 1))
    spine, leaves = node[:n - 1], node[n - 1:]
    adj = dict(zip(spine, map(list, zip([None] + spine[:-1], spine[1:] + [None], leaves))))
    del adj[0][0]
    adj[n - 2][-2:] = leaves[-2:]
    adj.update(zip(leaves, map(list, zip(spine + spine[-1:]))))
    return TreeLayout(tree_adj=adj, leaf_vertex=dict(zip(leaves, order)), linear=True)


def tree_cut_values(adjacent, vertices, tree: Tree, kind: str):
    """Cut value of every tree edge, keyed by the edge: the vertices placed
    off the edge's far side against those placed on it.  The sweep runs on
    one AdjacencyCache, so it asks the oracle at most once per vertex pair."""
    vertices = set(vertices)
    cache = AdjacencyCache(adjacent, vertices | tree.placement.keys())
    everything = cache.mask(vertices)
    out = {}
    for edge, far in tree.sides():
        side_b = cache.mask(far)
        out[edge], _ = cache.cut_value(everything & ~side_b, side_b, kind)
    return out


def layout_value(adjacent, vertices, layout: TreeLayout, kind: str):
    """Max cut value over all tree edges of the layout."""
    vertices = list(vertices)
    if set(layout.leaf_vertex.values()) != set(vertices):
        raise ValidationError("layout leaves do not match the vertex set")
    cuts = tree_cut_values(adjacent, vertices, layout, kind)
    return max(cuts.values(), default=0)


def enumerate_leaf_trees(num_leaves: int):
    """All unrooted ternary trees on leaves 0..L-1, one per topology.

    Trees are built by inserting leaf k into every edge of every tree on
    k leaves, which yields each topology exactly once ((2L-5)!! in total).
    Returned as (adj, leaf_nodes) with leaf i at node i and internal nodes
    numbered from L upward.
    """
    if num_leaves < 1:
        return
    if num_leaves == 1:
        yield {0: []}, [0]
        return
    if num_leaves == 2:
        yield {0: [1], 1: [0]}, [0, 1]
        return

    def rec(adj, next_leaf, next_internal):
        if next_leaf == num_leaves:
            yield adj
            return
        tree = Tree(adj, {})
        # insertion slots by ascending lower end, in adjacency order within one end
        for x, y in sorted(tree.edges(), key=itemgetter(0)):
            new = tree.subdivide(x, y, next_internal)
            new[next_internal].append(next_leaf)
            new[next_leaf] = [next_internal]
            yield from rec(new, next_leaf + 1, next_internal + 1)

    base = {0: [num_leaves], 1: [num_leaves], 2: [num_leaves], num_leaves: [0, 1, 2]}
    for adj in rec(base, 3, num_leaves + 1):
        yield adj, list(range(num_leaves))


def _linear_exact(n, cut, budget):
    """Min over vertex orders of the max cut value, plus the lexicographically
    least optimal order: the least bound, from the largest singleton cut up,
    under which prefix_orders finds an order whose prefix cuts all fit.
    cut(mask, bound) is the value of the cut of mask when that is at most
    bound, and any larger number otherwise; it is asked only of the sets the
    search tries.  budget bounds each search's placements."""
    bound = max(cut(1 << i, inf) for i in range(n))
    while True:
        for order in prefix_orders(n, lambda v, mask: cut(mask | 1 << v, bound) <= bound,
                                   lambda v, mask: None, budget):
            return bound, order
        bound += 1


def _halves(x):
    """Every split of the mask x into (y, z), y holding x's lowest bit."""
    low = x & -x
    rest = x ^ low
    z = rest
    while z:
        yield x ^ z, z
        z = (z - 1) & rest


def _general_exact(n, cut):
    """Min over ternary trees of the max cut value, plus the optimal tree
    whose sorted split tuple is least, via a subset DP over the clusters of
    the tree rooted at leaf n-1.  cut(mask, bound) is as for _linear_exact,
    asked with no bound of every cut 0..root, in ascending order.

    Every non-trivial split is then a cluster X of R = {0..n-2}, stored as
    its own mask.  g(X) is the least max cut value over binary trees on X
    (X's own cut included).  Among equal-size split sets, the least sorted
    tuple is the one holding the least element of their symmetric
    difference; that order survives disjoint unions, so a second pass keeps
    the least split set per feasible cluster.  Returns (width, tree_adj)
    with the node ids and adjacency order of enumerate_leaf_trees.
    """
    if n < 3:
        return cut(1, inf), ({0: []} if n == 1 else {0: [1], 1: [0]})
    root = (1 << (n - 1)) - 1
    g = [cut(x, inf) for x in range(root + 1)]
    for x in range(1, root + 1):
        if x & (x - 1):
            g[x] = max(g[x], min(max(g[y], g[z]) for y, z in _halves(x)))
    width = g[root]  # every leaf is a cluster of every tree, and leaf n-1's cut is R's

    lex = {}  # feasible cluster -> least sorted tuple of the clusters of size >= 2 below it
    for x in range(1, root + 1):
        if g[x] > width:
            continue
        lex[x] = min((tuple(sorted(lex[y] + lex[z] + tuple(c for c in (y, z) if c & (c - 1))))
                      for y, z in _halves(x) if y in lex and z in lex), default=())
    # Replay leaf insertion: on leaves 0..k, leaf k subdivides the one edge
    # whose far side P has both P and P + {k} among the target's splits.
    clusters = lex[root] + (root,) + tuple(1 << i for i in range(n))
    adj = {0: [n], 1: [n], 2: [n], n: [0, 1, 2]}
    for k in range(3, n):
        seen = (1 << (k + 1)) - 1
        target = {min(c & seen, seen ^ (c & seen)) for c in clusters}
        tree = Tree(adj, {i: i for i in range(k)})
        for (x, y), far in tree.sides():
            p = sum(1 << i for i in far)
            q = p | 1 << k
            if min(p, seen ^ p) in target and min(q, seen ^ q) in target:
                break
        new = n + k - 2
        adj = tree.subdivide(x, y, new)
        adj[new].append(k)
        adj[k] = [new]
    return width, adj


def exact_width(adjacent, vertices, kind: str, linear: bool = False, cap: int | None = None,
                budget: int = DEFAULT_BUDGET, stats=None):
    """Exact width of a graph of at most EXACT_CAP vertices, or LINEAR_CAP
    for linear layouts; a cap can lower that bound, never raise it.

    Returns (value, witness TreeLayout).  The witness is deterministic: the
    lexicographically least optimal order for linear layouts, and otherwise
    the optimal ternary tree whose sorted tuple of splits (each the smaller
    of its two vertex-index bitmasks) is least, with the node ids of
    enumerate_leaf_trees.  One memo serves both: general layouts value every
    cut once, exactly; linear ones value a cut when the order search first
    tries it, with the threshold bound + 1, and again only when a larger
    bound reaches the lower bound it stopped at; budget bounds each search.
    """
    verts = sorted(set(vertices))
    n = len(verts)
    limit = LINEAR_CAP if linear else EXACT_CAP
    cap = limit if cap is None else min(cap, limit)
    if n > cap:
        raise CapExceededError(f"|V| = {n} exceeds exact-width cap {cap}")
    if n == 0:
        raise ValidationError("empty vertex set")

    cache = AdjacencyCache(adjacent, verts)
    full = (1 << n) - 1
    memo = {}  # the lesser of a mask and its complement -> (value, exact)

    def cut(mask, bound):
        key = min(mask, full ^ mask)
        value, exact = memo.get(key, (0, False))  # unvalued: at least 0
        if not exact and value <= bound:
            memo[key] = value, exact = cache.cut_value(
                key, full ^ key, kind, threshold=bound + 1, budget=budget, stats=stats)
        return value

    if linear:
        width, order_idx = _linear_exact(n, cut, budget)
        return width, linear_layout_from_order([verts[i] for i in order_idx])
    width, adj = _general_exact(n, cut)
    return width, TreeLayout(tree_adj=adj, leaf_vertex={i: verts[i] for i in range(n)})
