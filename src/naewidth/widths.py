"""Branch-decomposition width machinery: mim/sim/omim values of tree
layouts and exhaustive exact-width oracles for tiny graphs.

General layouts are unrooted ternary trees with graph vertices on the
leaves; linear layouts are rooted full binary caterpillars, equivalently a
vertex order.  Exact widths enumerate all layouts: vertex orders via a
subset DP, ternary trees via leaf insertion (their count is (2L-5)!!).
"""

from __future__ import annotations

from operator import itemgetter

from .errors import CapExceededError, ValidationError
from .matchings import DEFAULT_BUDGET, cut_value
from .tree import Tree, path

GENERAL_CAP = 8
LINEAR_CAP = 10


class TreeLayout(Tree):
    """Tree with graph vertices bijectively on its leaves.

    General layouts have every internal node of degree 3; linear layouts are
    the canonical left-aligned caterpillar of a vertex order (spine
    p_1..p_{N-1}, leaf l_j under p_j, and l_N also under p_{N-1}), whose
    leaf order is read off the leaf node ids.
    """

    def __init__(self, tree_adj: dict, leaf_vertex: dict, linear: bool = False,
                 leaf_order=None):
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
            if linear and (len(nbrs) > 3 or sum(y not in leaves for y in nbrs) > 2):
                raise ValidationError(f"linear layout is not a caterpillar at node {x}")
        super().__init__(tree_adj, {v: leaf for leaf, v in leaf_vertex.items()})
        self.leaf_vertex = leaf_vertex  # leaf node -> graph vertex
        self.linear = linear
        if linear and leaf_order is None:
            leaf_order = [leaf_vertex[leaf] for leaf in sorted(leaf_vertex)]
        self.leaf_order = leaf_order


def linear_layout_from_order(order) -> TreeLayout:
    """Canonical caterpillar realization of a vertex order."""
    n = len(order)
    if n == 0:
        raise ValidationError("empty order")
    if n == 1:
        return TreeLayout(tree_adj={0: []}, leaf_vertex={0: order[0]}, linear=True)
    adj = path(range(n - 1)).tree_adj  # spine nodes 0..n-2; leaf j sits at node n-1+j
    leaf_vertex = {}
    for j, v in enumerate(order):
        spine = min(j, n - 2)
        leaf = n - 1 + j
        adj[spine].append(leaf)
        adj[leaf] = [spine]
        leaf_vertex[leaf] = v
    return TreeLayout(tree_adj=adj, leaf_vertex=leaf_vertex, linear=True)


def tree_cut_values(adjacent, vertices, tree: Tree, kind: str,
                    budget: int = DEFAULT_BUDGET, stats=None):
    """Cut value of every tree edge, keyed by the edge: the vertices placed
    off the edge's far side against those placed on it."""
    out = {}
    for edge, far in tree.sides():
        rest = [v for v in vertices if v not in far]
        out[edge], _ = cut_value(adjacent, rest, far, kind, budget=budget, stats=stats)
    return out


def layout_value(adjacent, vertices, layout: TreeLayout, kind: str,
                 budget: int = DEFAULT_BUDGET, stats=None):
    """Max cut value over all tree edges of the layout."""
    if set(layout.leaf_vertex.values()) != set(vertices):
        raise ValidationError("layout leaves do not match the vertex set")
    return max(tree_cut_values(adjacent, vertices, layout, kind, budget=budget,
                               stats=stats).values(), default=0)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


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


def _cut_table(adjacent, verts, kind, budget, stats=None):
    """Cut value for every vertex-subset bitmask (symmetric in complement)."""
    n = len(verts)
    full = (1 << n) - 1
    table = [0] * (full + 1)
    for mask in range(full + 1):
        comp = full ^ mask
        if comp < mask:
            table[mask] = table[comp]
            continue
        side_a = [verts[i] for i in range(n) if mask >> i & 1]
        side_b = [verts[i] for i in range(n) if comp >> i & 1]
        table[mask], _ = cut_value(adjacent, side_a, side_b, kind, budget=budget,
                                   stats=stats)
    return table


def _linear_exact(table, n):
    """Min over vertex orders of the max cut value, plus the lexicographically
    least optimal order, via a subset DP over suffix completions."""
    full = (1 << n) - 1
    singleton_base = max(table[1 << i] for i in range(n)) if n else 0
    best_from = [0] * (full + 1)  # best achievable max over strict extensions
    for mask in range(full - 1, -1, -1):
        best = None
        for i in range(n):
            if mask >> i & 1:
                continue
            nxt = mask | 1 << i
            cand = max(table[nxt], best_from[nxt])
            if best is None or cand < best:
                best = cand
        best_from[mask] = best if best is not None else 0
    width = max(singleton_base, best_from[0])
    order_idx = []
    mask = 0
    for _ in range(n):
        for i in range(n):
            if mask >> i & 1:
                continue
            nxt = mask | 1 << i
            if max(table[nxt], best_from[nxt]) <= width:
                order_idx.append(i)
                mask = nxt
                break
    return width, order_idx


def exact_width(adjacent, vertices, kind: str, linear: bool = False, cap=None,
                budget: int = DEFAULT_BUDGET, stats=None):
    """Exact width by exhaustive layout enumeration.

    Returns (value, witness TreeLayout).  The witness is deterministic: the
    lexicographically least optimal order for linear layouts, and the
    optimal ternary tree with the least sorted-split serialization otherwise.
    """
    verts = sorted(set(vertices))
    n = len(verts)
    if cap is None:
        cap = LINEAR_CAP if linear else GENERAL_CAP
    if n > cap:
        raise CapExceededError(f"|V| = {n} exceeds exact-width cap {cap}")
    if n == 0:
        raise ValidationError("empty vertex set")
    table = _cut_table(adjacent, verts, kind, budget, stats=stats)

    if linear:
        width, order_idx = _linear_exact(table, n)
        order = [verts[i] for i in order_idx]
        return width, linear_layout_from_order(order)

    full = (1 << n) - 1
    bit = {v: 1 << i for i, v in enumerate(verts)}
    best = None
    best_key = None
    best_layout = None
    for adj, leaf_nodes in enumerate_leaf_trees(n):
        layout = TreeLayout(tree_adj=adj,
                            leaf_vertex={i: verts[i] for i in leaf_nodes})
        splits = []
        value = 0
        for _, side in layout.sides():
            mask = sum(map(bit.__getitem__, side))
            splits.append(min(mask, full ^ mask))
            if table[mask] > value:
                value = table[mask]
        key = tuple(sorted(splits))
        if best is None or value < best or (value == best and key < best_key):
            best, best_key, best_layout = value, key, layout
    return best, best_layout

