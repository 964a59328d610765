"""Edge-weighted graph core plus the linear and tree degree-balancing
problems: per-vertex left/right weights under an order, witness checkers, and
exhaustive solvers for small instances.

A *t-balancing order* places the vertices so that every vertex has weighted
backward and forward degree at most t.  A *t-balancing tree* maps vertices
bijectively onto the nodes of a free tree so that for every vertex v and
every tree edge e incident to v's node, the weight of v's edges crossing the
cut of e is at most t.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import BudgetExceededError, CapExceededError, ValidationError
from .tree import Tree, path

ROLES = (
    "variable", "variable_bar", "t", "f", "t_bar", "f_bar", "clause",
    "spine_a", "spine_b", "root", "s_terminal", "pad_x", "pad_y", "plain",
)

DEFAULT_ORDER_BUDGET = 10 ** 7
DEFAULT_TREE_CAP = 8


class WeightedGraph:
    """Undirected graph with positive integer edge weights and dense ids.

    Vertices are 0..n-1 with a label and a role tag; adjacency is stored as
    per-vertex lists of (neighbor, weight).  Builders never add duplicate
    edges; check_simple() audits that, plus symmetry and positivity.
    """

    __slots__ = ("labels", "roles", "adj")

    def __init__(self):
        self.labels = []
        self.roles = []
        self.adj = []

    @property
    def n(self):
        return len(self.adj)

    def vertex_ids(self):
        return range(len(self.adj))

    def add_vertex(self, label: str = "", role: str = "plain") -> int:
        self.labels.append(label)
        self.roles.append(role)
        self.adj.append([])
        return len(self.adj) - 1

    def add_vertices(self, labels, role: str = "plain"):
        start = len(self.adj)
        for label in labels:
            self.add_vertex(label, role)
        return range(start, len(self.adj))

    def add_edge(self, u: int, v: int, w: int) -> None:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if w < 1:
            raise ValidationError(f"edge weight {w} < 1 on ({u}, {v})")
        self.adj[u].append((v, w))
        self.adj[v].append((u, w))

    def edge_weight(self, u: int, v: int):
        for x, w in self.adj[u]:
            if x == v:
                return w
        return None

    def edges(self):
        for u, lst in enumerate(self.adj):
            for v, w in lst:
                if u < v:
                    yield u, v, w

    def num_edges(self):
        return sum(len(lst) for lst in self.adj) // 2

    def total_weight(self):
        return sum(w for _, _, w in self.edges())

    def vertex_weight(self, v: int) -> int:
        """Sum of the weights of the edges incident to v."""
        if not 0 <= v < len(self.adj):
            raise ValidationError(f"unknown vertex id {v}")
        return sum(w for _, w in self.adj[v])

    def check_simple(self) -> None:
        for u, lst in enumerate(self.adj):
            seen = set()
            for v, w in lst:
                if v == u:
                    raise ValidationError(f"self-loop at {u}")
                if v in seen:
                    raise ValidationError(f"duplicate edge ({u}, {v})")
                if w < 1:
                    raise ValidationError(f"non-positive weight on ({u}, {v})")
                if self.edge_weight(v, u) != w:
                    raise ValidationError(f"asymmetric edge ({u}, {v})")
                seen.add(v)


def scale_weights(g: WeightedGraph, factor: int) -> WeightedGraph:
    """Copy of g with every edge weight multiplied by factor.

    Scaling is exact for balancing: an order or tree is t-balancing on g iff
    it is (t*factor)-balancing on the scaled copy.
    """
    if factor < 1:
        raise ValidationError(f"scale factor {factor} < 1")
    out = WeightedGraph()
    for v in g.vertex_ids():
        out.add_vertex(g.labels[v], g.roles[v])
    for u, v, w in g.edges():
        out.add_edge(u, v, w * factor)
    return out


def side_weights(g, order, v):
    """Left and right weighted degree of v under the order."""
    pos = {u: i for i, u in enumerate(order)}
    if v not in pos:
        raise ValidationError(f"vertex {v} not in order")
    if set(pos) != set(g.vertex_ids()):
        raise ValidationError("order does not cover the vertex set")
    pv = pos[v]
    left = sum(w for u, w in g.adj[v] if pos[u] < pv)
    right = sum(w for u, w in g.adj[v] if pos[u] > pv)
    return left, right


def check_balancing_order(g, order, t):
    """Return (True, None) if the order is t-balancing, else (False, violator).

    The violator is the earliest vertex in the order whose left or right
    weight exceeds t.
    """
    pos = {u: i for i, u in enumerate(order)}
    if len(pos) != len(order) or set(pos) != set(g.vertex_ids()):
        raise ValidationError("order is not a permutation of the vertex set")
    for v in order:
        pv = pos[v]
        left = 0
        right = 0
        for u, w in g.adj[v]:
            if pos[u] < pv:
                left += w
            else:
                right += w
        if left > t or right > t:
            return False, v
    return True, None


_PROPAGATION_DEGREE_CAP = 12


def _extensions(g, t, budget, limit):
    """DFS over prefix extensions, vertices tried in ascending id.

    Pruning is exact, so the enumeration visits exactly the t-balancing
    orders.  A placement is refused when the placed vertex's left weight (now
    final) or committed right weight (total - left) exceeds t, when any
    unplaced vertex's accumulated left weight already exceeds t, or when
    precedence propagation proves the prefix dead: per unplaced vertex, the
    remaining neighbors must split into a before/after set keeping both
    sides at most t, and neighbors forced onto one side seed before/after
    arcs that are propagated to a fixpoint and checked for cycles.  Yields
    each solution and stops after `limit` solutions if given.
    """
    adj = g.adj
    n = len(adj)
    total = [sum(w for _, w in lst) for lst in adj]
    if any(tw > 2 * t for tw in total):
        return
    committed = [0] * n
    placed = []
    state = {"mask": 0, "nodes": 0, "found": 0}

    def alive():
        placed_mask = state["mask"]
        before = [0] * n
        after = [0] * n
        pending = [u for u in range(n) if not placed_mask >> u & 1]
        in_pending = [not placed_mask >> u & 1 for u in range(n)]
        while pending:
            u = pending.pop()
            in_pending[u] = False
            lbase = committed[u]
            rbase = 0
            free = []
            for x, w in adj[u]:
                if placed_mask >> x & 1:
                    continue
                if before[u] >> x & 1:
                    lbase += w
                elif after[u] >> x & 1:
                    rbase += w
                else:
                    free.append((x, w))
            if lbase > t or rbase > t:
                return False
            m = len(free)
            if m == 0 or m > _PROPAGATION_DEGREE_CAP:
                continue
            always = (1 << m) - 1
            union = 0
            feasible = False
            for subset in range(1 << m):
                left = lbase
                right = rbase
                for i in range(m):
                    if subset >> i & 1:
                        left += free[i][1]
                    else:
                        right += free[i][1]
                if left <= t and right <= t:
                    feasible = True
                    always &= subset
                    union |= subset
            if not feasible:
                return False
            for i, (x, _) in enumerate(free):
                if always >> i & 1:
                    before[u] |= 1 << x
                    after[x] |= 1 << u
                elif not union >> i & 1:
                    after[u] |= 1 << x
                    before[x] |= 1 << u
                else:
                    continue
                for y in (u, x):
                    if not in_pending[y]:
                        in_pending[y] = True
                        pending.append(y)
        colour = [0] * n  # 0 new, 1 on stack, 2 done

        def cyclic(u):
            colour[u] = 1
            bits = before[u]
            while bits:
                x = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                if colour[x] == 1 or (colour[x] == 0 and cyclic(x)):
                    return True
            colour[u] = 2
            return False

        for u in range(n):
            if not placed_mask >> u & 1 and colour[u] == 0 and cyclic(u):
                return False
        return True

    def rec():
        if len(placed) == n:
            state["found"] += 1
            yield list(placed)
            return
        for vi in range(n):
            if state["mask"] >> vi & 1:
                continue
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise BudgetExceededError(f"order search exceeded {budget} nodes")
            left = committed[vi]
            if left > t or total[vi] - left > t:
                continue
            dead = False
            for u, w in adj[vi]:
                if not state["mask"] >> u & 1:
                    committed[u] += w
                    if committed[u] > t:
                        dead = True
            state["mask"] |= 1 << vi
            if not dead and alive():
                placed.append(vi)
                yield from rec()
                placed.pop()
            state["mask"] ^= 1 << vi
            for u, w in adj[vi]:
                if not state["mask"] >> u & 1:
                    committed[u] -= w
            if limit is not None and state["found"] >= limit:
                return

    yield from rec()


def solve_balancing_order(g, t, budget: int = DEFAULT_ORDER_BUDGET):
    """First t-balancing order in lexicographic vertex-id order, or None."""
    for order in _extensions(g, t, budget, limit=1):
        return order
    return None


def enumerate_balancing_orders(g, t, budget: int = DEFAULT_ORDER_BUDGET, limit=None):
    """List the t-balancing orders found by the pruned DFS, up to `limit`."""
    return list(_extensions(g, t, budget, limit))


def naive_balancing_orders(g, t):
    """Oracle: all t-balancing orders by plain permutation enumeration."""
    out = []
    for perm in itertools.permutations(g.vertex_ids()):
        ok, _ = check_balancing_order(g, list(perm), t)
        if ok:
            out.append(list(perm))
    return out


class BalancingTree(Tree):
    """Unrooted tree plus a bijection from graph vertices to tree nodes."""

    def __init__(self, tree_adj: dict, placement: dict):
        if set(placement.values()) != set(tree_adj) or len(placement) != len(tree_adj):
            raise ValidationError("placement is not a bijection onto the tree nodes")
        super().__init__(tree_adj, placement)


def path_tree_from_order(order) -> BalancingTree:
    """Path-shaped balancing tree carrying the given order."""
    line = path(order)
    return BalancingTree(tree_adj=line.tree_adj, placement=line.placement)


def check_balancing_tree(g, bt: BalancingTree, t):
    """Return (True, None) or (False, (vertex, tree_edge)) for the first
    vertex whose weight across the cut of an incident tree edge exceeds t."""
    if set(bt.placement) != set(g.vertex_ids()):
        raise ValidationError("placement does not cover the vertex set")
    vertex_at = {node: v for v, node in bt.placement.items()}
    for (x, y), far in bt.sides():
        vx, vy = vertex_at[x], vertex_at[y]
        wx = sum(w for u, w in g.adj[vx] if u in far)
        if wx > t:
            return False, (vx, (x, y))
        wy = sum(w for u, w in g.adj[vy] if u not in far and u != vy)
        if wy > t:
            return False, (vy, (x, y))
    return True, None


def _prufer_decode(seq, labels):
    """Labeled tree (adjacency dict over `labels`) from a Prüfer sequence."""
    adj = {v: [] for v in labels}
    degree = {v: 1 for v in labels}
    for v in seq:
        degree[v] += 1
    leaf_heap = [v for v in labels if degree[v] == 1]
    heapq.heapify(leaf_heap)
    for v in seq:
        leaf = heapq.heappop(leaf_heap)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def enumerate_labeled_trees(labels):
    """All labeled trees on the given vertex labels, one per Prüfer sequence."""
    labels = sorted(labels)
    n = len(labels)
    if n == 1:
        yield {labels[0]: []}
        return
    for seq in itertools.product(labels, repeat=n - 2):
        yield _prufer_decode(seq, labels)


def solve_balancing_tree(g, t, cap: int = DEFAULT_TREE_CAP):
    """Exhaustive t-balancing tree search via labeled-tree enumeration.

    A (tree, placement) pair is equivalent up to node relabeling to a labeled
    tree on the vertex set itself, so placements are taken as the identity
    and only the n^(n-2) Prüfer-coded trees are scanned.
    """
    verts = g.vertex_ids()
    if len(verts) > cap:
        raise CapExceededError(f"|V| = {len(verts)} exceeds tree-enumeration cap {cap}")
    for adj in enumerate_labeled_trees(verts):
        bt = BalancingTree(tree_adj=adj, placement={v: v for v in verts})
        ok, _ = check_balancing_tree(g, bt, t)
        if ok:
            return bt
    return None
