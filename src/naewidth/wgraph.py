"""Edge-weighted graph core plus the linear and tree degree-balancing
problems: witness checkers for orders and trees, and an exact prefix-set
search for balancing orders that exact linear widths share.

A *t-balancing order* places the vertices so that every vertex has weighted
backward and forward degree at most t.  A *t-balancing tree* is any Tree
placing the vertices bijectively on its nodes so that for every vertex v and
tree edge e at v's node, v's edges across the cut of e weigh at most t.
"""

from __future__ import annotations

import bisect
from itertools import islice

from .errors import BudgetExceededError, ValidationError
from .tree import Tree

ROLES = (
    "variable", "variable_bar", "t", "f", "t_bar", "f_bar", "clause",
    "spine_a", "spine_b", "root", "s_terminal", "pad_x", "pad_y", "plain",
)

DEFAULT_ORDER_BUDGET = 10 ** 7


class WeightedGraph:
    """Undirected graph with positive integer edge weights and dense ids.

    Vertices are 0..n-1 with a label and a role tag; adjacency is stored as
    per-vertex lists of (neighbor, weight), each kept ascending: add_edge
    inserts in order, and builders that fill lists directly append in
    ascending order.  So the edges come out in (u, v) order with no sort.
    Builders never add duplicate edges; check_simple() audits that, plus
    symmetry and positivity.
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
        self.labels += labels
        added = len(self.labels) - start
        self.roles += [role] * added
        self.adj += ([] for _ in range(added))
        return range(start, len(self.adj))

    def add_edge(self, u: int, v: int, w: int) -> None:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if w < 1:
            raise ValidationError(f"edge weight {w} < 1 on ({u}, {v})")
        bisect.insort(self.adj[u], (v, w))
        bisect.insort(self.adj[v], (u, w))

    def edges(self):
        """(u, v, weight) of every edge, u < v, in ascending order."""
        for u, lst in enumerate(self.adj):
            for v, w in lst:
                if u < v:
                    yield u, v, w

    def num_edges(self):
        return sum(map(len, self.adj)) // 2

    def total_weight(self):
        return sum(w for _, _, w in self.edges())

    def vertex_weight(self, v: int) -> int:
        """Sum of the weights of the edges incident to v."""
        if not 0 <= v < len(self.adj):
            raise ValidationError(f"unknown vertex id {v}")
        return sum(w for _, w in self.adj[v])

    def check_simple(self) -> None:
        """O(|E|) audit: no self-loop, duplicate, one-sided edge, weight below 1
        or adjacency list out of ascending order."""
        n = len(self.adj)
        weights = list(map(dict, self.adj))
        for u, lst in enumerate(self.adj):
            if len(weights[u]) != len(lst):
                raise ValidationError(f"duplicate edge at {u}")
            prev = -1
            for v, w in lst:
                if v == u:
                    raise ValidationError(f"self-loop at {u}")
                if w < 1:
                    raise ValidationError(f"non-positive weight on ({u}, {v})")
                if not 0 <= v < n or weights[v].get(u) != w:
                    raise ValidationError(f"asymmetric edge ({u}, {v})")
                if v < prev:
                    raise ValidationError(f"adjacency list of {u} is not ascending")
                prev = v


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


def _alive(adj, committed, t, placed_mask):
    """False if precedence propagation proves the placed prefix dead.

    Per unplaced vertex, the remaining neighbors must split into a
    before/after set keeping both sides at most t; neighbors forced onto one
    side seed before/after arcs, propagated to a fixpoint, and the arcs must
    be acyclic (Kahn's algorithm)."""
    n = len(adj)
    before = [0] * n
    after = [0] * n
    pending = [u for u in range(n) if not placed_mask >> u & 1]
    unplaced = len(pending)
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
    indegree = [bits.bit_count() for bits in before]
    ready = [u for u in range(n) if not placed_mask >> u & 1 and indegree[u] == 0]
    for x in ready:
        bits = after[x]
        while bits:
            y = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return len(ready) == unplaced


DEAD_SET_CAP = 1 << 16


def prefix_orders(n, place, take_back, budget):
    """Orders of 0..n-1 in lexicographic order, by one explicit-stack DFS
    over prefix extensions in ascending vertex id.

    place(v, mask) puts v after the prefix set mask: None refuses v there,
    changes nothing and marks nothing; False calls the new set dead, which
    place must decide from the set alone; True goes on from it.
    take_back(v, mask) undoes a False or True.  A set called dead, or whose
    subtree yielded no order, is dead whatever order reaches it; up to
    DEAD_SET_CAP of them are never entered again.  budget bounds the
    placements tried; the search runs only as far as its orders are read.
    """
    dead, placed = set(), []
    stack = [[0, 0]]  # per depth: the next vertex id to try, orders found on entry
    mask = nodes = found = 0
    while True:
        if len(placed) == n:
            found += 1
            yield list(placed)
        vi = stack[-1][0]
        while vi < n and (mask >> vi & 1 or mask | 1 << vi in dead):
            vi += 1
        if vi < n:
            stack[-1][0] = vi + 1
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"order search exceeded {budget} nodes, with {len(dead)}"
                                          f" of DEAD_SET_CAP = {DEAD_SET_CAP} dead sets")
            alive = place(vi, mask)
            if alive:
                placed.append(vi)
                mask |= 1 << vi
                stack.append([0, found])
                continue
            if alive is None:
                continue
        else:  # every extension tried: take the last vertex back
            alive = stack.pop()[1] < found
            if not placed:
                return
            vi = placed.pop()
            mask ^= 1 << vi
        if not alive and len(dead) < DEAD_SET_CAP:
            dead.add(mask | 1 << vi)
        take_back(vi, mask)


def _extensions(g, t, budget):
    """The t-balancing orders by prefix_orders.  Placing v is refused when its
    right weight (total - left) exceeds t; no order reaches that set with v
    earlier, so remembering it would only fill the dead sets.  The new set is
    dead when an unplaced vertex's left weight exceeds t or _alive refuses it."""
    adj = g.adj
    total = [sum(w for _, w in lst) for lst in adj]
    if any(tw > 2 * t for tw in total):
        return
    committed = [0] * len(adj)

    def place(v, mask):
        if total[v] - committed[v] > t:
            return None
        for u, w in adj[v]:
            if not mask >> u & 1:
                committed[u] += w
        return (all(committed[u] <= t for u, _ in adj[v] if not mask >> u & 1)
                and _alive(adj, committed, t, mask | 1 << v))

    def take_back(v, mask):
        for u, w in adj[v]:
            if not mask >> u & 1:
                committed[u] -= w

    yield from prefix_orders(len(adj), place, take_back, budget)


def solve_balancing_order(g, t, budget: int = DEFAULT_ORDER_BUDGET):
    """First t-balancing order in lexicographic vertex-id order, or None."""
    return next(_extensions(g, t, budget), None)


def enumerate_balancing_orders(g, t, budget: int = DEFAULT_ORDER_BUDGET, limit=None):
    """List the t-balancing orders in lexicographic order, up to `limit`."""
    return list(islice(_extensions(g, t, budget), limit))


def check_balancing_tree(g, bt: Tree, t):
    """Return (True, None) or (False, (vertex, tree_edge)) for the first
    vertex whose weight across the cut of an incident tree edge exceeds t.
    Refuses a placement that is not a bijection from V(g) onto the nodes."""
    if set(bt.placement) != set(g.vertex_ids()):
        raise ValidationError("placement does not cover the vertex set")
    vertex_at = {node: v for v, node in bt.placement.items()}
    if len(vertex_at) != len(bt.placement) or vertex_at.keys() != bt.tree_adj.keys():
        raise ValidationError("placement is not a bijection onto the tree nodes")
    for (x, y), far in bt.sides():
        vx, vy = vertex_at[x], vertex_at[y]
        wx = sum(w for u, w in g.adj[vx] if u in far)
        if wx > t:
            return False, (vx, (x, y))
        wy = sum(w for u, w in g.adj[vy] if u not in far and u != vy)
        if wy > t:
            return False, (vy, (x, y))
    return True, None
