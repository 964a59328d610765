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
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from operator import ge, gt, itemgetter, lt, sub

from .errors import BudgetExceededError, ValidationError
from .tree import Tree

ROLES = (
    "variable", "variable_bar", "t", "f", "t_bar", "f_bar", "clause",
    "spine_a", "spine_b", "root", "s_terminal", "pad_x", "pad_y", "plain",
)

DEFAULT_ORDER_BUDGET = 10 ** 7


def _check_edge(u, v, w):
    if u == v:
        raise ValidationError(f"self-loop at vertex {u}")
    if w < 1:
        raise ValidationError(f"edge weight {w} < 1 on ({u}, {v})")


class _Adjacency:
    """Read-only per-vertex view of the flat lists: adj[u] is the tuple of
    u's (neighbour, weight) pairs.  It holds the lists, never the graph."""

    __slots__ = ("_start", "_nbr", "_wt")

    def __init__(self, start, nbr, wt):
        self._start, self._nbr, self._wt = start, nbr, wt

    def __len__(self):
        return len(self._start) - 1

    def __getitem__(self, u):
        if not 0 <= u < len(self._start) - 1:
            raise IndexError(f"vertex {u} out of range")
        lo, hi = self._start[u], self._start[u + 1]
        return tuple(zip(self._nbr[lo:hi], self._wt[lo:hi]))


class WeightedGraph:
    """Undirected graph with positive integer edge weights and dense ids.

    Vertices are 0..n-1 with a label and a role tag.  The adjacency is three
    flat lists (compressed sparse rows): u's neighbours, ascending, are
    nbr[start[u]:start[u + 1]], and the weights of those edges are the same
    slice of wt.  add_edge inserts in order, from_edges lays out every row at
    once, and builders that write the lists directly write each row
    ascending, so the edges come out in (u, v) order with no sort.  adj[u]
    reads one vertex's (neighbour, weight) pairs.  Builders never add
    duplicate edges; check_simple() audits that, plus symmetry, positivity
    and the offsets.  For a step-1 build, labels may be a computed read-only
    sequence (len, iteration, indexing and == against a list).
    """

    __slots__ = ("labels", "roles", "start", "nbr", "wt")

    def __init__(self):
        self.labels = []
        self.roles = []
        self.start = [0]
        self.nbr = []
        self.wt = []

    @classmethod
    def from_edges(cls, labels, roles, edges):
        """The graph on the labelled vertices with the (u, v, weight) edges,
        given in any order and orientation, laid out in one sort."""
        edges = [(u, v, w) if u < v else (v, u, w) for u, v, w in edges]
        bad = min((e for e in edges if e[0] == e[1] or e[2] < 1), default=None)
        if bad is not None:
            _check_edge(*bad)
        entries = sorted(chain(edges, map(itemgetter(1, 0, 2), edges)))
        degree = Counter(map(itemgetter(0), entries))
        g = cls()
        g.labels, g.roles = list(labels), list(roles)
        g.start = list(accumulate(map(degree.__getitem__, range(len(g.labels))), initial=0))
        g.nbr = list(map(itemgetter(1), entries))
        g.wt = list(map(itemgetter(2), entries))
        return g

    @property
    def n(self):
        return len(self.start) - 1

    @property
    def adj(self):
        return _Adjacency(self.start, self.nbr, self.wt)

    def vertex_ids(self):
        return range(self.n)

    def add_vertex(self, label: str = "", role: str = "plain") -> int:
        self.labels.append(label)
        self.roles.append(role)
        self.start.append(self.start[-1])
        return len(self.start) - 2

    def add_edge(self, u: int, v: int, w: int) -> None:
        """Insert uv into both rows in order: O(n + |E|), for small builds."""
        _check_edge(u, v, w)
        start, nbr, wt = self.start, self.nbr, self.wt
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValidationError(f"edge ({u}, {v}) names an unknown vertex")
        for x, y in sorted(((u, v), (v, u)), reverse=True):  # the later row first
            i = bisect.bisect(nbr, y, start[x], start[x + 1])
            nbr.insert(i, y)
            wt.insert(i, w)
            start[x + 1:] = [s + 1 for s in islice(start, x + 1, None)]

    def owners(self):
        """Iterator over the vertex of every adjacency entry, in list order:
        u deg(u) times."""
        start = self.start
        return chain.from_iterable(map(repeat, range(self.n),
                                       map(sub, islice(start, 1, None), start)))

    def edges(self):
        """(u, v, weight) of every edge, u < v, in ascending order."""
        owners, owners_again = tee(self.owners())
        return compress(zip(owners, self.nbr, self.wt), map(lt, owners_again, self.nbr))

    def num_edges(self):
        return len(self.nbr) // 2

    def total_weight(self):
        return sum(map(itemgetter(2), self.edges()))

    def vertex_weight(self, v: int) -> int:
        """Sum of the weights of the edges incident to v."""
        if not 0 <= v < self.n:
            raise ValidationError(f"unknown vertex id {v}")
        return sum(self.wt[self.start[v]:self.start[v + 1]])

    def check_simple(self) -> None:
        """O(|E|) audit: offsets that bound the neighbour and weight lists, and
        no self-loop, duplicate, one-sided edge, weight below 1 or row out of
        ascending order.  The verdict is one pass that lays the rows out as
        columns: with every row strictly ascending, the graph is symmetric iff
        each row is its vertex's column.  A graph at fault is then walked row
        by row, and the first fault met is named: a row's duplicate before its
        entries, and at one entry a self-loop, a weight, a missing twin, then
        the order."""
        start, nbr, wt = self.start, self.nbr, self.wt
        n = len(start) - 1
        if (n < 0 or start[0] != 0 or start[-1] != len(nbr) or len(wt) != len(nbr)
                or len(self.labels) != n or len(self.roles) != n
                or any(map(gt, start, islice(start, 1, None)))):
            raise ValidationError("the offsets do not bound the neighbour and weight lists")
        if (min(wt, default=1) >= 1 and (not nbr or 0 <= min(nbr) <= max(nbr) < n)
                and set(compress(count(1), map(ge, nbr, islice(nbr, 1, None)))) <= set(start)):
            column, column_wt, fill = [None] * len(nbr), [None] * len(nbr), start[:-1]
            ends = iter(start)
            u, end = -1, next(ends)
            for k, v in enumerate(nbr):
                while k == end:  # entry k opens the next non-empty row
                    u += 1
                    end = next(ends)
                i = fill[v]
                if v == u or i == start[v + 1]:  # a self-loop, or v's column is full
                    break
                fill[v] = i + 1
                column[i] = u
                column_wt[i] = wt[k]
            else:
                if column == nbr and column_wt == wt:
                    return
        rows = list(zip(start, islice(start, 1, None)))
        weights = [dict(zip(nbr[lo:hi], wt[lo:hi])) for lo, hi in rows]
        for u, (lo, hi) in enumerate(rows):
            if len(weights[u]) != hi - lo:
                raise ValidationError(f"duplicate edge at {u}")
            prev = -1
            for v, w in zip(nbr[lo:hi], wt[lo:hi]):
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
    weight exceeds t.  One pass over the rows in list order sums each
    vertex's neighbours to either side by their rank in the order.
    """
    n = g.n
    if len(order) != n or (order and not 0 <= min(order) <= max(order) < n):
        raise ValidationError("order is not a permutation of the vertex set")
    rank = [None] * n
    for i, v in enumerate(order):
        rank[v] = i
    if None in rank:
        raise ValidationError("order is not a permutation of the vertex set")
    if t < 0:  # every vertex weighs at least 0 on either side
        return (False, order[0]) if order else (True, None)
    nbr, wt, over = g.nbr, g.wt, []
    ends = iter(g.start)
    u, end, left, right = -1, next(ends), 0, 0
    for k, v in enumerate(nbr):
        if k == end:  # u's row is summed up; entry k opens the next non-empty row
            if left > t or right > t:
                over.append(u)
            left = right = 0
            while k == end:
                u += 1
                end = next(ends)
            rank_u = rank[u]
        if rank[v] < rank_u:
            left += wt[k]
        else:
            right += wt[k]
    if left > t or right > t:
        over.append(u)
    if not over:
        return True, None
    over = set(over)
    return False, next(v for v in order if v in over)


_PROPAGATION_DEGREE_CAP = 12


def _alive(adj, committed, t, placed_mask):
    """False if precedence propagation proves the placed prefix dead.

    Per unplaced vertex, the remaining neighbors must split into a
    before/after set keeping both sides at most t.  The splits are read off
    the 2^m subset sums of its m free neighbors, built by doubling.
    Neighbors forced onto one side seed before/after arcs, propagated to a
    fixpoint, and the arcs must be acyclic (Kahn's algorithm, skipped when
    no arc was added).  The answer depends on the set alone: an unplaced
    vertex's committed weight is its weight into the set."""
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
        sums = [0]  # sums[subset]: the weight of the free neighbors in subset, put before u
        for _, w in free:
            sums += [s + w for s in sums]
        low, high = sums[-1] + rbase - t, t - lbase
        always = -1  # stays -1 if no split fits
        union = 0
        for subset, left in enumerate(sums):
            if low <= left <= high:
                always &= subset
                union |= subset
        if always < 0:
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
    if not any(before):  # no arc was added
        return True
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
    place must decide from the set alone; True goes on from it, and place
    may remember the sets it went on from to answer them again unchecked.
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
    dead when an unplaced vertex's left weight exceeds t or _alive refuses it.
    Up to DEAD_SET_CAP sets _alive accepted are remembered too, so each set
    is propagated once however many orders reach it."""
    adj = list(g.adj)  # one snapshot of the rows: the search reads them again and again
    total = [sum(w for _, w in lst) for lst in adj]
    if any(tw > 2 * t for tw in total):
        return
    committed = [0] * len(adj)
    live = set()

    def place(v, mask):
        if total[v] - committed[v] > t:
            return None
        fits = True
        for u, w in adj[v]:
            if not mask >> u & 1:
                committed[u] += w
                fits = fits and committed[u] <= t
        mask |= 1 << v
        if not fits or (mask not in live and not _alive(adj, committed, t, mask)):
            return False
        if len(live) < DEAD_SET_CAP:
            live.add(mask)
        return True

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
