"""Single audited kernel for maximum (semi-)induced matchings across a cut.

Every cut kind is the same search with a different conflict oracle, and
cut_value is its one entry point:

  mim       -- conflicts via cut edges only (bipartite cut graph),
  sim       -- conflicts via every graph edge, both sides included,
  omim      -- the lesser uim of the two sides, where uim(X) has conflicts
               via cut edges plus edges inside X.

A candidate set of cut edges is a valid matching iff it is a clique in the
*compatibility graph* (pairwise disjoint endpoints, no conflicting
adjacency), so the search is a Tomita-style maximum-clique branch and bound
over bitsets, with optional threshold-mode early exit.

Adjacency lives in an AdjacencyCache: one neighbour bitmask per index of the
sorted vertices, filled lazily, each pair asked of the oracle at most once.
A cut's m candidate cut edges are kept as rows, each a with its neighbours
in B, in sorted(A) × sorted(B) order.  The compatibility graph is built
bit-parallel from per-endpoint candidate masks (San Segundo et al., Comput.
Oper. Res. 2011): O(m) big-int ORs over m-bit masks read the cross-cut
blocking off the rows, and for sim and omim the side conflicts of an
endpoint x are nbr[x] & ends, ends the endpoints on x's side.

Cost of one cut value (cut_value): one cut_edges pass of |A|·|B| oracle
calls lists the candidates; mim then makes no more oracle calls, and sim and
omim at most C(k_A,2) + C(k_B,2), one per pair of distinct endpoints on a
side.  A cut with no candidate is 0; one whose candidates share an endpoint
is 1, with no compatibility graph built or conflict pair asked, and each
kernel call counts the one node its search would explore.

Cost of a sweep over one n-vertex graph (the cuts of every edge of a tree or
tree mapping, and the cuts an exact width values: all 2^(n-1) for general
layouts, the prefix cuts it tries for linear ones): it builds one cache and
gives each cut as index masks, so a row is nbr[a] & B, and it asks exactly
the pairs that one cut_value per cut would ask, each once: at most C(n,2)
oracle calls in all, not Σ|A|·|B| plus the conflict pairs per cut.
Mim-width and its relatives are maxima of these cut values (M. Vatshelle,
New width parameters of graphs, PhD thesis, Bergen 2012).
"""

from __future__ import annotations

from .errors import BudgetExceededError, ValidationError

DEFAULT_BUDGET = 10 ** 7

# kind -> its kernel calls, in order: (swap the sides, conflicts inside the
# first side, conflicts inside the second side); the cut value is the least
_KERNEL_CALLS = {"mim": ((False, False, False),), "sim": ((False, True, True),),
                 "omim": ((False, True, False), (True, True, False))}


def _kernel_calls(kind):
    if kind not in _KERNEL_CALLS:
        raise ValidationError(f"unknown cut kind {kind!r}")
    return _KERNEL_CALLS[kind]


class _ThresholdHit(Exception):
    pass


def _over_budget(budget):
    return BudgetExceededError(f"matching search exceeded {budget} nodes")


def cut_edges(adjacent, side_a, side_b):
    """All (a, b) pairs with a in A, b in B that are adjacent."""
    return [(a, b) for a in side_a for b in side_b if adjacent(a, b)]


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AdjacencyCache:
    """The oracle `adjacent` on a vertex set, as one neighbour bitmask per
    index of the sorted vertices.  A pair is asked of the oracle the first
    time a cut needs it, and never again.  Vertex sets are index masks, so
    one cache serves every cut of a sweep over one graph."""

    def __init__(self, adjacent, vertices):
        self.adjacent = adjacent
        self.vertices = sorted(set(vertices))
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.nbr = [0] * len(self.vertices)
        self.asked = [1 << i for i in range(len(self.vertices))]  # no vertex asks itself

    def mask(self, vertices):
        """The index mask of distinct vertices."""
        return sum(map((1).__lshift__, map(self.index.__getitem__, vertices)))

    def _ask(self, i, todo):
        """Ask the oracle about the pairs (i, j), j in todo."""
        x, own, nbr, asked = self.vertices[i], 1 << i, self.nbr, self.asked
        asked[i] |= todo
        for j in _bits(todo):
            asked[j] |= own
            if self.adjacent(x, self.vertices[j]):
                nbr[i] |= 1 << j
                nbr[j] |= own

    def rows(self, side_a, side_b):
        """The cut edges of (A, B), index masks, as rows (a, [b, ...]): each a
        with a neighbour in B, ascending, with those neighbours ascending."""
        nbr, asked, out = self.nbr, self.asked, []
        for i in _bits(side_a):
            todo = side_b & ~asked[i]
            if todo:
                self._ask(i, todo)
            row = nbr[i] & side_b
            if row:
                cols = []
                while row:
                    low = row & -row
                    cols.append(low.bit_length() - 1)
                    row ^= low
                out.append((i, cols))
        return out

    def rows_of(self, candidates):
        """The rows of the cut edges (a, b) as cut_edges lists them on sorted
        sides, with no oracle call."""
        index = self.index
        return _rows((index[a], index[b]) for a, b in candidates)

    def _side_conflicts(self, on, block, ends):
        """block[x] |= on[y] and block[y] |= on[x] for every adjacent pair of
        the endpoints in the mask ends, all on one side."""
        nbr, asked, above = self.nbr, self.asked, ends
        while above:  # x is the lowest endpoint left; above holds those after it
            low = above & -above
            above ^= low
            x = low.bit_length() - 1
            todo = above & ~asked[x]
            if todo:
                self._ask(x, todo)
            row = nbr[x] & above
            while row:
                low = row & -row
                y = low.bit_length() - 1
                block[x] |= on[y]
                block[y] |= on[x]
                row ^= low

    def compatibility(self, rows, conflict_in_a, conflict_in_b):
        """compatibility_masks of the candidates in rows, in row order."""
        n = len(self.vertices)
        on_a, on_b = [0] * n, [0] * n  # per vertex: the candidates on it
        block_a, block_b = [0] * n, [0] * n  # per endpoint: the candidates it blocks
        k = 0
        for i, cols in rows:
            on_a[i] = on_row = ((1 << len(cols)) - 1) << k
            for j in cols:
                on_b[j] |= 1 << k
                block_b[j] |= on_row
                k += 1
        for i, cols in rows:
            block_a[i] = sum(map(on_b.__getitem__, cols))
        if conflict_in_a:
            self._side_conflicts(on_a, block_a, sum(1 << i for i, _ in rows))
        if conflict_in_b:
            ends_b = {j for _, cols in rows for j in cols}
            self._side_conflicts(on_b, block_b, sum(map((1).__lshift__, ends_b)))
        full = (1 << k) - 1
        return [full & ~(block_a[i] | block_b[j]) for i, cols in rows for j in cols]

    def value(self, rows, kind: str, threshold=None, budget: int = DEFAULT_BUDGET,
              stats=None):
        """cut_value of the cut whose cut edges are the rows; omim's swapped
        kernel call takes them transposed.  A cut with no cut edge, or whose cut
        edges share one endpoint, gets the search's answer with no search."""
        calls = _kernel_calls(kind)
        if not rows:
            return 0, True
        if threshold is not None and threshold <= 0:
            return 0, False
        if len(rows) == 1 or len(rows[0][1]) == 1 and all(cols == rows[0][1] for _, cols in rows):
            # one shared endpoint: every kernel call would explore one node and find 1
            if stats is not None:
                stats["nodes"] = stats.get("nodes", 0) + (len(calls) if budget >= 1 else 1)
            if budget < 1:
                raise _over_budget(budget)
            return 1, threshold is None or threshold > 1
        results = []
        for swap, in_x, in_y in calls:
            edges = _rows(sorted((j, i) for i, cols in rows for j in cols)) if swap else rows
            masks = self.compatibility(edges, in_x, in_y)
            results.append(max_clique(masks, threshold=threshold, budget=budget, stats=stats))
        return min(results)

    def cut_value(self, side_a, side_b, kind: str, threshold=None,
                  budget: int = DEFAULT_BUDGET, stats=None):
        """cut_value of the cut (A, B) of disjoint index masks."""
        return self.value(self.rows(side_a, side_b), kind, threshold=threshold,
                          budget=budget, stats=stats)


def _rows(pairs):
    """Index pairs (a, b), listed by a, as rows (a, [b, ...]) in their order."""
    rows = {}
    for i, j in pairs:
        rows.setdefault(i, []).append(j)
    return list(rows.items())


def compatibility_masks(adjacent, candidates, conflict_in_a, conflict_in_b):
    """Bitmask adjacency of the compatibility graph over candidate cut edges.

    `candidates` must be every adjacent (a, b) pair of the cut, as cut_edges
    lists them on sorted sides: a cross-cut conflict (a_i, b_j) is then
    itself a candidate, so it is read off the list with no oracle call.
    Candidate i is blocked by every candidate on its endpoints and on their
    cross-cut neighbours; on a conflict side, also by those on the
    endpoint's neighbours among that side's endpoints, which costs one
    oracle call per pair of distinct endpoints on that side.
    """
    cache = AdjacencyCache(adjacent, [v for edge in candidates for v in edge])
    return cache.compatibility(cache.rows_of(candidates), conflict_in_a, conflict_in_b)


def max_clique(masks, threshold=None, budget: int = DEFAULT_BUDGET, stats=None):
    """Maximum clique size via branch and bound with a greedy colouring bound.

    Returns (size, exact).  With a threshold, stops as soon as a clique of
    that size is found and reports (threshold, False).  Raises
    BudgetExceededError when the node budget runs out.  When given, `stats`
    accumulates the explored node count under the "nodes" key.
    """
    m = len(masks)
    if m == 0:
        return 0, True
    best = 0
    nodes = 0
    full = (1 << m) - 1

    def colour_order(p):
        order, bounds = [], []
        add_vertex, add_bound = order.append, bounds.append
        colour = 0
        while p:
            colour += 1
            q = p
            while q:
                bit = q & -q
                v = bit.bit_length() - 1
                q &= ~(bit | masks[v])
                p ^= bit
                add_vertex(v)
                add_bound(colour)
        return order, bounds

    def expand(size, p):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise _over_budget(budget)
        order, bounds = colour_order(p)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            if size + 1 > best:
                best = size + 1
                if threshold is not None and best >= threshold:
                    raise _ThresholdHit
            sub = p & masks[v]
            if sub:
                expand(size + 1, sub)
            p &= ~(1 << v)

    try:
        expand(0, full)
    except _ThresholdHit:
        return best, False
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return best, True


def cut_value(adjacent, side_a, side_b, kind: str, threshold=None,
              budget: int = DEFAULT_BUDGET):
    """Exact mim/sim/omim value of the cut (A, B).  Returns (value, exact);
    exact is False only when a threshold stopped a search early, and the
    value is then a lower bound.  The cache serves the side conflicts."""
    _kernel_calls(kind)
    set_a, set_b = set(side_a), set(side_b)
    if set_a & set_b:
        raise ValidationError("cut sides overlap")
    cache = AdjacencyCache(adjacent, set_a | set_b)
    # cut_edges' pass, listed as rows: the cheapest listing of the 53 splits of a
    # 54-vertex gadget (7.1 ms; 9.9 ms by cut_edges and rows_of, 18 ms by rows)
    index, sorted_b = cache.index, sorted(set_b)
    rows = [(index[a], cols) for a in sorted(set_a)
            if (cols := [index[b] for b in sorted_b if adjacent(a, b)])]
    return cache.value(rows, kind, threshold=threshold, budget=budget)


def adjacency_from_sets(adj_sets):
    """Adapt {vertex: set(neighbors)} into a pair-adjacency callable."""
    return lambda u, v: v in adj_sets[u]
