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

Cost of one cut value: |A|·|B| oracle calls find the m candidate cut edges.
The compatibility graph is then built bit-parallel from per-endpoint
candidate masks (San Segundo et al., Comput. Oper. Res. 2011): O(m) big-int
ORs over m-bit masks, no oracle calls for mim, and for sim one call per pair
of distinct endpoints on the same side, at most C(k_A,2) + C(k_B,2).

Cost of a sweep, the cuts of every edge of a tree or tree mapping over one
n-vertex graph: it wraps its oracle once in pair_memo, so it makes at most
C(n,2) oracle calls in all, not Σ|A|·|B| plus the conflict pairs per cut.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceededError, ValidationError

DEFAULT_BUDGET = 10 ** 7

# kind -> its kernel calls, in order: (swap the sides, conflicts inside the
# first side, conflicts inside the second side); the cut value is the least
_KERNEL_CALLS = {"mim": ((False, False, False),), "sim": ((False, True, True),),
                 "omim": ((False, True, False), (True, True, False))}


class _ThresholdHit(Exception):
    pass


def cut_edges(adjacent, side_a, side_b):
    """All (a, b) pairs with a in A, b in B that are adjacent."""
    return [(a, b) for a in side_a for b in side_b if adjacent(a, b)]


def compatibility_masks(adjacent, candidates, conflict_in_a, conflict_in_b):
    """Bitmask adjacency of the compatibility graph over candidate cut edges.

    `candidates` must be every adjacent (a, b) pair of the cut, as cut_edges
    lists them: a cross-cut conflict (a_i, b_j) is then itself a candidate,
    so it is read off the list with no oracle call.  Candidate i is blocked
    by every candidate on its endpoints and on their cross-cut neighbours;
    only a conflict side costs oracle calls, one per pair of distinct
    endpoints on that side.
    """
    at_a, at_b = {}, {}  # endpoint -> mask of the candidates on it
    for i, (a, b) in enumerate(candidates):
        at_a[a] = at_a.get(a, 0) | 1 << i
        at_b[b] = at_b.get(b, 0) | 1 << i
    block_a, block_b = dict(at_a), dict(at_b)
    for a, b in candidates:
        block_a[a] |= at_b[b]
        block_b[b] |= at_a[a]
    for conflict, at, block in ((conflict_in_a, at_a, block_a),
                                (conflict_in_b, at_b, block_b)):
        if conflict:
            for x, y in itertools.combinations(at, 2):
                if adjacent(x, y):
                    block[x] |= at[y]
                    block[y] |= at[x]
    full = (1 << len(candidates)) - 1
    return [full & ~(block_a[a] | block_b[b]) for a, b in candidates]


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
        order = []
        bounds = []
        colour = 0
        while p:
            colour += 1
            q = p
            while q:
                v = (q & -q).bit_length() - 1
                bit = 1 << v
                p &= ~bit
                q &= ~bit & ~masks[v]
                order.append(v)
                bounds.append(colour)
        return order, bounds

    def expand(size, p):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"matching search exceeded {budget} nodes")
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
              budget: int = DEFAULT_BUDGET, stats=None):
    """Exact mim/sim/omim value of the cut (A, B).  Returns (value, exact);
    exact is False only when a threshold stopped a search early, and the
    value is then a lower bound."""
    if kind not in _KERNEL_CALLS:
        raise ValidationError(f"unknown cut kind {kind!r}")
    set_a, set_b = set(side_a), set(side_b)
    if set_a & set_b:
        raise ValidationError("cut sides overlap")
    sides = sorted(set_a), sorted(set_b)
    if threshold is not None and threshold <= 0:
        return 0, not cut_edges(adjacent, *sides)
    results = []
    for swap, in_x, in_y in _KERNEL_CALLS[kind]:
        x, y = sides[::-1] if swap else sides
        masks = compatibility_masks(adjacent, cut_edges(adjacent, x, y), in_x, in_y)
        results.append(max_clique(masks, threshold=threshold, budget=budget, stats=stats))
    return min(results)


def pair_memo(adjacent):
    """The oracle `adjacent`, asked at most once per unordered pair.  Each
    answer is kept as a bool: the G* and (G, S) oracles answer None for a
    non-edge, which would read as not yet asked.  One memo serves one
    sweep, so it holds at most C(n,2) entries."""
    known = {}

    def memo(x, y):
        key = (x, y) if x < y else (y, x)
        value = known.get(key)
        if value is None:
            value = known[key] = bool(adjacent(x, y))
        return value
    return memo


def adjacency_from_sets(adj_sets):
    """Adapt {vertex: set(neighbors)} into a pair-adjacency callable."""
    return lambda u, v: v in adj_sets[u]
