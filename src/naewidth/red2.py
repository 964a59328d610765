"""Step 2: from an edge-weighted graph (H, w) to an unweighted partitioned
graph (G, S) whose cut matchings mirror H's weighted degrees.

Every vertex u of H becomes an independent part S(u) split into blocks
I(u, v) of size w(uv); matching edges pair I(u, v) with I(v, u) position by
position, and dummy bicliques join blocks of disjoint H-edges.  G is kept
implicit, one block table: real instances have far too many dummy edges to
materialize, and adjacency (one bisection per vertex) and the edge counts are
arithmetic on the table.  Step 3 scales H's weights by a on the table (its
scale; every start and size times a), so H is never copied.  The table is laid
out, and audited by laying it out again, in O(|E(H)|): |V(G)| = 2·W(H)
reaches tens of millions at the paper profile.
"""

from __future__ import annotations

import bisect
import copy
import itertools
from operator import mul, sub

from .errors import ValidationError
from .matchings import AdjacencyCache
from .matchings import cut_value  # re-exported: callers take S-cut values from red2
from .tree import Tree, path
from .wgraph import WeightedGraph


class PartitionedGraph:
    """Implicit (G, S) over H with its weights times scale: a block table.

    Blocks are laid out in ascending (u, v), the order of H's rows, so every
    part S(u) is a contiguous id range and a block is found by bisection.
    adjacent(p, q) returns "matching", "dummy", or None in O(log #blocks).
    """

    def __init__(self, h: WeightedGraph):
        self.H = h
        self.scale = 1
        self.block_pairs, self.block_start, self.part_range, self.n = block_layout(h)

    def scaled(self, factor):
        """The (G, S) of H's weights times factor by arithmetic: every start,
        part bound, |V(G)| and the scale times factor (factor 1: self)."""
        if factor == 1:
            return self
        out = copy.copy(self)
        out.scale, out.n = self.scale * factor, self.n * factor
        out.block_start = [start * factor for start in self.block_start]
        out.part_range = {u: (a * factor, b * factor) for u, (a, b) in self.part_range.items()}
        return out

    def block_sizes(self):
        """Sizes of the blocks in table order, as one C-level map: block k
        ends where block k + 1 starts, and the last block ends at |V(G)|."""
        starts = self.block_start
        return map(sub, itertools.chain(itertools.islice(starts, 1, None), (self.n,)), starts)

    def part_vertices(self, u):
        start, end = self.part_range[u]
        return range(start, end)

    def parts(self):
        return sorted(self.part_range)

    def adjacent(self, p, q):
        """Edge kind between two G-vertices, or None (also for p == q).  The
        oracle's hot path: ranges and blocks are read here, p checked first."""
        n, starts = self.n, self.block_start
        if not 0 <= p < n:
            raise ValidationError(f"G-vertex {p} out of range")
        if not 0 <= q < n:
            raise ValidationError(f"G-vertex {q} out of range")
        if p == q:
            return None
        k, l = bisect.bisect_right(starts, p) - 1, bisect.bisect_right(starts, q) - 1
        (u, v), (x, y) = self.block_pairs[k], self.block_pairs[l]
        if (x, y) == (v, u):
            return "matching" if p - starts[k] == q - starts[l] else None
        return "dummy" if u != x and u != y and v != x and v != y else None

    def num_matching_edges(self):
        return self.n // 2

    def num_dummy_edges(self):
        """Pairs of G-vertices in blocks of vertex-disjoint H-edges, by arithmetic on
        the table: of the n² ordered pairs, Σ_z (2·|S(z)|)² meet at an H-vertex z
        (S(z) and its twin blocks), counting the 2·Σ|I|² on one H-edge twice.  This
        is 2·scale²·(W² + Σ w_e² − Σ_v d_v²), W the total weight, d_v the degrees."""
        blocks = list(self.block_sizes())
        parts = [b - a for a, b in self.part_range.values()]
        return (self.n ** 2 + 2 * sum(map(mul, blocks, blocks))
                - 4 * sum(map(mul, parts, parts))) // 2

    def validate(self) -> None:
        """O(|E(H)|) audit: H passes check_simple and the table is its layout at
        scale, so every block has a twin of its size."""
        self.H.check_simple()
        if (self.block_pairs, self.block_start, self.part_range, self.n) != block_layout(
                self.H, self.scale):
            raise ValidationError("the block table is not the layout of H's weights times scale")


def block_layout(h: WeightedGraph, scale=1):
    """(block_pairs, block_start, part_range, n) of H's weights times scale:
    one block I(u, v) per adjacency entry, in list order, from G-vertex 0, so
    the starts are the prefix sums of H.wt and part u spans its row's."""
    weights = h.wt if scale == 1 else map(mul, h.wt, itertools.repeat(scale))
    starts = list(itertools.accumulate(weights, initial=0))
    bounds = list(map(starts.__getitem__, h.start))
    n = starts.pop()
    return list(zip(h.owners(), h.nbr)), starts, dict(enumerate(zip(bounds, bounds[1:]))), n


def build_partitioned(h: WeightedGraph) -> PartitionedGraph:
    """(G, S) of an H that passes check_simple: a fresh table is its layout."""
    h.check_simple()
    return PartitionedGraph(h)


class TreeMapping(Tree):
    """Tree whose nodes each carry exactly one part; a balancing tree of H."""

    def __init__(self, tree_adj: dict, part_at: dict, is_path: bool = False):
        if set(part_at) != set(tree_adj):
            raise ValidationError("part placement does not cover the tree nodes")
        if len(set(part_at.values())) != len(part_at):
            raise ValidationError("part placement is not a bijection")
        if is_path and any(len(v) > 2 for v in tree_adj.values()):
            raise ValidationError("path flag set but tree has a degree-3 node")
        super().__init__(tree_adj, {part: node for node, part in part_at.items()})
        self.part_at = part_at  # node -> part key (H vertex / gadget owner)
        self.is_path = is_path


def mapping_cut(gs, mapping: TreeMapping, edge):
    """The S-cut (A, B) of G induced by a tree edge of the mapping: the parts
    on the edge's far side make up B."""
    parts_b = mapping.side(*edge)
    side_a, side_b = [], []
    for u in mapping.part_at.values():
        target = side_b if u in parts_b else side_a
        target.extend(gs.part_vertices(u))
    return side_a, side_b


def mapping_value(gs, mapping: TreeMapping, kind: str, threshold=None):
    """Max cut value over the mapping's tree edges.  Returns (value, exact).
    The sweep runs on one AdjacencyCache of the parts' G-vertices, a cut's
    side B the OR of its parts' masks, so it asks gs's oracle at most once
    per G-vertex pair."""
    parts = {u: list(gs.part_vertices(u)) for u in mapping.part_at.values()}
    cache = AdjacencyCache(gs.adjacent, [p for vertices in parts.values() for p in vertices])
    part_mask = {u: cache.mask(vertices) for u, vertices in parts.items()}
    everything = sum(part_mask.values())
    best = 0
    exact = True
    for _, parts_b in mapping.sides():
        side_b = sum(map(part_mask.__getitem__, parts_b))
        value, is_exact = cache.cut_value(everything ^ side_b, side_b, kind, threshold=threshold)
        if value > best:
            best = value
        exact = exact and is_exact
        if threshold is not None and best >= threshold:
            return best, False
    return best, exact


def path_mapping_from_order(gs, order) -> TreeMapping:
    """Path mapping S(v_i) -> p_i from an order on V(H)."""
    if sorted(order) != gs.parts():
        raise ValidationError("order does not cover the parts' H-vertices")
    return TreeMapping(tree_adj=path(order).tree_adj, part_at=dict(enumerate(order)),
                       is_path=True)

