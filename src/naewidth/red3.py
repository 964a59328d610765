"""Step 3: from the partitioned graph (G, S) to the final width instance G*.

Each part S(u) becomes a gadget on the path P_u: every block I(u, v) is cut
into `a` equal slices, chunk i lists slice i of each block in ascending
neighbour order, and the sequence is 1-subdivided with one vertex appended
(so |V(P_u)| = 2|S(u)|).  When a block size is no multiple of a,
ensure_divisible first scales (G, S) by a, by arithmetic on its block table:
every start and size times a.  The gadget concatenates b quasi-copies of
P_u that are densely interconnected except around corresponding positions.
Inter-gadget edges are bicliques between the copy sets of G-adjacent
originals.  Neither P_u nor the id layout of G* is stored: the G* oracle reads
any position off the block layout of (G, S), and the gadget of u holds the
2b·|S(u)| ids from 2b·start(S(u)) on, so G* is built in O(|E(H)|).

Grouping moves each gadget of a hybrid tree (a Tree placing V(G*), one vertex
or one whole gadget per node) onto a subdivided edge and contracts the result
to a tree mapping of (G*, S*), which projects back to one of (G, S).
"""

from __future__ import annotations

import bisect
import collections
import itertools
import operator

from .errors import CapExceededError, ValidationError
from .red1 import Constants, validate_constants
from .red2 import PartitionedGraph, TreeMapping
from .tree import Tree
from .widths import TreeLayout, linear_layout_from_order, tree_cut_values

# caterpillar_layout and gadget_nodes list every G*-vertex: this
# admits the seeded n=6 formula at the small profile (1,992,096 vertices) and
# refuses a paper-profile G* before the list exhausts memory
LAYOUT_CAP = 1 << 21


class Gadget:
    """One part gadget: b copies of the subdivided block path P_u.

    P_u is read off the block layout of (G, S): S(u) spans the G-vertices
    [start, end), u's blocks are the block indices [first, last), and the
    gadgets before it hold 2b ids per G-vertex, so it starts at 2b·start.
    """

    def __init__(self, gs: PartitionedGraph, owner, copies):
        self.copies = copies
        self.start, self.end = gs.part_range[owner]
        self.first = bisect.bisect_left(gs.block_start, self.start)
        self.last = bisect.bisect_left(gs.block_start, self.end)
        self.plen = 2 * (self.end - self.start)
        self.base = copies * 2 * self.start  # first G*-vertex id of this gadget

    @property
    def size(self):
        return self.copies * self.plen

    def locate(self, vid):
        return divmod(vid - self.base, self.plen)

    def adjacent(self, x, y):
        """Edge kind between two vertices of this gadget: "path" for an edge
        of Q_u, "cross" for an edge between distinct copies, or None.

        Distinct copies are joined everywhere except at corresponding
        positions, their path neighbors, and the copy-boundary successors and
        predecessors (the symmetrized closed neighborhood of the copy set in
        Q_u); the concatenation edges of Q_u stay.  An id outside the
        gadget is refused, x checked first."""
        copies = self.copies
        ci, p = divmod(x - self.base, self.plen)
        if not 0 <= ci < copies:
            raise ValidationError(f"G*-vertex {x} out of the gadget's range")
        cj, q = divmod(y - self.base, self.plen)
        if not 0 <= cj < copies:
            raise ValidationError(f"G*-vertex {y} out of the gadget's range")
        if ci == cj:
            return "path" if abs(p - q) == 1 else None
        if ci > cj:
            ci, cj = cj, ci
            p, q = q, p
        last = self.plen - 1
        if p == last and q == 0:
            return "path" if ci + 1 == cj else None
        # position 0 of copy ci and the last position of copy cj are Q_u
        # neighbors of each other's copies unless ci and cj are the outer copies
        if abs(p - q) <= 1 or (p == 0 and q == last and not (ci == 0 and cj == copies - 1)):
            return None
        return "cross"


def build_gadget(gs: PartitionedGraph, u, c: Constants) -> Gadget:
    """Gadget of u: b concatenated quasi-copies of P_u, for valid constants c.
    Refuses an empty S(u) and a block whose size a does not divide."""
    if u not in gs.part_range:
        raise ValidationError(f"{u} is not an H-vertex of the partition")
    gadget = Gadget(gs, u, c.b)
    if gadget.plen == 0:
        raise ValidationError(f"S({u}) is empty, so |V(P_{u})| = 2|S({u})| = 0")
    sizes = itertools.islice(gs.block_sizes(), gadget.first, gadget.last)
    for k, size in enumerate(sizes, gadget.first):
        if size % c.a != 0:
            raise ValidationError(f"|I({u},{gs.block_pairs[k][1]})| = {size} "
                                  f"not divisible by a = {c.a}")
    return gadget


def _first_indivisible(gs: PartitionedGraph, a):
    """Owner of the first block whose size a does not divide, or None (one
    C-level pass)."""
    k = next(itertools.compress(itertools.count(), map(a.__rmod__, gs.block_sizes())), None)
    return None if k is None else gs.block_pairs[k][0]


class Gstar:
    """Implicit G*: gadgets made on demand plus an O(1) adjacency oracle.

    Gadgets occupy contiguous id ranges in ascending owner order, 2b ids per
    G-vertex of their part, so G*-vertex x lies in the gadget of the owner
    of G-vertex x // 2b; S* maps each owner to its gadget's vertex range.
    Inter-gadget edges join original-tagged vertices whose G-originals are
    adjacent, inheriting the matching/dummy kind.
    """

    def __init__(self, gs: PartitionedGraph, c: Constants):
        validate_constants(c)
        # build_gadget refuses the least faulty owner, as building every gadget would
        starts = gs.H.start
        empty = next(itertools.compress(itertools.count(), map(
            operator.eq, starts, itertools.islice(starts, 1, None))), None)
        faulty = [u for u in (_first_indivisible(gs, c.a), empty) if u is not None]
        if faulty:
            build_gadget(gs, min(faulty), c)
        self.GS, self.constants = gs, c
        self.span = 2 * c.b  # G*-vertices per G-vertex
        self.n = self.span * gs.n
        self._gadgets = {}

    def gadget(self, u) -> Gadget:
        """The gadget of owner u, made on the first call and kept."""
        if u not in self._gadgets:
            self._gadgets[u] = Gadget(self.GS, u, self.constants.b)
        return self._gadgets[u]

    def owner_of(self, vid):
        if not 0 <= vid < self.n:
            raise ValidationError(f"G*-vertex {vid} out of range")
        gs = self.GS
        return gs.block_pairs[bisect.bisect_right(gs.block_start, vid // self.span) - 1][0]

    def part_vertices(self, u):
        start, end = self.GS.part_range[u]
        return range(self.span * start, self.span * end)

    def parts(self):
        return self.GS.parts()

    def adjacent(self, x, y):
        """Edge kind between two G*-vertices ("path", "cross", "matching",
        "dummy"), or None (also for x == y).

        This is the oracle's hot path, so owners, positions and originals are
        read off the block table here.  Position pos of P_u holds an original
        iff it is even (the appended last one is odd): original pos/2 is
        offset r of one chunk, and a chunk holds a slice of each block of u,
        1/a of its size, so offset r lies in the block that holds G-vertex
        start + r·a."""
        if not 0 <= x < self.n:
            raise ValidationError(f"G*-vertex {x} out of range")
        if not 0 <= y < self.n:
            raise ValidationError(f"G*-vertex {y} out of range")
        if x == y:
            return None
        gs, span, a = self.GS, self.span, self.constants.a
        starts, pairs = gs.block_start, gs.block_pairs
        ux = pairs[bisect.bisect_right(starts, x // span) - 1][0]
        uy = pairs[bisect.bisect_right(starts, y // span) - 1][0]
        if ux == uy:
            return (self._gadgets.get(ux) or self.gadget(ux)).adjacent(x, y)
        originals = []
        for vid, u in ((x, ux), (y, uy)):
            start, end = gs.part_range[u]
            pos = (vid - span * start) % (2 * (end - start))
            if pos % 2:
                return None
            chunk, r = divmod(pos // 2, (end - start) // a)
            at = start + r * a
            k = bisect.bisect_right(starts, at) - 1
            first = starts[k]
            width = ((starts[k + 1] if k + 1 < len(starts) else gs.n) - first) // a
            originals.append(first + chunk * width + (at - first) // a)
        return gs.adjacent(*originals)


def build_Gstar(gs: PartitionedGraph, c: Constants) -> Gstar:
    return Gstar(gs, c)


def ensure_divisible(gs: PartitionedGraph, c: Constants):
    """(G, S) with a dividing every block size, and the factor: (gs, 1) if a
    does already, else (gs.scaled(a), a).  Step-1 graphs carry unit-grain
    weights (gamma+1 links, weight-1 padding); balancing thresholds scale too."""
    if _first_indivisible(gs, c.a) is None:
        return gs, 1
    return gs.scaled(c.a), c.a


def caterpillar_layout(star: Gstar, h_order) -> TreeLayout:
    """Linear layout of G* with leaves in Q_{u_1}..Q_{u_n} order along the
    given order of the gadget owners."""
    if star.n > LAYOUT_CAP:
        raise CapExceededError(f"|V(G*)| = {star.n} exceeds the layout cap {LAYOUT_CAP}")
    if sorted(h_order) != star.parts():
        raise ValidationError("order does not cover the gadget owners")
    leaves = []
    for u in h_order:
        leaves.extend(star.part_vertices(u))
    return linear_layout_from_order(leaves)


def gadget_nodes(ht: Tree, star: Gstar) -> dict:
    """{node: owner} of the nodes of hybrid tree ht holding a whole gadget.

    Raises ValidationError unless the placement covers exactly V(G*), every
    node has degree at most 3, and every node holding two or more vertices
    holds one whole gadget.  A G* above LAYOUT_CAP is refused before its ids
    are listed."""
    if star.n > LAYOUT_CAP:
        raise CapExceededError(f"|V(G*)| = {star.n} exceeds the layout cap {LAYOUT_CAP}")
    if ht.placement.keys() != set(range(star.n)):
        raise ValidationError("hybrid tree placement does not cover the G*-vertices")
    for x, nbrs in ht.tree_adj.items():
        if len(nbrs) > 3:
            raise ValidationError(f"node {x} has degree {len(nbrs)} > 3")
    count = collections.Counter(ht.placement.values())
    some = dict(zip(ht.placement.values(), ht.placement))  # node -> a vertex on it
    owners = {}
    for node in ht.tree_adj:
        if count[node] > 1:
            u = star.owner_of(some[node])
            vertices = star.part_vertices(u)
            if count[node] != len(vertices) or any(ht.placement[v] != node for v in vertices):
                raise ValidationError(f"node {node} holds a strict partial gadget")
            owners[node] = u
    return owners


def hybrid_from_layout(layout: TreeLayout) -> Tree:
    """A tree layout is already a hybrid tree: leaves hold one vertex each."""
    return Tree({k: list(v) for k, v in layout.tree_adj.items()}, dict(layout.placement))


def hybrid_cut_sides(ht: Tree, star: Gstar, edge):
    """The cut (A, B) of G* at a tree edge, B the vertices on its far side."""
    far = ht.side(*edge)
    return [v for v in range(star.n) if v not in far], sorted(far)


def hybrid_sim_values(ht: Tree, star: Gstar):
    """Exact sim value per tree edge, keyed by the edge."""
    return tree_cut_values(star.adjacent, range(star.n), ht, "sim")


class DefaultEdgeNotFound(ValidationError):
    """No node holds the gadget and no tree edge has a whole copy of P_u on
    both sides; the sim-value assumption behind relocation was violated."""


def find_default_edge(star: Gstar, ht: Tree, u):
    """Either ("node", t) with preimage V(G(u))), or ("edge", (x, y)) with a
    whole copy of P_u on both sides: a BFS from the minimum-id node counts
    each copy's vertices below every child y."""
    gadget = star.gadget(u)
    for node, owner in gadget_nodes(ht, star).items():
        if owner == u:
            return "node", node
    parent = {min(ht.tree_adj): None}
    order = list(parent)
    for x in order:
        for y in sorted(ht.tree_adj[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
    below = {}  # node -> vertices of each copy placed below it
    for v in star.part_vertices(u):
        below.setdefault(ht.placement[v], [0] * gadget.copies)[gadget.locate(v)[0]] += 1
    for y in reversed(order[1:]):
        if y in below:
            up = below.setdefault(parent[y], [0] * gadget.copies)
            up[:] = map(int.__add__, up, below[y])
    for y in order[1:]:
        counts = below.get(y)
        if counts and gadget.plen in counts and 0 in counts:
            return "edge", (parent[y], y)
    raise DefaultEdgeNotFound(f"no default node or edge for gadget of {u}")


def group_gadget(star: Gstar, ht: Tree, u) -> Tree:
    """Relocate all of V(G(u)) onto the default edge, subdividing it.

    Identity when some node already holds the whole gadget; the result stays
    a subcubic hybrid tree and (by exact recomputation in tests) its per-edge
    sim values never increase.
    """
    if u not in star.GS.part_range:
        raise ValidationError(f"G* has no gadget of owner {u}")
    kind, where = find_default_edge(star, ht, u)
    if kind == "node":
        return ht
    new_node = max(ht.tree_adj) + 1
    placement = dict(ht.placement)
    for v in star.part_vertices(u):
        placement[v] = new_node
    return Tree(ht.subdivide(*where, new_node), placement)


def group_all(star: Gstar, ht: Tree) -> Tree:
    """Group every gadget, owners in ascending id order."""
    for u in star.parts():
        ht = group_gadget(star, ht, u)
    return ht


def hybrid_to_tree_mapping(star: Gstar, ht: Tree) -> TreeMapping:
    """Contract part-next-to-empty edges until every node holds one part."""
    owners = gadget_nodes(ht, star)
    if len(owners) != len(star.GS.part_range):
        raise ValidationError("a node holds a strict partial preimage; grouping incomplete")
    owner_at = {node: owners.get(node) for node in ht.tree_adj}

    # each run of empty nodes merges into the least part node next to it
    adj = {k: set(v) for k, v in ht.tree_adj.items()}
    for x in sorted(adj):
        if owner_at.get(x) is None:
            continue
        stack = [y for y in adj[x] if owner_at[y] is None]
        while stack:
            y = stack.pop()
            adj[x].discard(y)
            for z in adj.pop(y) - {x}:
                adj[z].discard(y)
                adj[z].add(x)
                adj[x].add(z)
                if owner_at[z] is None:
                    stack.append(z)
            del owner_at[y]
    if any(owner is None for owner in owner_at.values()):
        raise ValidationError("empty nodes remain after contraction")
    return TreeMapping(tree_adj={k: sorted(v) for k, v in adj.items()},
                       part_at=owner_at)


def project_mapping_to_G(gs: PartitionedGraph, mapping: TreeMapping) -> TreeMapping:
    """Rename each part V(G(u)) of a (G*, S*) mapping to S(u) over (G, S).

    The tree is unchanged; part keys are already the owners, so this is a
    re-validation against the base partition."""
    if sorted(mapping.part_at.values()) != gs.parts():
        raise ValidationError("mapping parts do not cover the base partition")
    return TreeMapping(tree_adj={k: list(v) for k, v in mapping.tree_adj.items()},
                       part_at=dict(mapping.part_at), is_path=mapping.is_path)
