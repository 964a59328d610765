"""Shared test fixtures: independent brute-force oracles and instance builders.

The oracles here deliberately avoid the library's search kernels: NAE
formulas are solved by a scan of assignment tuples, matchings are maximized by plain backtracking over edge subsets, orders by permutation
scans and balancing trees by Prüfer enumeration, so they stay valid
cross-checks for the branch-and-bound paths.  The step documents are built
here as record dicts, whose canonical_json the library's text writers must
write byte for byte.
"""

import bisect
import functools
import heapq
import itertools
import json
import random

import pytest

from naewidth import serialize
from naewidth.errors import CapExceededError, ValidationError
from naewidth.formula import eval_nae
from naewidth.matchings import DEFAULT_BUDGET, AdjacencyCache, _kernel_calls, _rows, max_clique
from naewidth.red1 import SMALL, build_bottleneck_sequence, validate_constants
from naewidth.red3 import LAYOUT_CAP, DefaultEdgeNotFound
from naewidth.tree import Tree
from naewidth.wgraph import (_PROPAGATION_DEGREE_CAP, DEFAULT_ORDER_BUDGET, WeightedGraph,
                             check_balancing_order, check_balancing_tree, prefix_orders)
from naewidth.widths import TreeLayout, enumerate_leaf_trees


def adjacency_sets(n, edges):
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def adj_fn(adj):
    return lambda u, v: v in adj[u]


def brute_nae(f):
    """Reference for formula.brute_force_nae: the first NAE-satisfying
    assignment in lexicographic order (False < True, variable 1 most
    significant), one tuple at a time, or None."""
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if eval_nae(f, bits):
            return bits
    return None


def brute_max_matching(adjacent, side_a, side_b, conflict_in_a, conflict_in_b):
    """Exhaustive backtracking over cut-edge subsets; no bounding tricks."""
    cands = [(a, b) for a in side_a for b in side_b if adjacent(a, b)]

    def compatible(edge, chosen):
        a1, b1 = edge
        for a2, b2 in chosen:
            if a1 == a2 or b1 == b2:
                return False
            if adjacent(a1, b2) or adjacent(a2, b1):
                return False
            if conflict_in_a and adjacent(a1, a2):
                return False
            if conflict_in_b and adjacent(b1, b2):
                return False
        return True

    best = 0

    def rec(start, chosen):
        nonlocal best
        best = max(best, len(chosen))
        for j in range(start, len(cands)):
            if compatible(cands[j], chosen):
                chosen.append(cands[j])
                rec(j + 1, chosen)
                chosen.pop()

    rec(0, [])
    return best


def reference_value(cache, rows, kind, threshold=None, budget=DEFAULT_BUDGET, stats=None):
    """Reference for AdjacencyCache.value as it was before forced answers:
    every kernel call builds its compatibility graph and runs max_clique,
    also on a cut with no candidate or with one shared endpoint."""
    calls = _kernel_calls(kind)
    if threshold is not None and threshold <= 0:
        return 0, not rows
    results = []
    for swap, in_x, in_y in calls:
        edges = _rows(sorted((j, i) for i, cols in rows for j in cols)) if swap else rows
        masks = cache.compatibility(edges, in_x, in_y)
        results.append(max_clique(masks, threshold=threshold, budget=budget, stats=stats))
    return min(results)


def brute_compatibility_masks(adjacent, candidates, conflict_in_a, conflict_in_b):
    """Reference for matchings.compatibility_masks: the pair-oracle build,
    up to four adjacency calls per pair of candidates."""
    m = len(candidates)
    masks = [0] * m
    for i in range(m):
        a1, b1 = candidates[i]
        for j in range(i + 1, m):
            a2, b2 = candidates[j]
            if a1 == a2 or b1 == b2:
                continue
            if adjacent(a1, b2) or adjacent(a2, b1):
                continue
            if conflict_in_a and adjacent(a1, a2):
                continue
            if conflict_in_b and adjacent(b1, b2):
                continue
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def reference_labels(build):
    """Reference for the labels of H: H′'s as built, then the padding labels
    as a list of one string per padding vertex."""
    p = len(build.x_ids)
    labels = [build.graph.labels[v] for v in range(build.hprime_n)]
    labels += [f"x{j}" for j in range(p)] + [f"y{j}" for j in range(p)]
    for name in ("BL", "BR"):
        labels += [f"{name}.{side}{i}" for i in range(1, p + 1) for side in "ab"]
    return labels


def brute_bottleneck(g: WeightedGraph, terminals, c, name="B", shared_root=None):
    """Reference for red1.build_bottleneck: the spine vertices, then one
    add_edge call per edge, which keeps every adjacency list ascending.
    Returns (spine_a, spine_b)."""
    k = len(terminals)
    spine_a, spine_b = [], []
    for i in range(1, k + 1):
        spine_a.append(g.add_vertex(f"{name}.a{i}", "spine_a"))
        if i == k and shared_root is not None:
            spine_b.append(shared_root)
        else:
            spine_b.append(g.add_vertex(f"{name}.b{i}", "spine_b" if i < k else "root"))
    for i in range(k):
        g.add_edge(spine_a[i], spine_b[i], c.tau)
        if i + 1 < k:
            g.add_edge(spine_b[i], spine_a[i + 1], c.gamma + 1)
    for i, (v, w) in enumerate(terminals):
        g.add_edge(v, spine_a[i], w)
    return spine_a, spine_b


def alpha_threshold(c) -> int:
    """Sim-value threshold under which gadget relocation is guaranteed:
    ceil((b-1) / (6*tau)) - 1.  Equals tau + gamma - 1 on the full-scale profile."""
    return -(-(c.b - 1) // (6 * c.tau)) - 1


def brute_dummy_edges(h):
    """Reference for PartitionedGraph.num_dummy_edges: the pairwise count,
    4·w1·w2 for each unordered pair of vertex-disjoint H-edges."""
    total = 0
    for (a, b, w1), (x, y, w2) in itertools.combinations(list(h.edges()), 2):
        if len({a, b, x, y}) == 4:
            total += 4 * w1 * w2  # both orientations of both edges
    return total


def edge_weight(g: WeightedGraph, u, v):
    """The weight of the edge uv of g, or None."""
    return dict(g.adj[u]).get(v)


def scale_weights(g: WeightedGraph, factor: int) -> WeightedGraph:
    """Reference for PartitionedGraph.scaled: a copy of g with every edge
    weight multiplied by factor, laid out again from its edges.

    Scaling is exact for balancing: an order or tree is t-balancing on g iff
    it is (t*factor)-balancing on the scaled copy.
    """
    return WeightedGraph.from_edges(g.labels, g.roles,
                                    ((u, v, w * factor) for u, v, w in g.edges()))


class ReferenceGraph:
    """Reference for WeightedGraph: the adjacency as one list of (neighbour,
    weight) pairs per vertex, each kept ascending by add_edge's insort."""

    def __init__(self):
        self.labels = []
        self.roles = []
        self.adj = []

    @property
    def n(self):
        return len(self.adj)

    def vertex_ids(self):
        return range(len(self.adj))

    def add_vertex(self, label="", role="plain"):
        self.labels.append(label)
        self.roles.append(role)
        self.adj.append([])
        return len(self.adj) - 1

    def add_edge(self, u, v, w):
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if w < 1:
            raise ValidationError(f"edge weight {w} < 1 on ({u}, {v})")
        bisect.insort(self.adj[u], (v, w))
        bisect.insort(self.adj[v], (u, w))

    def edges(self):
        for u, lst in enumerate(self.adj):
            for v, w in lst:
                if u < v:
                    yield u, v, w

    def num_edges(self):
        return sum(map(len, self.adj)) // 2

    def vertex_weight(self, v):
        if not 0 <= v < len(self.adj):
            raise ValidationError(f"unknown vertex id {v}")
        return sum(w for _, w in self.adj[v])

    def check_simple(self):
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


def reference_check_balancing_order(g, order, t):
    """Reference for wgraph.check_balancing_order: one vertex at a time, in
    the order, summing its (neighbour, weight) pairs to either side."""
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


def reference_of(g):
    """The ReferenceGraph of g's labels, roles and edges, added edge by edge."""
    ref = ReferenceGraph()
    for label, role in zip(g.labels, g.roles):
        ref.add_vertex(label, role)
    for u, v, w in g.edges():
        ref.add_edge(u, v, w)
    return ref


def simple_verdict(g):
    """None if g passes check_simple, else the message it is refused with."""
    try:
        g.check_simple()
    except ValidationError as exc:
        return str(exc)
    return None


def set_row(g, u, pairs):
    """Make u's (neighbour, weight) pairs exactly the given ones, in their
    order, on a WeightedGraph (its flat lists, later offsets shifted) or a
    ReferenceGraph: how the tests break a graph."""
    if isinstance(g, ReferenceGraph):
        g.adj[u] = list(pairs)
        return
    lo, hi = g.start[u], g.start[u + 1]
    g.nbr[lo:hi] = [v for v, _ in pairs]
    g.wt[lo:hi] = [w for _, w in pairs]
    shift = len(pairs) - (hi - lo)
    g.start[u + 1:] = [s + shift for s in g.start[u + 1:]]


def table_blocks(gs):
    """{(u, v): G-vertices of I(u, v)} read off the block table fields: block
    k runs from its start to the next block's start, the last one to |V(G)|."""
    starts = gs.block_start
    return dict(zip(gs.block_pairs, map(range, starts, starts[1:] + [gs.n])))


def part_owners(gs):
    """{G-vertex: owner} read off part_range."""
    return {p: u for u in gs.parts() for p in gs.part_vertices(u)}


def matching_partners(gs):
    """{p: q} of the matching edges: position i of I(u, v) with position i of
    its twin block I(v, u)."""
    blocks = table_blocks(gs)
    return {p: q for (u, v), vertices in blocks.items() for p, q in zip(vertices, blocks[v, u])}


def brute_validate(gs):
    """Reference for PartitionedGraph.validate: a walk over all 2·W(H)
    G-vertices, H's weights times gs.scale, with the blocks read off the table
    fields.  The blocks must come once each, in ascending (u, v), from
    G-vertex 0; each vertex must lie in its own part and be matched to the
    vertex at its offset in the twin block; and a lookup that fails on a
    broken layout counts as a failed audit."""
    scale = gs.scale
    if gs.n != 2 * scale * gs.H.total_weight():
        raise ValidationError("|V(G)| != 2 * scale * total weight of H")
    blocks = table_blocks(gs)
    if list(blocks) != sorted(gs.block_pairs) or gs.block_start[:1] not in ([], [0]):
        raise ValidationError("the blocks are not each once, ascending, from G-vertex 0")
    try:
        covered = 0
        for u in gs.parts():
            start, end = gs.part_range[u]
            covered += end - start
            edges = sorted(gs.H.adj[u])
            if sum(w * scale for _, w in edges) != end - start:
                raise ValidationError(f"S({u}) does not decompose into its blocks")
            for v, w in edges:
                if len(blocks[u, v]) != w * scale or len(blocks[v, u]) != w * scale:
                    raise ValidationError(f"|I({u},{v})| != w({u}{v}) or mismatched twin")
        if covered != gs.n:
            raise ValidationError("parts do not partition V(G)")
        owner = part_owners(gs)
        for (u, v), vertices in blocks.items():
            for p, q in zip(vertices, blocks[v, u]):
                if owner.get(p) != u or gs.adjacent(p, q) != "matching":
                    raise ValidationError(f"matching pairing broken at {p}")
    except (IndexError, KeyError) as exc:
        raise ValidationError(f"block lookup failed: {exc!r}") from None


def brute_edge_iter(gs):
    """Reference for the explicit edge rows of (G, S): (p, q, kind) of every
    edge, p < q, enumerated by structure, not asked of the oracle: position i
    of I(u, v) matched with position i of I(v, u) for each H-edge uv, then
    every block of each two vertex-disjoint H-edges joined to the other's."""
    edges, blocks = list(gs.H.edges()), table_blocks(gs)
    for a, b, _ in edges:
        for p, q in zip(blocks[a, b], blocks[b, a]):
            yield min(p, q), max(p, q), "matching"
    for (a, b, _), (x, y, _) in itertools.combinations(edges, 2):
        if len({a, b, x, y}) != 4:
            continue
        for bu, bv in ((a, b), (b, a)):
            for bx, by in ((x, y), (y, x)):
                for p in blocks[bu, bv]:
                    for q in blocks[bx, by]:
                        yield min(p, q), max(p, q), "dummy"


def oracle_check(gs, pairs) -> None:
    """Check the (G, S) adjacency oracle against first principles on every
    pair (p, q) of G-vertices given, each vertex's block and offset in it
    read off a walk over the table's blocks."""
    at = [(pair, i) for pair, vertices in table_blocks(gs).items() for i in range(len(vertices))]
    for p, q in pairs:
        if p == q:
            continue
        ((u, v), i), ((x, y), j) = at[p], at[q]
        kind = gs.adjacent(p, q)
        if u == x:
            if kind is not None:
                raise ValidationError(f"S({u}) not independent: edge ({p},{q})")
        elif (x, y) == (v, u):
            if kind != ("matching" if i == j else None):
                raise ValidationError(f"matching oracle wrong at ({p},{q})")
        elif {u, v} & {x, y}:
            if kind is not None:
                raise ValidationError(f"blocks of touching H-edges joined: ({p},{q})")
        elif kind != "dummy":
            raise ValidationError(f"missing dummy edge ({p},{q})")


def sample_oracle_check(gs, rng, samples: int = 2000) -> None:
    """Spot-check the (G, S) adjacency oracle on random pairs."""
    oracle_check(gs, ((rng.randrange(gs.n), rng.randrange(gs.n)) for _ in range(samples)))


def brute_Pu(gs, u, c):
    """Reference for gadget_entry: the path P_u of part u listed as
    [(tag, G-vertex or None)].  Blocks I(u, v) are split into a chunks; chunk
    i concatenates the i-th slice of every block in ascending neighbor order;
    the full original sequence is 1-subdivided and one vertex is appended."""
    validate_constants(c)
    if u not in gs.part_range:
        raise ValidationError(f"{u} is not an H-vertex of the partition")
    neighbors = sorted(v for v, _ in gs.H.adj[u])
    blocks = table_blocks(gs)
    for v in neighbors:
        if len(blocks[u, v]) % c.a != 0:
            raise ValidationError(
                f"|I({u},{v})| = {len(blocks[u, v])} not divisible by a = {c.a}")
    originals = []
    for i in range(c.a):
        for v in neighbors:
            block = blocks[u, v]
            chunk = len(block) // c.a
            originals.extend(block[i * chunk:(i + 1) * chunk])
    path = []
    for idx, gv in enumerate(originals):
        path.append(("original", gv))
        if idx < len(originals) - 1:
            path.append(("subdivision", None))
    path.append(("appended", None))
    return path


def gadget_entry(gs, a, gadget, pos):
    """(tag, original G-vertex or None) at position pos of P_u, as the
    gadget read it before the G* oracle took it inline.

    Even positions hold the originals: original pos/2 is offset r of one
    chunk.  A chunk holds a slice of each block of u, 1/a of its size, so
    offset r lies in the block that holds G-vertex start + r·a."""
    if pos == gadget.plen - 1:
        return "appended", None
    if pos % 2:
        return "subdivision", None
    chunk, r = divmod(pos // 2, gadget.plen // (2 * a))
    at = gadget.start + r * a
    starts = gs.block_start
    k = bisect.bisect_right(starts, at, gadget.first, gadget.last) - 1
    first = starts[k]
    width = ((starts[k + 1] if k + 1 < gadget.last else gadget.end) - first) // a
    return "original", first + chunk * width + (at - first) // a


def reference_gadget_adjacent(gadget, x, y):
    """Reference for Gadget.adjacent: ids in [base, base + size), x checked
    first, then copy and position through locate."""
    for vid in (x, y):
        if not gadget.base <= vid < gadget.base + gadget.size:
            raise ValidationError(f"G*-vertex {vid} out of the gadget's range")
    ci, p = gadget.locate(x)
    cj, q = gadget.locate(y)
    if ci == cj:
        return "path" if abs(p - q) == 1 else None
    if ci > cj:
        ci, cj = cj, ci
        p, q = q, p
    last = gadget.plen - 1
    if p == last and q == 0:
        return "path" if ci + 1 == cj else None
    if abs(p - q) <= 1 or (p == 0 and q == last and not (ci == 0 and cj == gadget.copies - 1)):
        return None
    return "cross"


def reference_gstar_adjacent(star, x, y):
    """Reference for Gstar.adjacent: owners through owner_of (which checks
    the range, x first), positions through locate, originals through
    gadget_entry, and the (G, S) oracle between originals."""
    ux, uy = star.owner_of(x), star.owner_of(y)
    if x == y:
        return None
    gadget_x, gadget_y = star.gadget(ux), star.gadget(uy)
    if ux == uy:
        return reference_gadget_adjacent(gadget_x, x, y)
    a = star.constants.a
    _, gx = gadget_entry(star.GS, a, gadget_x, gadget_x.locate(x)[1])
    _, gy = gadget_entry(star.GS, a, gadget_y, gadget_y.locate(y)[1])
    if gx is None or gy is None:
        return None
    return star.GS.adjacent(gx, gy)


def brute_gstar_ids(star):
    """Reference for the arithmetic G*-ids: ({owner: base}, |V(G*)|) found by
    summing gadget sizes, b·2|S(u)| with |S(u)| the weighted degree of u in
    H times the scale of (G, S), over the owners in ascending order."""
    bases, n = {}, 0
    for u in star.GS.H.vertex_ids():
        bases[u] = n
        n += star.constants.b * 2 * star.GS.scale * star.GS.H.vertex_weight(u)
    return bases, n


def brute_validate_gstar(star):
    """Audit of the gadget paths G* reads off the block layout: materialize
    every P_u through gadget_entry and check its length, that its originals
    cover S(u), and that the tags alternate original/subdivision before the
    appended vertex."""
    for u in star.parts():
        gadget = star.gadget(u)
        if gadget.plen != 2 * len(star.GS.part_vertices(u)):
            raise ValidationError(f"|V(P_{u})| != 2|S({u})|")
        path = [gadget_entry(star.GS, star.constants.a, gadget, pos)
                for pos in range(gadget.plen)]
        originals = [gv for tag, gv in path if tag == "original"]
        if sorted(originals) != list(star.GS.part_vertices(u)):
            raise ValidationError(f"P_{u} originals do not cover S({u})")
        tags = [tag for tag, _ in path]
        if tags[-1:] != ["appended"] or any(
                t != ("original" if i % 2 == 0 else "subdivision")
                for i, t in enumerate(tags[:-1])):
            raise ValidationError(f"P_{u} does not alternate original/subdivision")


def _vertex_records(g: WeightedGraph):
    return ({"id": v, "label": g.labels[v], "role": g.roles[v]} for v in g.vertex_ids())


def _edge_records(g: WeightedGraph, scale=1):
    return ({"u": u, "v": v, "weight": w * scale} for u, v, w in sorted(g.edges()))


def weighted_graph_doc(g: WeightedGraph, meta=None, scale=1):
    """The document serialize.weighted_graph_text writes for g, parsed."""
    return json.loads(serialize.weighted_graph_text(g, meta, scale))


def graph_doc(adj_sets, labels=None):
    """Unweighted graph document from {vertex: set(neighbors)} adjacency."""
    n = len(adj_sets)
    return {
        "format_version": serialize.FORMAT_VERSION,
        "kind": "graph",
        "vertices": [{"id": v, "label": labels[v] if labels else "", "role": "plain"}
                     for v in range(n)],
        "edges": [{"u": u, "v": v} for u in range(n) for v in sorted(adj_sets[u])
                  if u < v],
    }


def reference_graph_doc(g: WeightedGraph, meta=None, scale=1):
    """Reference for serialize.weighted_graph_text: the document as record
    dicts, whose canonical_json the writer's text must equal."""
    doc = {
        "format_version": serialize.FORMAT_VERSION,
        "kind": "weighted_graph",
        "vertices": list(_vertex_records(g)),
        "edges": list(_edge_records(g, scale)),
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def reference_hbuild_doc(build):
    """Reference for serialize.hbuild_text."""
    return reference_graph_doc(build.graph, meta=serialize._hbuild_meta(build))


def reference_partitioned_doc(gs, base_meta=None):
    """Reference for serialize.partitioned_text: the step-2 document of gs as
    record dicts around the reference document of H, weights times gs.scale."""
    doc = {
        "format_version": serialize.FORMAT_VERSION,
        "kind": "partitioned_graph",
        "base": reference_graph_doc(gs.H, meta=base_meta, scale=gs.scale),
        "num_vertices": gs.n,
        "parts": [{"owner": u, "start": gs.part_range[u][0],
                   "size": gs.part_range[u][1] - gs.part_range[u][0]}
                  for u in gs.parts()],
        "blocks": [{"u": u, "v": v, "start": vertices.start, "size": len(vertices)}
                   for (u, v), vertices in table_blocks(gs).items()],
        "edge_rule": "blocks-v1",
    }
    if gs.n <= serialize.EXPLICIT_EDGE_VERTEX_LIMIT:
        edges = [{"u": p, "v": q, "kind": kind} for p, q, kind in sorted(brute_edge_iter(gs))]
        if len(edges) <= serialize.EXPLICIT_EDGE_LIMIT:
            doc["edges"] = edges
    return doc


def reference_gstar_doc(star, base_meta=None, weight_scale=1):
    """Reference for serialize.gstar_text: the step-3 document of star as
    record dicts around the reference step-2 document of its (G, S)."""
    doc = {
        "format_version": serialize.GADGET_FORMAT_VERSION,
        "kind": "gadget_graph",
        "base": reference_partitioned_doc(star.GS, base_meta),
        "constants": serialize._constants_doc(star.constants),
        "weight_scale": weight_scale,
        "num_vertices": star.n,
        "gadgets": [{"owner": u, "base": star.gadget(u).base, "copies": star.gadget(u).copies}
                    for u in star.parts()],
    }
    if star.n <= serialize.EXPLICIT_EDGE_VERTEX_LIMIT:
        edges = [{"u": x, "v": y, "kind": star.adjacent(x, y)}
                 for x in range(star.n) for y in range(x + 1, star.n)
                 if star.adjacent(x, y)]
        if len(edges) <= serialize.EXPLICIT_EDGE_LIMIT:
            doc["edges"] = edges
    return doc


def balancing_tree_doc(bt: Tree):
    """The document of a balancing tree: a tree whose placement maps V(H)
    onto the nodes, written as serialize writes the other tree documents."""
    return serialize._tree_doc("balancing_tree", bt, "placement", bt.placement)


def balancing_tree_from_doc(doc) -> Tree:
    """The balancing tree of a balancing_tree_doc document; refuses a
    placement that is no bijection onto the nodes."""
    adj, placement = serialize._tree_from_doc(doc, "balancing_tree", "placement", 1)
    if sorted(placement.values()) != sorted(adj):
        raise ValidationError("placement is not a bijection onto the tree nodes")
    return Tree(adj, placement)


def naive_balancing_orders(g, t):
    """Reference for enumerate_balancing_orders: all t-balancing orders by
    plain permutation enumeration."""
    out = []
    for perm in itertools.permutations(g.vertex_ids()):
        ok, _ = check_balancing_order(g, list(perm), t)
        if ok:
            out.append(list(perm))
    return out


def reference_alive(adj, committed, t, placed_mask):
    """Reference for wgraph._alive, as it was before it summed the subsets by
    doubling: each before/after split of a vertex's free neighbours is summed
    afresh, and Kahn's pass always runs."""
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


def reference_balancing_orders(g, t, stats, budget=DEFAULT_ORDER_BUDGET):
    """Reference for wgraph._extensions, as it was before it remembered the
    sets found alive: every set placed is propagated by reference_alive
    again, however many orders reach it.  stats["place"] counts the
    placements tried."""
    adj = list(g.adj)
    total = [sum(w for _, w in lst) for lst in adj]
    if any(tw > 2 * t for tw in total):
        return
    committed = [0] * len(adj)

    def place(v, mask):
        stats["place"] += 1
        if total[v] - committed[v] > t:
            return None
        for u, w in adj[v]:
            if not mask >> u & 1:
                committed[u] += w
        return (all(committed[u] <= t for u, _ in adj[v] if not mask >> u & 1)
                and reference_alive(adj, committed, t, mask | 1 << v))

    def take_back(v, mask):
        for u, w in adj[v]:
            if not mask >> u & 1:
                committed[u] -= w

    yield from prefix_orders(len(adj), place, take_back, budget)


def sequence_fixture(c=SMALL):
    """The bottleneck sequence on three fresh terminals S1, S2, S3 (vertices
    0, 1, 2) and its handles."""
    g = WeightedGraph()
    s1 = [(g.add_vertex("S1"), c.tau - c.lam)]
    s2 = [(g.add_vertex("S2"), c.tau - 2 * c.lam)]
    s3 = [(g.add_vertex("S3"), c.tau - c.lam)]
    handles = build_bottleneck_sequence(g, s1, s2, s3, c)
    return g, handles


DEFAULT_TREE_CAP = 8


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
        bt = Tree(adj, {v: v for v in verts})
        ok, _ = check_balancing_tree(g, bt, t)
        if ok:
            return bt
    return None


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@functools.lru_cache(maxsize=None)
def _leaf_tree_sides(n):
    """Per tree of enumerate_leaf_trees(n), in its order: the bitmask of the
    leaves on the far side of every tree edge."""
    out = []
    for adj, leaves in enumerate_leaf_trees(n):
        sides = Tree(adj, {i: i for i in leaves}).sides()
        out.append(tuple(sum(1 << i for i in side) for _, side in sides))
    return tuple(out)


def raw_cut_table(adjacent, verts, kind, stats=None):
    """Reference for the cut values widths.exact_width reads: one cut value
    per cut of the vertex-index bitmasks, each on a fresh AdjacencyCache of
    the raw oracle, a cut's complement taking its value."""
    n = len(verts)
    full = (1 << n) - 1
    table = [0] * (full + 1)
    for mask in range(full + 1):
        comp = full ^ mask
        if comp < mask:
            table[mask] = table[comp]
        else:
            table[mask], _ = AdjacencyCache(adjacent, verts).cut_value(mask, comp, kind,
                                                                      stats=stats)
    return table


def suffix_dp_linear_exact(table, n):
    """Reference for widths._linear_exact: min over vertex orders of the max
    cut value, plus the lexicographically least optimal order, via a subset
    DP over suffix completions."""
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


def brute_exact_width(adjacent, vertices, kind):
    """Reference for exact_width on general layouts: scan all (2L-5)!!
    ternary trees of enumerate_leaf_trees and keep the first optimal one
    whose sorted split tuple is least (each split as the smaller of its two
    vertex-index bitmasks)."""
    verts = sorted(set(vertices))
    n = len(verts)
    table = raw_cut_table(adjacent, verts, kind)
    full = (1 << n) - 1
    best = None
    for idx, masks in enumerate(_leaf_tree_sides(n)):
        key = (max((table[m] for m in masks), default=0),
               tuple(sorted(min(m, full ^ m) for m in masks)))
        if best is None or key < best[0]:
            best = key, idx
    adj, leaves = next(itertools.islice(enumerate_leaf_trees(n), best[1], None))
    return best[0][0], TreeLayout(tree_adj=adj, leaf_vertex={i: verts[i] for i in leaves})


def brute_mim(adjacent, side_a, side_b):
    return brute_max_matching(adjacent, side_a, side_b, False, False)


def brute_sim(adjacent, side_a, side_b):
    return brute_max_matching(adjacent, side_a, side_b, True, True)


def brute_uim(adjacent, vertices, x_side):
    x_set = set(x_side)
    rest = [v for v in vertices if v not in x_set]
    return brute_max_matching(adjacent, sorted(x_set), rest, True, False)


def brute_sides(tree_adj, placement):
    """Reference for Tree.sides(): every edge (x, y) with x < y in adjacency
    order, and the items placed on y's side, found by one DFS per edge."""
    out = []
    for x, nbrs in tree_adj.items():
        for y in nbrs:
            if x < y:
                seen = {y}
                stack = [y]
                while stack:
                    a = stack.pop()
                    for b in tree_adj[a]:
                        if b != x and b not in seen:
                            seen.add(b)
                            stack.append(b)
                out.append(((x, y), {item for item, node in placement.items() if node in seen}))
    return out


def copy_vertices(gadget, copy):
    """The G*-vertices of one copy of P_u in the gadget."""
    start = gadget.base + copy * gadget.plen
    return range(start, start + gadget.plen)


def reference_gadget_nodes(ht, star):
    """Reference for red3.gadget_nodes: the G*-vertices of every node
    collected as a set and compared with the set of one whole gadget."""
    if star.n > LAYOUT_CAP:
        raise CapExceededError(f"|V(G*)| = {star.n} exceeds the layout cap {LAYOUT_CAP}")
    if ht.placement.keys() != set(range(star.n)):
        raise ValidationError("hybrid tree placement does not cover the G*-vertices")
    for x, nbrs in ht.tree_adj.items():
        if len(nbrs) > 3:
            raise ValidationError(f"node {x} has degree {len(nbrs)} > 3")
    held = {node: set() for node in ht.tree_adj}
    for v, node in ht.placement.items():
        held[node].add(v)
    owners = {}
    for node, vertices in held.items():
        if len(vertices) <= 1:
            continue
        u = star.owner_of(next(iter(vertices)))
        if vertices != set(star.part_vertices(u)):
            raise ValidationError(f"node {node} holds a strict partial gadget")
        owners[node] = u
    return owners


def reference_find_default_edge(star, ht, u):
    """Reference for red3.find_default_edge: the least node whose vertex set
    is the gadget of u, else the first edge (x, y) of a BFS from the least
    node, neighbours in ascending order, whose far side (Tree.sides() of every
    edge, held at once) holds a whole copy of P_u and misses another."""
    gadget = star.gadget(u)
    whole = set(star.part_vertices(u))
    held = {node: set() for node in ht.tree_adj}
    for v, node in ht.placement.items():
        held[node].add(v)
    for node in sorted(ht.tree_adj):
        if held[node] == whole:
            return "node", node
    copies = [set(copy_vertices(gadget, i)) for i in range(gadget.copies)]
    far = dict(ht.sides())
    placed = frozenset(ht.placement)
    queue = [min(ht.tree_adj)]
    seen = set(queue)
    for x in queue:
        for y in sorted(ht.tree_adj[x]):
            if y in seen:
                continue
            seen.add(y)
            queue.append(y)
            side_b = far[(x, y)] if x < y else placed - far[(y, x)]
            if any(cp <= side_b for cp in copies) and any(not (cp & side_b) for cp in copies):
                return "edge", (x, y)
    raise DefaultEdgeNotFound(f"no default node or edge for gadget of {u}")


def random_ternary_hybrid(rng: random.Random, vertices):
    """A hybrid tree whose leaves hold the given vertices one each in a random
    order and whose inner nodes have degree 3: each further leaf hangs off a
    new node on a uniformly drawn edge."""
    vertices = list(vertices)
    rng.shuffle(vertices)
    n = len(vertices)
    adj = {i: [] for i in range(n)}
    edges = []
    if n > 1:
        adj[0], adj[1], edges = [1], [0], [(0, 1)]
    for leaf in range(2, n):
        x, y = edges.pop(rng.randrange(len(edges)))
        mid = len(adj)
        adj[x][adj[x].index(y)] = mid
        adj[y][adj[y].index(x)] = mid
        adj[mid] = [x, y, leaf]
        adj[leaf] = [mid]
        edges += [(x, mid), (mid, y), (mid, leaf)]
    return TreeLayout(tree_adj=adj, leaf_vertex=dict(enumerate(vertices)))


def random_weighted_graph(rng: random.Random, n, p=0.5, max_w=5) -> WeightedGraph:
    g = WeightedGraph()
    for i in range(n):
        g.add_vertex(f"v{i}")
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, rng.randint(1, max_w))
    return g


def random_graph_adj(rng: random.Random, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return adjacency_sets(n, edges)


# (tree_adj, placement) pairs over vertices 0..2 that are no bijection onto the nodes
NON_BIJECTIVE_PLACEMENTS = {
    "two-on-one-node": ({0: [1], 1: [0]}, {0: 0, 1: 0, 2: 1}),
    "empty-node": ({0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}, {0: 0, 1: 1, 2: 2}),
    "missing-vertex": ({0: [1], 1: [0, 2], 2: [1]}, {0: 0, 2: 2}),
}


# faults of H, each made in the rows of path_graph([2, 3]) by set_row, and
# the message WeightedGraph.check_simple refuses it with
SIMPLE_FAULTS = [
    (lambda g: set_row(g, 1, [*g.adj[1], (1, 2)]), "self-loop"),
    (lambda g: (set_row(g, 0, [*g.adj[0], (1, 2)]), set_row(g, 1, [*g.adj[1], (0, 2)])),
     "duplicate edge"),
    (lambda g: (set_row(g, 0, [*g.adj[0], (2, 0)]), set_row(g, 2, [*g.adj[2], (0, 0)])),
     "non-positive weight"),
    (lambda g: set_row(g, 2, [*g.adj[2], (0, 4)]), "asymmetric edge"),
    (lambda g: set_row(g, 2, [(1, 4)]), "asymmetric edge"),
    (lambda g: set_row(g, 2, [*g.adj[2], (5, 3)]), "asymmetric edge"),
    (lambda g: set_row(g, 1, g.adj[1][::-1]), "not ascending"),
]


def path_graph(weights) -> WeightedGraph:
    g = WeightedGraph()
    for i in range(len(weights) + 1):
        g.add_vertex(f"p{i}")
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, w)
    return g


def star_graph(leaf_weights) -> WeightedGraph:
    g = WeightedGraph()
    g.add_vertex("center")
    for i, w in enumerate(leaf_weights):
        leaf = g.add_vertex(f"leaf{i}")
        g.add_edge(0, leaf, w)
    return g


@pytest.fixture
def rng():
    return random.Random(20240831)
