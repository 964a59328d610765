import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth import serialize
from naewidth.errors import ValidationError
from naewidth.red1 import SMALL, Constants, validate_constants
from naewidth.red2 import TreeMapping, build_partitioned, cut_value, mapping_value
from naewidth.red3 import (
    DefaultEdgeNotFound,
    build_Gstar,
    build_gadget,
    caterpillar_layout,
    ensure_divisible,
    find_default_edge,
    gadget_nodes,
    group_all,
    group_gadget,
    hybrid_from_layout,
    hybrid_sim_values,
    hybrid_to_tree_mapping,
    project_mapping_to_G,
)
from naewidth.tree import Tree
from naewidth.wgraph import WeightedGraph
from naewidth.widths import linear_layout_from_order

from conftest import (brute_gstar_ids, brute_Pu, brute_validate_gstar, copy_vertices,
                      gadget_entry, path_graph, random_ternary_hybrid, random_weighted_graph,
                      reference_find_default_edge, reference_gadget_adjacent,
                      reference_gadget_nodes, reference_gstar_adjacent, scale_weights,
                      star_graph, table_blocks)

A1 = Constants(36, 3, 6, 1, 3)  # a=1 keeps tiny blocks legal
validate_constants(A1)


def star9():
    """Center with |S(center)| = 9 split into three weight-3 blocks."""
    return star_graph([3, 3, 3])


def single_edge_h(w=3):
    g = WeightedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    g.add_edge(0, 1, w)
    return g


def literal_gadget_edges(gadget):
    """Oracle: build Q_u explicitly and apply the copy-exclusion rule by
    materializing Copies(x) and its closed neighborhood as plain sets.
    Returns {(x, y): kind} over local ids x < y: "path" for an edge of Q_u,
    "cross" for an edge between distinct copies."""
    b, plen = gadget.copies, gadget.plen
    total = b * plen

    def node(copy, pos):
        return copy * plen + pos

    qadj = {i: set() for i in range(total)}
    for copy in range(b):
        for pos in range(plen - 1):
            qadj[node(copy, pos)].add(node(copy, pos + 1))
            qadj[node(copy, pos + 1)].add(node(copy, pos))
        if copy + 1 < b:
            qadj[node(copy, plen - 1)].add(node(copy + 1, 0))
            qadj[node(copy + 1, 0)].add(node(copy, plen - 1))

    def closed_copy_neighborhood(x):
        pos = x % plen
        copies = {node(c, pos) for c in range(b)}
        out = set(copies)
        for y in copies:
            out |= qadj[y]
        return out

    # the edges of Q_u, concatenation edges between copies among them, always
    # remain, although the copy-exclusion rule would drop the latter
    edges = {}
    for x in range(total):
        for y in range(x + 1, total):
            if y in qadj[x]:
                edges[(x, y)] = "path"
            elif x // plen != y // plen and not (
                    y in closed_copy_neighborhood(x) or x in closed_copy_neighborhood(y)):
                edges[(x, y)] = "cross"
    return edges


def gadget_path(gs, u, c):
    gadget = build_gadget(gs, u, c)
    return [gadget_entry(gs, c.a, gadget, pos) for pos in range(gadget.plen)]


def test_build_Pu_star9_layout():
    gs = build_partitioned(star9())
    path = gadget_path(gs, 0, SMALL)
    assert len(path) == 18
    tags = [tag for tag, _ in path]
    assert tags[-1] == "appended"
    assert all(tags[i] == ("original" if i % 2 == 0 else "subdivision")
               for i in range(17))
    # chunk i holds the i-th slice of every block in neighbor order
    originals = [gv for tag, gv in path if tag == "original"]
    blocks = [list(table_blocks(gs)[0, v]) for v in (1, 2, 3)]
    expected = [blocks[j][i] for i in range(3) for j in range(3)]
    assert originals == expected


def test_build_Pu_a1_degenerate():
    gs = build_partitioned(single_edge_h(2))
    path = gadget_path(gs, 0, A1)
    assert len(path) == 4
    assert [gv for tag, gv in path if tag == "original"] == list(table_blocks(gs)[0, 1])


def test_build_Pu_divisibility_error():
    gs = build_partitioned(single_edge_h(4))
    with pytest.raises(ValidationError, match="divisible"):
        build_gadget(gs, 0, SMALL)


def random_h_for(rng, c):
    """Random H without isolated vertices whose weights are multiples of a."""
    while True:
        h = random_weighted_graph(rng, rng.randint(2, 7), p=0.5, max_w=4)
        if all(h.adj[v] for v in h.vertex_ids()):
            return scale_weights(h, c.a)


def test_entry_matches_listed_path(rng):
    cases = [(build_partitioned(star9()), SMALL), (build_partitioned(single_edge_h(1)), A1)]
    cases += [(build_partitioned(random_h_for(rng, c)), c) for c in (A1, SMALL) * 50]
    for gs, c in cases:
        for u in gs.parts():
            assert gadget_path(gs, u, c) == brute_Pu(gs, u, c)


def test_arithmetic_ids_match_the_accumulated_layout(rng):
    """Every gadget base, |V(G*)| and the owner, copy, position and entry of
    every G*-vertex, as the reference oracle reads them, agree with ids accumulated
    gadget by gadget and with the listed paths."""
    for c in (A1, SMALL) * 10:
        gs = build_partitioned(random_h_for(rng, c))
        star = build_Gstar(gs, c)
        bases, n = brute_gstar_ids(star)
        assert star.n == n
        assert {u: star.gadget(u).base for u in star.parts()} == bases
        paths = {u: brute_Pu(gs, u, c) for u in bases}
        located = [(u, copy, pos) + paths[u][pos] for u in sorted(bases)
                   for copy in range(c.b) for pos in range(len(paths[u]))]
        for x in range(star.n):
            u = star.owner_of(x)
            copy, pos = star.gadget(u).locate(x)
            assert (u, copy, pos) + gadget_entry(gs, c.a, star.gadget(u), pos) == located[x]


def test_isolated_vertex_has_no_gadget():
    h = single_edge_h(3)
    h.add_vertex("w")
    with pytest.raises(ValidationError, match=r"2\|S"):
        build_Gstar(build_partitioned(h), SMALL)


def test_build_Gstar_refuses_a_block_a_does_not_divide():
    with pytest.raises(ValidationError, match="divisible"):
        build_Gstar(build_partitioned(single_edge_h(4)), SMALL)


def eager_refusal(gs, c):
    """The message build_gadget refuses the least owner with, or None."""
    for u in gs.parts():
        try:
            build_gadget(gs, u, c)
        except ValidationError as exc:
            return str(exc)
    return None


@given(st.randoms(use_true_random=False), st.sampled_from([A1, SMALL]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_gadgets_made_on_demand_are_the_eager_ones(hyp_rng, c, divisible):
    """build_Gstar refuses a table iff build_gadget refuses an owner, with the
    least such owner's message, and ensure_divisible scales iff a block is
    indivisible.  Otherwise every gadget G* makes on demand equals
    build_gadget's field by field, is made once, and the gadget rows of the
    document are the eager gadgets' (base, copies, owner)."""
    h = random_weighted_graph(hyp_rng, hyp_rng.randint(1, 7), p=0.5, max_w=4)
    gs = build_partitioned(scale_weights(h, c.a) if divisible else h)
    refusal = eager_refusal(gs, c)
    assert (ensure_divisible(gs, c)[1] == 1) == all(w % c.a == 0 for _, _, w in gs.H.edges())
    if refusal is not None:
        with pytest.raises(ValidationError) as exc:
            build_Gstar(gs, c)
        assert str(exc.value) == refusal
        return
    star = build_Gstar(gs, c)
    for u in reversed(star.parts()):
        assert vars(star.gadget(u)) == vars(build_gadget(gs, u, c))
        assert star.gadget(u) is star.gadget(u)
    eager = [build_gadget(gs, u, c) for u in gs.parts()]
    assert list(serialize._gadget_rows(star)) == [(g.base, g.copies, u)
                                                  for u, g in zip(gs.parts(), eager)]


def test_gadget_b1_is_plain_path():
    gs = build_partitioned(single_edge_h(3))
    gadget = build_gadget(gs, 0, Constants(36, 3, 6, 3, 1))
    assert gadget.size == gadget.plen == 6
    for p, q in itertools.combinations(range(6), 2):
        assert gadget.adjacent(p, q) == ("path" if q - p == 1 else None)


def test_gadget_adjacency_matches_literal_rule():
    # every ordered pair of each gadget, through the gadget and the G* oracle
    for h in (star9(), single_edge_h(3)):
        for b in range(1, 5):
            star = build_Gstar(build_partitioned(h), Constants(36, 3, 6, 3, b))
            for gadget in map(star.gadget, star.parts()):
                expected = literal_gadget_edges(gadget)
                for x, y in itertools.permutations(range(gadget.size), 2):
                    kind = expected.get((min(x, y), max(x, y)))
                    vx, vy = gadget.base + x, gadget.base + y
                    assert gadget.adjacent(vx, vy) == star.adjacent(vx, vy) == kind


def test_gadget_copies_stay_induced_paths():
    gs = build_partitioned(star9())
    gadget = build_gadget(gs, 0, SMALL)
    for copy in range(gadget.copies):
        verts = list(copy_vertices(gadget, copy))
        for i, x in enumerate(verts):
            for j in range(i + 1, len(verts)):
                assert gadget.adjacent(x, verts[j]) == ("path" if j == i + 1 else None)


def test_gadget_appended_vertex_exclusions():
    gs = build_partitioned(star9())
    gadget = build_gadget(gs, 0, SMALL)
    last = gadget.plen - 1
    first, second, third = (copy_vertices(gadget, i) for i in range(3))
    x = first[last]  # appended vertex of the first copy
    # its Q_u successor stays adjacent (a path edge of Q_u), while the
    # successor of the *next* copy's appended vertex is excluded, as are the
    # other appended vertices and their path predecessors
    assert gadget.adjacent(x, second[0])
    assert not gadget.adjacent(x, third[0])
    assert not gadget.adjacent(x, second[last])
    assert not gadget.adjacent(x, second[last - 1])
    assert gadget.adjacent(x, second[last - 2])


def test_gstar_single_edge_counts():
    h = single_edge_h(3)
    gs = build_partitioned(h)
    star = build_Gstar(gs, SMALL)
    assert star.n == 2 * SMALL.b * 3 * 2
    matching = [
        (x, y)
        for x in star.part_vertices(0) for y in star.part_vertices(1)
        if star.adjacent(x, y) == "matching"
    ]
    # one biclique of size (b, b) per matched original pair
    assert len(matching) == 3 * SMALL.b ** 2
    dummy = [
        (x, y)
        for x in star.part_vertices(0) for y in star.part_vertices(1)
        if star.adjacent(x, y) == "dummy"
    ]
    assert dummy == []


def test_gstar_oracle_checks_the_range_before_a_self_pair():
    star = build_Gstar(build_partitioned(path_graph([3, 3])), SMALL)
    assert star.n == 72
    for bad in (72, -1):
        with pytest.raises(ValidationError, match=f"G\\*-vertex {bad} out of range"):
            star.adjacent(bad, bad)
    assert star.adjacent(71, 71) is None


def test_one_frame_oracles_answer_as_their_helpers():
    """Gstar.adjacent and Gadget.adjacent, which read owners, copies,
    positions and originals inline, give the answer of the reference built on
    owner_of, locate and gadget_entry on every ordered pair, and G* refuses an
    out-of-range id on either side with the reference's message, x first.  A
    gadget does the same for an id outside its own range."""
    stars = [build_Gstar(build_partitioned(h), SMALL)
             for h in (path_graph([3]), path_graph([3, 3]), star9())]
    for star in stars:
        n = star.n
        for x, y in itertools.product(range(n), repeat=2):
            assert star.adjacent(x, y) == reference_gstar_adjacent(star, x, y), (x, y)
        for x, y in [(-1, 0), (0, -1), (n, 0), (0, n), (-1, n), (n, -1), (-1, -1), (n, n)]:
            with pytest.raises(ValidationError) as expected:
                reference_gstar_adjacent(star, x, y)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
                star.adjacent(x, y)
    gadgets = [build_gadget(build_partitioned(star9()), u, SMALL) for u in (0, 1)]
    assert gadgets[0].size == 54 and gadgets[1].base == 54
    for gadget in gadgets:
        lo, hi = gadget.base, gadget.base + gadget.size
        for x, y in itertools.product(range(lo, hi), repeat=2):
            assert gadget.adjacent(x, y) == reference_gadget_adjacent(gadget, x, y), (x, y)
        for x, y in [(lo - 1, lo), (lo, lo - 1), (hi, lo), (lo, hi), (lo - 1, hi), (hi, lo - 1),
                     (lo - 5, lo + 7), (hi, hi - 1), (-1, -1)]:
            with pytest.raises(ValidationError) as expected:
                reference_gadget_adjacent(gadget, x, y)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
                gadget.adjacent(x, y)


def test_gstar_intergadget_edges_original_only():
    gs = build_partitioned(star9())
    star = build_Gstar(gs, SMALL)

    def tag(x):  # read as the reference reads it
        gadget = star.gadget(star.owner_of(x))
        return gadget_entry(gs, SMALL.a, gadget, gadget.locate(x)[1])[0]

    for u, v in itertools.combinations(star.parts(), 2):
        for x in star.part_vertices(u):
            for y in star.part_vertices(v):
                if star.adjacent(x, y):
                    assert tag(x) == "original" and tag(y) == "original"


def test_caterpillar_layout_leaf_order():
    gs = build_partitioned(single_edge_h(3))
    star = build_Gstar(gs, SMALL)
    layout = caterpillar_layout(star, [0, 1])
    assert [layout.leaf_vertex[x] for x in sorted(layout.leaf_vertex)] == list(range(star.n))
    layout = caterpillar_layout(star, [1, 0])
    assert [layout.leaf_vertex[x] for x in sorted(layout.leaf_vertex)] == (
        list(star.part_vertices(1)) + list(star.part_vertices(0)))
    with pytest.raises(ValidationError):
        caterpillar_layout(star, [0])


def test_caterpillar_glue_cut_splits_whole_gadgets():
    gs = build_partitioned(single_edge_h(3))
    star = build_Gstar(gs, SMALL)
    layout = caterpillar_layout(star, [0, 1])
    first = set(star.part_vertices(0))
    rest = set(range(star.n)) - first
    boundary = [side for _, side in layout.sides() if set(side) in (first, rest)]
    assert boundary  # the gadget-boundary spine edge induces exactly this split


def test_single_gadget_caterpillar_cuts_mim_at_most_7():
    gs = build_partitioned(star9())
    gadget = build_gadget(gs, 0, SMALL)
    verts = list(range(gadget.size))
    for split in range(1, gadget.size):
        side_a, side_b = verts[:split], verts[split:]
        value, exact = cut_value(gadget.adjacent, side_a, side_b, "mim", threshold=8)
        assert exact and value <= 7


def test_split_every_copy_forces_large_sim():
    # cut that splits all b copies: the same-position cut edges form an
    # induced matching of size b, so sim >= t+1 whenever b > t * |V(P_u)|
    c5 = Constants(36, 3, 6, 1, 5)  # plen = 4, b = 5 > 1 * 4
    gs = build_partitioned(single_edge_h(2))
    star = build_Gstar(gs, c5)
    gadget = star.gadget(0)
    copies = [copy_vertices(gadget, i) for i in range(gadget.copies)]
    side_a = [copy[p] for copy in copies for p in (0, 1)]
    side_b = [copy[p] for copy in copies for p in (2, 3)]
    witness = [(copy[1], copy[2]) for copy in copies]
    for (a1, b1), (a2, b2) in itertools.combinations(witness, 2):
        assert not gadget.adjacent(a1, a2) and not gadget.adjacent(b1, b2)
        assert not gadget.adjacent(a1, b2) and not gadget.adjacent(a2, b1)
    value, _ = cut_value(gadget.adjacent, side_a, side_b, "sim")
    assert value >= 2


def test_tripartition_forces_large_sim():
    c9 = Constants(36, 3, 6, 1, 9)  # plen = 4, b = 9 > ceil(3/2) * 4 for t = 1
    gs = build_partitioned(single_edge_h(2))
    star = build_Gstar(gs, c9)
    gadget = star.gadget(0)
    # every copy meets all three classes
    copies = [copy_vertices(gadget, i) for i in range(gadget.copies)]
    part_a = [copy[p] for copy in copies for p in (0, 1)]
    part_b = [copy[2] for copy in copies]
    part_c = [copy[3] for copy in copies]
    rest = {0: part_b + part_c, 1: part_a + part_c, 2: part_a + part_b}
    sims = []
    for i, part in enumerate((part_a, part_b, part_c)):
        value, _ = cut_value(gadget.adjacent, part, rest[i], "sim")
        sims.append(value)
    assert max(sims) >= 2


def test_ensure_divisible():
    gs = build_partitioned(single_edge_h(3))
    same, factor = ensure_divisible(gs, SMALL)
    assert factor == 1 and same is gs
    gs4 = build_partitioned(single_edge_h(4))
    scaled, factor = ensure_divisible(gs4, SMALL)
    assert factor == SMALL.a
    assert len(table_blocks(scaled)[0, 1]) == 12
    star = build_Gstar(scaled, SMALL)
    brute_validate_gstar(star)
    assert brute_gstar_ids(star)[1] == star.n
    again, factor = ensure_divisible(scaled, SMALL)
    assert factor == 1 and again is scaled


def preimages(ht):
    """{node: set of the G*-vertices placed on it}, every node listed."""
    out = {node: set() for node in ht.tree_adj}
    for v, node in ht.placement.items():
        out[node].add(v)
    return out


def grouping_fixture(h):
    gs = build_partitioned(h)
    star = build_Gstar(gs, SMALL)
    layout = caterpillar_layout(star, sorted(star.parts()))
    return gs, star, hybrid_from_layout(layout)


def test_find_default_edge_prefers_whole_node():
    gs, star, ht = grouping_fixture(single_edge_h(3))
    grouped = group_all(star, ht)
    kind, where = find_default_edge(star, grouped, 0)
    assert kind == "node"
    assert preimages(grouped)[where] == set(star.part_vertices(0))


def test_find_default_edge_two_gadget_caterpillar():
    gs, star, ht = grouping_fixture(single_edge_h(3))
    kind, (x, y) = find_default_edge(star, ht, 0)
    assert kind == "edge"
    side_b = set(ht.side(x, y))
    gadget = star.gadget(0)
    copies = [set(copy_vertices(gadget, i)) for i in range(gadget.copies)]
    assert any(cp <= side_b for cp in copies)
    assert any(not (cp & side_b) for cp in copies)


def test_find_default_edge_fails_at_b1():
    c1 = Constants(36, 3, 6, 3, 1)
    gs = build_partitioned(single_edge_h(3))
    star = build_Gstar(gs, c1)
    ht = hybrid_from_layout(caterpillar_layout(star, [0, 1]))
    with pytest.raises(DefaultEdgeNotFound):
        find_default_edge(star, ht, 0)


def test_group_gadget_structure_and_identity():
    gs, star, ht = grouping_fixture(single_edge_h(3))
    ht1 = group_gadget(star, ht, 0)
    assert gadget_nodes(ht1, star) == {max(ht1.tree_adj): 0}
    whole = set(star.part_vertices(0))
    assert any(pre == whole for pre in preimages(ht1).values())
    assert all(len(pre) <= 1 for pre in preimages(ht1).values() if pre != whole)
    assert group_gadget(star, ht1, 0) is ht1  # already grouped: identity


def corresponding_edge(before, after, new_node):
    """Map each edge of the subdivided tree back onto the original tree."""
    x, y = [n for n in after.tree_adj[new_node]]

    def mapper(edge):
        if new_node in edge:
            return (min(x, y), max(x, y))
        return edge

    return mapper


def test_group_gadget_never_increases_sim_values():
    for h in (single_edge_h(3), path_graph([3, 3])):
        gs, star, ht = grouping_fixture(h)
        for u in star.parts():
            before_vals = hybrid_sim_values(ht, star)
            kind, where = find_default_edge(star, ht, u)
            ht_next = group_gadget(star, ht, u)
            if kind == "node":
                assert ht_next is ht
                continue
            after_vals = hybrid_sim_values(ht_next, star)
            new_node = max(ht_next.tree_adj)
            mapper = corresponding_edge(ht, ht_next, new_node)
            for edge, value in after_vals.items():
                orig = mapper(edge)
                assert value <= before_vals[orig]
            ht = ht_next


def _outcome(fn, *args):
    """fn's answer, or the type of the error it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return type(exc)


GROUPING_CASES = [
    (path_graph([3]), SMALL), (path_graph([3, 3]), SMALL), (star9(), SMALL),
    (path_graph([2, 3]), Constants(12, 1, 2, 1, 2)), (path_graph([2]), Constants(12, 1, 2, 1, 3)),
    (path_graph([3, 3]), Constants(36, 3, 6, 3, 1)),
]


def _start_trees(rng, star, draws):
    """Sorted, shuffled and nearly sorted caterpillars and random ternary
    layouts of G*, draws of each, their nodes renamed at random and their
    neighbour lists in random order."""
    for _ in range(draws):
        owners = star.parts()
        rng.shuffle(owners)
        layouts = [caterpillar_layout(star, owners)]
        order = list(range(star.n))
        rng.shuffle(order)
        layouts.append(linear_layout_from_order(order))
        order.sort()
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(star.n - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        layouts += [linear_layout_from_order(order), random_ternary_hybrid(rng, range(star.n))]
        for layout in layouts:
            name = dict(zip(layout.tree_adj, rng.sample(range(len(layout.tree_adj)),
                                                        len(layout.tree_adj))))
            adj = {name[x]: rng.sample([name[y] for y in nbrs], len(nbrs))
                   for x, nbrs in layout.tree_adj.items()}
            yield Tree(adj, {v: name[x] for v, x in layout.placement.items()})


def _moved_vertex(rng, ht, star):
    """ht with one vertex moved onto the node of another."""
    v, w = rng.sample(range(star.n), 2)
    return Tree(ht.tree_adj, {**ht.placement, v: ht.placement[w]})


def test_counting_grouping_matches_the_set_reference(rng):
    """gadget_nodes and find_default_edge give the answer, or the error type,
    of their set-based references for every owner on every tree of a chain
    that groups the gadgets one by one in ascending owner order; so does
    gadget_nodes with one vertex of the tree moved onto another's node."""
    trees, seen = 0, set()
    for h, c in GROUPING_CASES:
        star = build_Gstar(ensure_divisible(build_partitioned(h), c)[0], c)
        for ht in _start_trees(rng, star, 30):
            for u in star.parts() + [None]:
                trees += 1
                assert _outcome(gadget_nodes, ht, star) == reference_gadget_nodes(ht, star)
                moved = _moved_vertex(rng, ht, star)
                assert _outcome(gadget_nodes, moved, star) == _outcome(reference_gadget_nodes,
                                                                       moved, star)
                for owner in star.parts():
                    got = _outcome(find_default_edge, star, ht, owner)
                    assert got == _outcome(reference_find_default_edge, star, ht, owner)
                    seen.add(got if isinstance(got, type) else got[0])
                if u is None or isinstance(_outcome(find_default_edge, star, ht, u), type):
                    break
                ht = group_gadget(star, ht, u)
    assert trees >= 1500 and seen == {"node", "edge", DefaultEdgeNotFound}


def test_hybrid_to_tree_mapping_identity_case():
    gs = build_partitioned(single_edge_h(3))
    star = build_Gstar(gs, SMALL)
    ht = Tree({0: [1], 1: [0]}, {v: star.owner_of(v) for v in range(star.n)})
    mapping = hybrid_to_tree_mapping(star, ht)
    assert mapping.part_at == {0: 0, 1: 1}
    assert sorted(mapping.tree_adj) == [0, 1]


def test_hybrid_to_tree_mapping_two_gadgets():
    gs, star, ht = grouping_fixture(single_edge_h(3))
    grouped = group_all(star, ht)
    mapping = hybrid_to_tree_mapping(star, grouped)
    assert len(mapping.tree_adj) == 2
    assert sorted(mapping.part_at.values()) == [0, 1]
    with pytest.raises(ValidationError, match="partial"):
        hybrid_to_tree_mapping(star, ht)


def test_projection_values_two_and_three_gadgets():
    for h in (single_edge_h(3), path_graph([3, 3])):
        gs, star, ht = grouping_fixture(h)
        grouped = group_all(star, ht)
        hybrid_max = max(hybrid_sim_values(grouped, star).values())
        mapping = hybrid_to_tree_mapping(star, grouped)
        star_value, _ = mapping_value(star, mapping, "sim")
        assert star_value <= hybrid_max
        projected = project_mapping_to_G(gs, mapping)
        g_value, _ = mapping_value(gs, projected, "sim")
        assert g_value <= star_value


def test_projection_single_part_trivial():
    h = WeightedGraph()
    h.add_vertex("only")
    gs = build_partitioned(h)
    mapping = TreeMapping(tree_adj={0: []}, part_at={0: 0})
    projected = project_mapping_to_G(gs, mapping)
    assert mapping_value(gs, projected, "sim") == (0, True)


def test_projection_composition_is_valid_mapping():
    gs, star, ht = grouping_fixture(path_graph([3, 3]))
    mapping = hybrid_to_tree_mapping(star, group_all(star, ht))
    projected = project_mapping_to_G(gs, mapping)
    assert sorted(projected.part_at.values()) == gs.parts()
    edge_count = sum(1 for _ in projected.edges())
    assert edge_count == len(projected.tree_adj) - 1
