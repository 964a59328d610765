import collections
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth import serialize
from naewidth.errors import BudgetExceededError, ValidationError
from naewidth.formula import parse_nae_dimacs
from naewidth.red1 import PAPER, SMALL, Constants, build_H
from naewidth.red2 import (
    PartitionedGraph,
    TreeMapping,
    build_partitioned,
    cut_value,
    mapping_cut,
    mapping_value,
    path_mapping_from_order,
)
from naewidth.red3 import build_Gstar
from naewidth.wgraph import WeightedGraph, check_balancing_tree, solve_balancing_order

from conftest import SIMPLE_FAULTS, adj_fn, adjacency_sets, brute_dummy_edges, brute_edge_iter, brute_mim, brute_sim, brute_validate, edge_weight, matching_partners, oracle_check, part_owners, path_graph, random_weighted_graph, sample_oracle_check, scale_weights, set_row, star_graph, table_blocks

FOUR_COPIES = "p cnf 3 4\n" + "1 2 3 0\n" * 4


def single_edge(w=3):
    g = WeightedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    g.add_edge(0, 1, w)
    return g


def two_disjoint_edges(w=2):
    g = WeightedGraph()
    for i in range(4):
        g.add_vertex(str(i))
    g.add_edge(0, 1, w)
    g.add_edge(2, 3, w)
    return g


def parts_cut(gs, parts_a):
    side_a, side_b = [], []
    for u in gs.parts():
        (side_a if u in parts_a else side_b).extend(gs.part_vertices(u))
    return side_a, side_b


def test_build_single_edge():
    gs = build_partitioned(single_edge(3))
    assert gs.n == 6
    assert gs.num_matching_edges() == 3
    assert gs.num_dummy_edges() == 0 == brute_dummy_edges(gs.H)


def test_build_two_disjoint_edges():
    gs = build_partitioned(two_disjoint_edges(2))
    assert gs.n == 8
    assert gs.num_matching_edges() == 4
    assert gs.num_dummy_edges() == 16 == brute_dummy_edges(gs.H)
    kinds = [kind for _, _, kind in brute_edge_iter(gs)]
    assert kinds.count("matching") == 4 and kinds.count("dummy") == 16


def test_dummy_edge_count_matches_pairwise(rng):
    for _ in range(40):
        h = random_weighted_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.6, 0.9)), max_w=6)
        assert PartitionedGraph(h).num_dummy_edges() == brute_dummy_edges(h)
    h = build_H(parse_nae_dimacs(FOUR_COPIES), SMALL).graph
    assert PartitionedGraph(h).num_dummy_edges() == brute_dummy_edges(h) == 1820711408


def copy_of(h):
    g = WeightedGraph()
    g.labels, g.roles = list(h.labels), list(h.roles)
    g.start, g.nbr, g.wt = list(h.start), list(h.nbr), list(h.wt)
    return g


def twisted_twins(h, rng):
    """I(v, u) gets another weight than I(u, v).  When H has an edge of weight
    >= 2, a second twin is twisted the other way, so |V(G)| = 2·W(H) holds."""
    g = copy_of(h)

    def twist(u, v, d):  # v > u: W(H) reads the weight on u's side
        set_row(g, v, [(x, w + d if x == u else w) for x, w in g.adj[v]])

    edges = sorted(h.edges(), key=lambda e: e[2])
    twist(*edges[0][:2], 1)
    if len(edges) > 1 and edges[-1][2] > 1:
        twist(*edges[-1][:2], -1)
    return PartitionedGraph(g)


def n_off_by_one(h, rng):
    gs = PartitionedGraph(h)
    gs.n += rng.choice((-1, 1))
    return gs


def shifted_block_start(h, rng):
    gs = PartitionedGraph(h)
    gs.block_start[rng.randrange(len(gs.block_start))] += rng.choice((-1, 1))
    return gs


def _part_moved(h, rng, d_lo, d_hi):
    gs = PartitionedGraph(h)
    u = rng.choice([u for u in h.vertex_ids() if h.adj[u]])
    lo, hi = gs.part_range[u]
    gs.part_range[u] = (lo + d_lo, hi + d_hi)
    return gs


def shifted_part(h, rng):
    d = rng.choice((-1, 1))
    return _part_moved(h, rng, d, d)


def grown_part(h, rng):
    return _part_moved(h, rng, 0, 1)


def swapped_block_pairs(h, rng):
    gs = PartitionedGraph(h)
    i, j = rng.sample(range(len(gs.block_pairs)), 2)
    gs.block_pairs[i], gs.block_pairs[j] = gs.block_pairs[j], gs.block_pairs[i]
    return gs


def dropped_last_block(h, rng):
    gs = PartitionedGraph(h)
    gs.block_pairs.pop()
    gs.block_start.pop()
    return gs


def self_loop_block(h, rng):
    """A block I(u, u), with |V(G)| set back to 2·W(H)."""
    g = copy_of(h)
    set_row(g, 0, [*g.adj[0], (0, 1)])
    gs = PartitionedGraph(g)
    gs.n = 2 * g.total_weight()
    return gs


def duplicate_edge(h, rng):
    """A second edge between the ends of an H-edge, of its weight or another."""
    g = copy_of(h)
    u, v, w = rng.choice(list(h.edges()))
    w += rng.choice((0, 1))
    set_row(g, u, [*g.adj[u], (v, w)])
    set_row(g, v, [*g.adj[v], (u, w)])
    return PartitionedGraph(g)


def unsorted_adjacency(h, rng):
    """A vertex lists its neighbours in descending order.  When no vertex has
    two, an edge first joins the first ends of two disjoint H-edges."""
    g = copy_of(h)
    if max(map(len, g.adj)) < 2:
        (u, _, _), (x, _, _) = list(h.edges())[:2]
        g.add_edge(u, x, 1)
    u = max(g.vertex_ids(), key=lambda u: len(g.adj[u]))
    set_row(g, u, g.adj[u][::-1])
    return PartitionedGraph(g)


TAMPERS = [n_off_by_one, shifted_block_start, twisted_twins, shifted_part, grown_part,
           swapped_block_pairs, dropped_last_block, self_loop_block, duplicate_edge,
           unsorted_adjacency]


@pytest.mark.parametrize("fault, message", SIMPLE_FAULTS)
def test_build_partitioned_refuses_each_fault_of_h(fault, message):
    """build_partitioned audits only H, and refuses every fault check_simple
    refuses, with its message; validate refuses the table laid out anyway."""
    h = path_graph([2, 3])
    fault(h)
    for build in (build_partitioned, lambda h: PartitionedGraph(h).validate()):
        with pytest.raises(ValidationError, match=message):
            build(h)


def test_validate_matches_per_vertex_walk(rng):
    graphs = [h for h in (random_weighted_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.6, 0.9)),
                                                max_w=6) for _ in range(100)) if h.num_edges() >= 2]
    graphs.append(build_H(parse_nae_dimacs(FOUR_COPIES), SMALL).graph)
    for h in graphs:
        gs = build_partitioned(h)
        brute_validate(gs)
        for tamper in TAMPERS:
            broken = tamper(h, rng)
            for audit in (PartitionedGraph.validate, brute_validate):
                with pytest.raises(ValidationError):
                    audit(broken)
                    pytest.fail(f"{audit.__name__} accepts {tamper.__name__}")


def test_scaled_table_is_the_layout_of_the_scaled_weights(rng):
    """gs.scaled(f) is the block table build_partitioned lays out for H with
    its weights times f, without copying H.  The per-vertex walk runs on the
    random graphs only: four copies has 2.7 M G-vertices at small times 45."""
    graphs = [random_weighted_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.6, 0.9)),
                                    max_w=6) for _ in range(100)]
    four_copies = [build_H(parse_nae_dimacs(FOUR_COPIES), c).graph for c in (SMALL, PAPER)]
    for h in graphs + four_copies:
        gs = build_partitioned(h)
        for f in (1, 3, 45):
            scaled, ref = gs.scaled(f), build_partitioned(scale_weights(h, f))
            assert scaled.H is h and scaled.scale == f
            assert (scaled.block_pairs, scaled.block_start, scaled.part_range, scaled.n) == (
                ref.block_pairs, ref.block_start, ref.part_range, ref.n)
            assert table_blocks(scaled) == table_blocks(ref)
            scaled.validate()
            if h not in four_copies:
                brute_validate(scaled)
                assert (scaled.num_matching_edges(), scaled.num_dummy_edges()) == (
                    ref.num_matching_edges(), brute_dummy_edges(ref.H))


def test_isolated_vertex_owns_an_empty_part():
    h = path_graph([2, 3])
    h.add_vertex("isolated")
    gs = build_partitioned(h)
    brute_validate(gs)
    assert gs.part_range[3] == (gs.n, gs.n)


def test_vertex_count_identity(rng):
    for _ in range(10):
        h = random_weighted_graph(rng, rng.randint(2, 6), p=0.6, max_w=4)
        if h.num_edges() == 0:
            continue
        gs = build_partitioned(h)
        assert gs.n == 2 * h.total_weight()
        for u in gs.parts():
            verts = list(gs.part_vertices(u))
            for p, q in itertools.combinations(verts, 2):
                assert gs.adjacent(p, q) is None


def test_blocks_match_weights(rng):
    h = random_weighted_graph(rng, 5, p=0.7, max_w=4)
    gs = build_partitioned(h)
    blocks = table_blocks(gs)
    for (u, v) in gs.block_pairs:
        assert len(blocks[u, v]) == edge_weight(h, u, v)
        assert len(blocks[v, u]) == edge_weight(h, u, v)


def test_oracle_spot_check(rng):
    h = random_weighted_graph(rng, 6, p=0.5, max_w=3)
    if h.num_edges() >= 2:
        gs = build_partitioned(h)
        sample_oracle_check(gs, rng, samples=3000)


def _listed(n, rows):
    """The explicit edge rows of a graph of n vertices whose edges rows()
    lists: within the vertex limit and then the row limit, else None."""
    if n > serialize.EXPLICIT_EDGE_VERTEX_LIMIT:
        return None
    rows = rows()
    return rows if len(rows) <= serialize.EXPLICIT_EDGE_LIMIT else None


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_counts_oracle_and_edge_rows_agree(data):
    """On a random H (at most 8 vertices, weights at most 4) and on its table
    scaled by 3: the edge counts are the kinds adjacent returns over all
    G-vertex pairs, adjacent follows the first-principles rule on every pair,
    the explicit step-2 edge rows are brute_edge_iter's edges, and the
    explicit step-3 edge rows are the G* oracle's over all pairs."""
    n = data.draw(st.integers(2, 8))
    h = WeightedGraph()
    for i in range(n):
        h.add_vertex(str(i))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True))):
        h.add_edge(u, v, data.draw(st.integers(1, 4)))
    base = PartitionedGraph(h)
    for gs in (base, base.scaled(3)):
        every = list(itertools.combinations(range(gs.n), 2))
        kinds = collections.Counter(gs.adjacent(p, q) for p, q in every)
        assert (kinds["matching"], kinds["dummy"]) == (gs.num_matching_edges(),
                                                       gs.num_dummy_edges())
        oracle_check(gs, every)
        assert serialize._explicit_edge_rows(gs) == _listed(gs.n, lambda: [
            (kind, p, q) for p, q, kind in sorted(brute_edge_iter(gs))])
    if all(h.adj):  # G* needs every part non-empty
        star = build_Gstar(base.scaled(3), Constants(36, 3, 6, 3, 1))
        assert serialize._explicit_edge_rows(star) == _listed(star.n, lambda: [
            (kind, x, y) for x, y in itertools.combinations(range(star.n), 2)
            if (kind := star.adjacent(x, y))])


def test_oracle_boundaries():
    """An out-of-range G-vertex is refused by name, p before q; a vertex is
    not adjacent to itself."""
    gs = build_partitioned(path_graph([2, 3]))
    for p, q, bad in ((-1, 0, -1), (gs.n, 0, gs.n), (0, -1, -1), (0, gs.n, gs.n),
                      (-1, gs.n, -1), (gs.n, -1, gs.n)):
        with pytest.raises(ValidationError, match=re.escape(f"G-vertex {bad} out of range")):
            gs.adjacent(p, q)
    assert all(gs.adjacent(p, p) is None for p in range(gs.n))


def test_oracle_checks_the_range_before_a_self_pair():
    """An out-of-range self pair is refused like any other out-of-range pair."""
    gs = build_partitioned(path_graph([2, 3]))
    assert gs.n == 10
    for bad in (10, -7):
        with pytest.raises(ValidationError, match=re.escape(f"G-vertex {bad} out of range")):
            gs.adjacent(bad, bad)
    assert gs.adjacent(9, 9) is None


def test_cut_value_trivial_cases():
    gs = build_partitioned(single_edge(3))
    value, exact = cut_value(gs.adjacent, [0], [3], "mim")
    assert exact and value in (0, 1)
    assert cut_value(gs.adjacent, [], [0, 1], "mim") == (0, True)


def test_cut_value_k33():
    adj = adjacency_sets(6, [(a, b) for a in range(3) for b in range(3, 6)])
    fn = adj_fn(adj)
    assert cut_value(fn, [0, 1, 2], [3, 4, 5], "mim") == (1, True)
    assert cut_value(fn, [0, 1, 2], [3, 4, 5], "sim") == (1, True)


def test_cut_value_rejects_overlap():
    with pytest.raises(ValidationError, match="overlap"):
        cut_value(lambda a, b: False, [0, 1], [1, 2], "mim")
    with pytest.raises(ValidationError, match="kind"):
        cut_value(lambda a, b: False, [0], [1], "owim")


def test_cut_value_matches_brute_force(rng):
    for _ in range(40):
        n = rng.randint(4, 10)
        adj = adjacency_sets(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.4])
        fn = adj_fn(adj)
        verts = list(range(n))
        rng.shuffle(verts)
        half = rng.randint(1, n - 1)
        side_a, side_b = verts[:half], verts[half:]
        assert cut_value(fn, side_a, side_b, "mim") == (brute_mim(fn, sorted(side_a), sorted(side_b)), True)
        assert cut_value(fn, side_a, side_b, "sim") == (brute_sim(fn, sorted(side_a), sorted(side_b)), True)


def test_cut_value_matches_brute_force_12_vertices(rng):
    for _ in range(5):
        adj = adjacency_sets(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                                  if rng.random() < 0.3])
        fn = adj_fn(adj)
        verts = list(range(12))
        rng.shuffle(verts)
        side_a, side_b = verts[:6], verts[6:]
        for kind, brute in (("mim", brute_mim), ("sim", brute_sim)):
            got, exact = cut_value(fn, side_a, side_b, kind)
            assert exact and got == brute(fn, sorted(side_a), sorted(side_b))


def test_cut_value_threshold_mode(rng):
    adj = adjacency_sets(8, [(i, i + 4) for i in range(4)])  # perfect matching
    fn = adj_fn(adj)
    value, exact = cut_value(fn, [0, 1, 2, 3], [4, 5, 6, 7], "mim", threshold=2)
    assert value == 2 and not exact
    value, exact = cut_value(fn, [0, 1, 2, 3], [4, 5, 6, 7], "mim")
    assert value == 4 and exact
    # a threshold of 0 is met at once: exact only when no edge crosses the cut
    for kind in ("mim", "sim", "omim"):
        assert cut_value(fn, [0, 1], [4, 5], kind, threshold=0) == (0, False)
        assert cut_value(fn, [0, 1], [6, 7], kind, threshold=0) == (0, True)
        assert cut_value(fn, [0, 1, 2, 3], [4, 5, 6, 7], kind, threshold=3) == (3, False)


def test_cut_value_budget():
    adj = adjacency_sets(8, [(i, j) for i in range(4) for j in range(4, 8)])
    with pytest.raises(BudgetExceededError):
        cut_value(adj_fn(adj), [0, 1, 2, 3], [4, 5, 6, 7], "sim", budget=0)


def test_sim_at_most_mim(rng):
    for _ in range(25):
        n = rng.randint(4, 9)
        adj = adjacency_sets(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.5])
        fn = adj_fn(adj)
        half = rng.randint(1, n - 1)
        side_a, side_b = list(range(half)), list(range(half, n))
        sim, _ = cut_value(fn, side_a, side_b, "sim")
        mim, _ = cut_value(fn, side_a, side_b, "mim")
        assert sim <= mim


def small_test_instances(rng):
    """Weighted graphs whose (G, S) stays at or below ~60 vertices."""
    fixed = [
        single_edge(3),
        two_disjoint_edges(2),
        path_graph([3, 4, 2]),
        star_graph([2, 3, 2]),
        path_graph([5, 5]),
    ]
    for _ in range(3):
        while True:
            h = random_weighted_graph(rng, rng.randint(3, 5), p=0.7, max_w=4)
            if 0 < h.total_weight() <= 30:
                fixed.append(h)
                break
    return fixed


def all_parts_bipartitions(gs):
    parts = gs.parts()
    for r in range(1, len(parts)):
        for combo in itertools.combinations(parts, r):
            yield set(combo)


def test_missing_dummy_edge_forces_shared_endpoint(rng):
    # absence of a dummy edge between I(u,v) in A and I(x,y) in B forces
    # u=y or v=x or v=y -- exhaustive block-pair scan over all S-cuts
    for h in small_test_instances(rng):
        gs = build_partitioned(h)
        blocks = table_blocks(gs)
        for parts_a in all_parts_bipartitions(gs):
            for (u, v) in gs.block_pairs:
                if u not in parts_a:
                    continue
                for (x, y) in gs.block_pairs:
                    if x in parts_a:
                        continue
                    p = blocks[u, v][0]
                    q = blocks[x, y][0]
                    if gs.adjacent(p, q) != "dummy":
                        assert u == y or v == x or v == y


def maximal_matching_only_sets(gs, side_a_parts):
    """All maximal semi-induced matchings using matching edges only."""
    parts_a = set(side_a_parts)
    owner = part_owners(gs)
    cands = []
    for p, q in sorted(matching_partners(gs).items()):
        if owner[p] in parts_a and owner[q] not in parts_a:
            cands.append((p, q))

    def compatible(e, chosen):
        a1, b1 = e
        for a2, b2 in chosen:
            if a1 == a2 or b1 == b2:
                return False
            if gs.adjacent(a1, b2) or gs.adjacent(a2, b1):
                return False
        return True

    out = []

    def rec(start, chosen):
        extended = False
        for j in range(start, len(cands)):
            if compatible(cands[j], chosen):
                extended = True
                chosen.append(cands[j])
                rec(j + 1, chosen)
                chosen.pop()
        if not extended and chosen:
            out.append(list(chosen))

    rec(0, [])
    return out


def covered_by_single_part(gs, edges):
    owner = part_owners(gs)
    for u in gs.parts():
        if all(owner[p] == u or owner[q] == u for p, q in edges):
            return True
    return False


def test_matching_only_semi_induced_covered_by_one_part(rng):
    for h in small_test_instances(rng):
        gs = build_partitioned(h)
        if gs.n > 60:
            continue
        for parts_a in all_parts_bipartitions(gs):
            for matching in maximal_matching_only_sets(gs, parts_a):
                assert covered_by_single_part(gs, matching)


def test_no_large_single_part_dummy_matching(rng):
    # no dummy-only semi-induced matching with all A-endpoints in one part
    # reaches size 7: a threshold-7 search must come back exact and small
    for h in small_test_instances(rng):
        gs = build_partitioned(h)
        if gs.n > 60:
            continue
        owner = part_owners(gs)
        for parts_a in all_parts_bipartitions(gs):
            side_b = [p for p in range(gs.n) if owner[p] not in parts_a]
            for u in sorted(parts_a):
                side_a = list(gs.part_vertices(u))
                dummy_only = lambda p, q: gs.adjacent(p, q) == "dummy"
                value, exact = cut_value(dummy_only, side_a, side_b, "mim", threshold=7)
                assert exact and value <= 6


def test_mapping_cut_two_parts():
    gs = build_partitioned(single_edge(3))
    mapping = path_mapping_from_order(gs, [0, 1])
    side_a, side_b = mapping_cut(gs, mapping, (0, 1))
    assert sorted(side_a) == list(gs.part_vertices(0))
    assert sorted(side_b) == list(gs.part_vertices(1))
    value, exact = mapping_value(gs, mapping, "sim")
    assert (value, exact) == (3, True)


def test_mapping_cut_star_and_prefix(rng):
    h = star_graph([2, 2, 2])
    gs = build_partitioned(h)
    order = [1, 0, 2, 3]
    mapping = path_mapping_from_order(gs, order)
    side_a, side_b = mapping_cut(gs, mapping, (0, 1))
    assert sorted(side_a) == list(gs.part_vertices(1))
    with pytest.raises(ValidationError):
        mapping_cut(gs, mapping, (0, 2))


def test_mapping_cut_star_tree_leaf_edge():
    h = star_graph([2, 2, 2])
    gs = build_partitioned(h)
    # star-shaped tree mapping: center node 0 holds part 0, leaves hold the rest
    mapping = TreeMapping(
        tree_adj={0: [1, 2, 3], 1: [0], 2: [0], 3: [0]},
        part_at={0: 0, 1: 1, 2: 2, 3: 3})
    side_a, side_b = mapping_cut(gs, mapping, (0, 1))
    assert sorted(side_b) == list(gs.part_vertices(1))
    assert sorted(side_a) == sorted(set(range(gs.n)) - set(gs.part_vertices(1)))


def test_path_mapping_reversal_same_value(rng):
    h = path_graph([3, 2, 4])
    gs = build_partitioned(h)
    order = [0, 1, 2, 3]
    forward, _ = mapping_value(gs, path_mapping_from_order(gs, order), "mim")
    backward, _ = mapping_value(gs, path_mapping_from_order(gs, list(reversed(order))), "mim")
    assert forward == backward


def test_path_mapping_bound_from_balancing_order(rng):
    # mim value of the path mapping built from a tau-balancing order stays
    # within tau + 50 (trivially so at toy scale, computed exactly)
    c = SMALL
    for h in small_test_instances(rng):
        if h.total_weight() > 30:
            continue
        order = solve_balancing_order(h, c.tau)
        if order is None:
            continue
        gs = build_partitioned(h)
        mapping = path_mapping_from_order(gs, order)
        value, exact = mapping_value(gs, mapping, "mim", threshold=c.tau + 51)
        assert exact and value <= c.tau + 50


def test_matching_edges_in_path_mapping_cuts(rng):
    # within any path-mapping cut from a balancing order: matching-edge-only
    # semi-induced matchings have size <= tau and a single part covers them
    c = SMALL
    for h in small_test_instances(rng)[:5]:
        order = solve_balancing_order(h, c.tau)
        if order is None:
            continue
        gs = build_partitioned(h)
        for i in range(len(order) - 1):
            parts_a = set(order[:i + 1])
            for matching in maximal_matching_only_sets(gs, parts_a):
                assert len(matching) <= c.tau
                assert covered_by_single_part(gs, matching)


def test_balancing_tree_from_mapping_threshold(rng):
    # a sim-value-t tree mapping hands H a t-balancing tree
    for h in small_test_instances(rng):
        gs = build_partitioned(h)
        order = sorted(gs.parts())
        mapping = path_mapping_from_order(gs, order)
        value, _ = mapping_value(gs, mapping, "sim")
        assert check_balancing_tree(h, mapping, value) == (True, None)


def test_balancing_tree_two_part_threshold():
    h = single_edge(4)
    gs = build_partitioned(h)
    mapping = path_mapping_from_order(gs, [0, 1])
    assert check_balancing_tree(h, mapping, 4) == (True, None)
    assert check_balancing_tree(h, mapping, 3)[0] is False


def test_path_mapping_requires_matching_parts():
    gs = build_partitioned(single_edge(2))
    with pytest.raises(ValidationError):
        path_mapping_from_order(gs, [0, 1, 2])


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=4, max_value=9))
@settings(max_examples=60, deadline=None)
def test_cut_value_kernel_property(seed, n):
    import random as _random

    rng = _random.Random(seed)
    adj = adjacency_sets(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.45])
    fn = adj_fn(adj)
    half = rng.randint(1, n - 1)
    verts = list(range(n))
    rng.shuffle(verts)
    side_a, side_b = sorted(verts[:half]), sorted(verts[half:])
    assert cut_value(fn, side_a, side_b, "mim") == (brute_mim(fn, side_a, side_b), True)
    assert cut_value(fn, side_a, side_b, "sim") == (brute_sim(fn, side_a, side_b), True)


def test_single_part_mapping_has_value_zero():
    # isolated vertices carry no blocks, so use a minimal two-vertex H and
    # restrict the mapping machinery to a one-node tree
    gs = build_partitioned(single_edge(2))
    mapping = TreeMapping(tree_adj={0: []}, part_at={0: 0})
    assert mapping_value(gs, mapping, "mim") == (0, True)
    assert mapping_value(gs, mapping, "sim") == (0, True)
