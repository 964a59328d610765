"""The bit-parallel compatibility build against the pair-oracle reference."""

import itertools

import pytest

from naewidth import matchings
from naewidth.errors import BudgetExceededError
from naewidth.matchings import DEFAULT_BUDGET, AdjacencyCache, compatibility_masks, cut_edges, cut_value
from naewidth.red1 import SMALL
from naewidth.red2 import build_partitioned, mapping_cut, path_mapping_from_order
from naewidth.red3 import build_Gstar, build_gadget, caterpillar_layout, hybrid_cut_sides, hybrid_from_layout

from conftest import (adj_fn, brute_compatibility_masks, brute_max_matching, path_graph,
                      random_graph_adj, reference_value, star_graph)

FLAGS = list(itertools.product((False, True), repeat=2))


def assert_same_masks(adjacent, side_a, side_b, flags=FLAGS):
    """The kernel on `adjacent` equals the reference on its explicit edge set."""
    vertices = side_a + side_b
    explicit = adj_fn({u: {v for v in vertices if v != u and adjacent(u, v)} for u in vertices})
    candidates = cut_edges(adjacent, sorted(side_a), sorted(side_b))
    for in_a, in_b in flags:
        assert (compatibility_masks(adjacent, candidates, in_a, in_b)
                == brute_compatibility_masks(explicit, candidates, in_a, in_b))


def test_masks_match_reference_on_random_graphs(rng):
    for _ in range(150):
        n = rng.randint(2, 14)
        adjacent = adj_fn(random_graph_adj(rng, n, p=rng.choice((0.2, 0.4, 0.7))))
        verts = list(range(n))
        rng.shuffle(verts)
        half = rng.randint(1, n - 1)
        assert_same_masks(adjacent, verts[:half], verts[half:])


def test_masks_match_reference_on_gadget_caterpillar_cuts():
    gadget = build_gadget(build_partitioned(star_graph([3, 3, 3])), 0, SMALL)
    verts = list(range(gadget.size))
    for split in range(1, gadget.size):
        assert_same_masks(gadget.adjacent, verts[:split], verts[split:],
                          [(False, False)])


def test_masks_match_reference_on_hybrid_sim_cuts():
    star = build_Gstar(build_partitioned(path_graph([3])), SMALL)
    ht = hybrid_from_layout(caterpillar_layout(star, sorted(star.parts())))
    for edge in ht.edges():
        side_a, side_b = hybrid_cut_sides(ht, star, edge)
        assert_same_masks(star.adjacent, side_a, side_b)


def test_masks_match_reference_on_path_mapping_cut():
    gs = build_partitioned(path_graph([3, 4, 2]))
    mapping = path_mapping_from_order(gs, [0, 1, 2, 3])
    for edge in mapping.edges():
        side_a, side_b = mapping_cut(gs, mapping, edge)
        assert_same_masks(gs.adjacent, side_a, side_b)


def counted(adjacent):
    calls = []

    def oracle(u, v):
        calls.append((u, v))
        return adjacent(u, v)
    return oracle, calls


def test_compatibility_oracle_calls(rng):
    for _ in range(30):
        n = rng.randint(4, 14)
        adjacent = adj_fn(random_graph_adj(rng, n, p=0.5))
        verts = list(range(n))
        rng.shuffle(verts)
        half = rng.randint(1, n - 1)
        candidates = cut_edges(adjacent, sorted(verts[:half]), sorted(verts[half:]))
        k_a = len({a for a, _ in candidates})
        k_b = len({b for _, b in candidates})
        oracle, calls = counted(adjacent)
        compatibility_masks(oracle, candidates, False, False)  # mim
        assert calls == []
        oracle, calls = counted(adjacent)
        compatibility_masks(oracle, candidates, True, True)  # sim
        assert len(calls) <= k_a * (k_a - 1) // 2 + k_b * (k_b - 1) // 2


# the kernel calls of each kind as brute_max_matching's conflict flags
BRUTE_FLAGS = {"mim": [(False, False)], "sim": [(True, True)], "omim": [(True, False), (False, True)]}


def one_endpoint_cuts(rng, count):
    """Random cuts (adjacency sets, A, B) whose candidates share one
    endpoint, in turn: one candidate, one row (a centre in A), one column (a
    centre in B); each side has random edges inside it."""
    for i in range(count):
        n = rng.randint(2, 9)
        verts = list(range(n))
        rng.shuffle(verts)
        half = rng.randint(1, n - 1)
        side_a, side_b = verts[:half], verts[half:]
        adj = {v: set() for v in verts}
        pairs = [p for side in (side_a, side_b) for p in itertools.combinations(side, 2)
                 if rng.random() < 0.5]
        if i % 3 == 0:
            pairs.append((rng.choice(side_a), rng.choice(side_b)))
        else:
            centre, far = (rng.choice(side_a), side_b) if i % 3 == 1 else (rng.choice(side_b), side_a)
            pairs += [(centre, v) for v in rng.sample(far, rng.randint(1, len(far)))]
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        yield adj, side_a, side_b


def outcome(value):
    """(result or the budget message, the nodes counted) of value(stats)."""
    stats = {}
    try:
        return value(stats), stats
    except BudgetExceededError as exc:
        return f"raised: {exc}", stats


def counted_searches(monkeypatch):
    """The kernel's max_clique calls (the reference holds its own name)."""
    searches = []
    search = matchings.max_clique
    monkeypatch.setattr(matchings, "max_clique", lambda *a, **k: searches.append(1) or search(*a, **k))
    return searches


def assert_value_is_the_search_value(adj, side_a, side_b, kind):
    """AdjacencyCache.value and cut_value agree with the reference search in
    value, exact flag, nodes and budget error, at thresholds None, 0, 1 and 2
    and budgets 0 and default; unbounded, the value is the brute-force one."""
    adjacent = adj_fn(adj)
    verts = side_a + side_b

    def fresh():  # a cache per call, so no call profits from another's asks
        cache = AdjacencyCache(adjacent, verts)
        return cache, cache.rows(cache.mask(side_a), cache.mask(side_b))

    for threshold, budget in itertools.product((None, 0, 1, 2), (0, DEFAULT_BUDGET)):
        want = outcome(lambda stats: reference_value(*fresh(), kind, threshold, budget, stats))
        got = outcome(lambda stats: AdjacencyCache.value(*fresh(), kind, threshold, budget, stats))
        assert got == want, (kind, threshold, budget, side_a, side_b, adj)
        plain = outcome(lambda _: cut_value(adjacent, side_a, side_b, kind, threshold, budget))
        assert plain[0] == want[0]
    brute = min(brute_max_matching(adjacent, side_a, side_b, in_a, in_b)
                for in_a, in_b in BRUTE_FLAGS[kind])
    cache, rows = fresh()
    assert cache.value(rows, kind) == (brute, True)


@pytest.mark.parametrize("kind", ["mim", "sim", "omim"])
def test_one_endpoint_cuts_are_answered_as_the_search_answers(rng, kind, monkeypatch):
    searches = counted_searches(monkeypatch)
    for adj, side_a, side_b in one_endpoint_cuts(rng, 90):
        assert_value_is_the_search_value(adj, side_a, side_b, kind)
    assert searches == []


@pytest.mark.parametrize("kind", ["mim", "sim", "omim"])
def test_cuts_without_a_shared_endpoint_are_searched(kind, monkeypatch):
    """Two rows with different single columns, two rows with the same two
    columns, and a row next to a column: each runs the search as before."""
    searches = counted_searches(monkeypatch)
    for cross in ([(0, 2), (1, 3)], [(0, 2), (0, 3), (1, 2), (1, 3)], [(0, 2), (0, 3), (1, 3)]):
        adj = {v: set() for v in range(4)}
        for u, v in cross:
            adj[u].add(v)
            adj[v].add(u)
        assert_value_is_the_search_value(adj, [0, 1], [2, 3], kind)
        # at thresholds None, 1 and 2, value and cut_value make every kernel
        # call, or one at budget 0 (it raises); then one unbounded value
        calls = len(BRUTE_FLAGS[kind])
        assert len(searches) == 3 * (2 + 2 * calls) + calls
        searches.clear()


def test_a_cut_with_no_candidate_is_answered_without_a_search(monkeypatch):
    searches = counted_searches(monkeypatch)
    cache = AdjacencyCache(adj_fn({0: {1}, 1: {0}, 2: set()}), [0, 1, 2])
    for kind, threshold in itertools.product(("mim", "sim", "omim"), (None, 0, 1, 2)):
        stats = {}
        assert cache.value([], kind, threshold, budget=0, stats=stats) == (0, True) == \
            reference_value(cache, [], kind, threshold, budget=0, stats=stats)
        assert stats.get("nodes", 0) == 0
    assert searches == []
