"""The bit-parallel compatibility build against the pair-oracle reference."""

import itertools

from naewidth.matchings import compatibility_masks, cut_edges
from naewidth.red1 import SMALL
from naewidth.red2 import build_partitioned, mapping_cut, path_mapping_from_order
from naewidth.red3 import build_Gstar, build_gadget, caterpillar_layout, hybrid_cut_sides, hybrid_from_layout

from conftest import adj_fn, brute_compatibility_masks, path_graph, random_graph_adj, star_graph

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
