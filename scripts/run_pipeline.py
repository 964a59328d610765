#!/usr/bin/env python3
"""End-to-end walk through the three reduction steps on a small instance.

Generates (or reads) a strict 4-occurrence NAE formula, builds the weighted
graph H, certifies the balancing witness, then follows the instance through
the partitioned graph and the gadget graph, reporting exact cut statistics
for the tiny grouping demo (always at the small profile) along the way.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from naewidth.formula import brute_force_nae, emit_nae_dimacs, parse_nae_dimacs, random_strict_formula
from naewidth.red1 import PROFILES, SMALL, build_H, decode_assignment, witness_order
from naewidth.red2 import build_partitioned, mapping_value, path_mapping_from_order
from naewidth.red3 import build_Gstar, caterpillar_layout, ensure_divisible, group_all, hybrid_from_layout, hybrid_sim_values, hybrid_to_tree_mapping, project_mapping_to_G
from naewidth.wgraph import WeightedGraph, check_balancing_order


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cnf", help="DIMACS file; default: generated instance")
    parser.add_argument("-n", "--num-vars", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default="small", choices=sorted(PROFILES))
    args = parser.parse_args()

    if args.cnf:
        f = parse_nae_dimacs(open(args.cnf).read())
    else:
        rng = random.Random(args.seed)
        while True:
            f = random_strict_formula(args.num_vars, rng)
            if brute_force_nae(f) is not None:
                break
        print("generated instance:")
        print(emit_nae_dimacs(f), end="")

    c = PROFILES[args.profile]
    bits = brute_force_nae(f)
    print(f"brute force: {'UNSAT' if bits is None else ''.join('T' if b else 'F' for b in bits)}")
    if bits is None:
        return 1

    t0 = time.time()
    build = build_H(f, c)
    g = build.graph
    print(f"step 1: H has {g.n} vertices, {g.num_edges()} edges "
          f"(padding p = {len(build.x_ids)}), built in {time.time() - t0:.2f}s")
    order = witness_order(f, build, bits)
    ok, _ = check_balancing_order(g, order, c.tau)
    print(f"  witness order is tau-balancing at tau={c.tau}: {ok}")
    decoded = decode_assignment(f, build, order)
    print(f"  decoded assignment: {''.join('T' if b else 'F' for b in decoded)}")

    t0 = time.time()
    gs = build_partitioned(g)
    built = time.time() - t0
    print(f"step 2: (G, S) has {gs.n} vertices, "
          f"{gs.num_matching_edges()} matching edges, {gs.num_dummy_edges()} dummy edges, "
          f"built in {built:.2f}s")

    t0 = time.time()
    gs3, scale = ensure_divisible(gs, c)
    star = build_Gstar(gs3, c)
    print(f"step 3: G* has {star.n} vertices (weights scaled by {scale}), "
          f"built in {time.time() - t0:.2f}s")

    # G* is far too large to lay out; demo the gadget machinery on a two-part
    # toy, at the small profile whatever the chosen one
    toy = WeightedGraph()
    toy.add_vertex("u")
    toy.add_vertex("v")
    toy.add_edge(0, 1, SMALL.a)
    toy_gs = build_partitioned(toy)
    star = build_Gstar(toy_gs, SMALL)
    print(f"step 3 toy (small profile, H = single edge of weight {SMALL.a}): "
          f"G* has {star.n} vertices")
    ht = hybrid_from_layout(caterpillar_layout(star, sorted(star.parts())))
    print(f"  caterpillar hybrid tree: max sim value "
          f"{max(hybrid_sim_values(ht, star).values())}")
    grouped = group_all(star, ht)
    mapping = hybrid_to_tree_mapping(star, grouped)
    star_sim, _ = mapping_value(star, mapping, "sim")
    projected = project_mapping_to_G(toy_gs, mapping)
    g_sim, _ = mapping_value(toy_gs, projected, "sim")
    print(f"  grouped tree mapping sim value: {star_sim}; projected onto (G, S): {g_sim}")

    h_order = sorted(gs.parts())
    pm = path_mapping_from_order(gs, h_order)
    print("step 2 extra: path mapping over identity order has "
          f"{len(list(pm.edges()))} cuts (values omitted at this size)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
