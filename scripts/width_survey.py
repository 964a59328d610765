#!/usr/bin/env python3
"""Exact width survey over all non-isomorphic graphs on up to N vertices.

Prints sim / omim / mim / linear-mim / linear-sim for each graph (networkx
atlas enumeration) and confirms the chain
    sim <= omim <= mim <= linear mim-width
on every instance.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import networkx as nx

from naewidth.matchings import adjacency_from_sets
from naewidth.widths import exact_width

ATLAS_OFFSETS = {0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 5: 19, 6: 53, 7: 209}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--max-vertices", type=int, default=5,
                        choices=range(1, 8))
    parser.add_argument("--show-all", action="store_true",
                        help="print one row per graph instead of a summary")
    args = parser.parse_args()

    atlas = [g for g in nx.graph_atlas_g()[1:]
             if 1 <= g.number_of_nodes() <= args.max_vertices]
    print(f"{len(atlas)} graphs on <= {args.max_vertices} vertices")
    header = f"{'graph':>8} {'n':>2} {'m':>2} {'sim':>4} {'omim':>5} {'mim':>4} {'lmim':>5} {'lsim':>5}"
    if args.show_all:
        print(header)
    start = time.time()
    violations = 0
    for idx, graph in enumerate(atlas, start=1):
        n = graph.number_of_nodes()
        adj = {v: set(graph.neighbors(v)) for v in range(n)}
        fn = adjacency_from_sets(adj)
        sim = exact_width(fn, range(n), "sim")[0]
        omim = exact_width(fn, range(n), "omim")[0]
        mim = exact_width(fn, range(n), "mim")[0]
        lmim = exact_width(fn, range(n), "mim", linear=True)[0]
        lsim = exact_width(fn, range(n), "sim", linear=True)[0]
        if not (sim <= omim <= mim <= lmim and sim <= lsim):
            violations += 1
            print(f"CHAIN VIOLATION at atlas graph {idx}")
        if args.show_all:
            print(f"{idx:>8} {n:>2} {graph.number_of_edges():>2} "
                  f"{sim:>4} {omim:>5} {mim:>4} {lmim:>5} {lsim:>5}")
    print(f"checked in {time.time() - start:.1f}s; chain violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
