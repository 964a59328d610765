"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import random
import time

import networkx as nx

from naewidth import serialize
from naewidth.cli import run
from naewidth.formula import brute_force_nae, eval_nae, parse_nae_dimacs, random_strict_formula
from naewidth.matchings import adjacency_from_sets
from naewidth.red1 import PAPER, SMALL, Constants, build_bottleneck, build_bottleneck_sequence, build_H, decode_assignment, witness_order
from naewidth.red2 import build_partitioned, cut_value, mapping_value, path_mapping_from_order
from naewidth.red3 import build_Gstar, build_gadget, caterpillar_layout, find_default_edge, group_gadget, hybrid_from_layout, hybrid_sim_values, hybrid_to_tree_mapping, project_mapping_to_G
from naewidth.wgraph import WeightedGraph, check_balancing_order, enumerate_balancing_orders, solve_balancing_order
from naewidth.widths import enumerate_leaf_trees, exact_width, layout_value

from conftest import brute_validate_gstar, double_factorial, matching_partners, part_owners, path_graph, random_weighted_graph, sample_oracle_check, star_graph, table_blocks

FOUR_COPIES = parse_nae_dimacs("p cnf 3 4\n" + "1 2 3 0\n" * 4)


def report(name, ok):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {name} failed"


def certified_instances(count=20):
    """Strict 4-occurrence instances certified satisfiable by brute force."""
    instances = [FOUR_COPIES]
    rng = random.Random(2024)
    seen = {FOUR_COPIES.clauses}
    while len(instances) < count:
        f = random_strict_formula(6, rng)
        if f.clauses in seen:
            continue
        seen.add(f.clauses)
        if brute_force_nae(f) is not None:
            instances.append(f)
    return instances


def test_witness_soundness(tmp_path):
    start = time.time()
    instances = certified_instances(20)
    assert len(instances) >= 20
    for f in instances:
        bits = brute_force_nae(f)
        assert bits is not None
        for c in (SMALL, PAPER):
            build = build_H(f, c)
            order = witness_order(f, build, bits)
            ok, violator = check_balancing_order(build.graph, order, c.tau)
            assert ok, (f.clauses, c, violator)
    # the same flow through the command-line surface
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 4\n" + "1 2 3 0\n" * 4)
    h_path = str(tmp_path / "H.json")
    order_path = str(tmp_path / "order.json")
    assert run(["reduce", "step1", "--profile", "small", "-i", str(cnf), "-o", h_path]) == 0
    assert run(["witness", "order", "-i", h_path, "--cnf", str(cnf), "-o", order_path]) == 0
    assert run(["balance", "check", "-i", h_path, "--order", order_path,
                "--threshold", str(SMALL.tau)]) == 0
    elapsed = time.time() - start
    report("witness-soundness", elapsed < 10.0)


def test_decode_round_trip():
    ok = True
    for i, f in enumerate(certified_instances(6)):
        bits = brute_force_nae(f)
        profiles = (SMALL, PAPER) if i < 2 else (SMALL,)
        for c in profiles:
            build = build_H(f, c)
            order = witness_order(f, build, bits)
            decoded = decode_assignment(f, build, order)
            ok = ok and eval_nae(f, decoded)
            reverse = decode_assignment(f, build, list(reversed(order)))
            ok = ok and eval_nae(f, reverse)
    report("decode-round-trip", ok)


def rigid_spine_shape(order, handle):
    pos = {v: i for i, v in enumerate(order)}
    spine = handle.spine_ascending()
    k = len(handle.spine_a)
    if pos[handle.spine_a[-1]] < pos[handle.spine_b[-1]]:
        ascending = all(pos[spine[i]] < pos[spine[i + 1]] for i in range(len(spine) - 1))
        terms = all(pos[handle.terminals[i]] < pos[handle.spine_a[i]] for i in range(k))
        return ascending and terms
    descending = all(pos[spine[i]] > pos[spine[i + 1]] for i in range(len(spine) - 1))
    terms = all(pos[handle.spine_a[i]] < pos[handle.terminals[i]] for i in range(k))
    return descending and terms


def test_bottleneck_orders_have_rigid_spines():
    c = SMALL
    ok = True
    for k in (1, 2, 3):
        g = WeightedGraph()
        terms = [(g.add_vertex(f"t{i}"), c.tau - c.lam) for i in range(k)]
        handle = build_bottleneck(g, terms, c)
        assert g.n == 3 * k <= 9
        orders = enumerate_balancing_orders(g, c.tau + c.gamma)
        ok = ok and orders and all(rigid_spine_shape(o, handle) for o in orders)
    report("bottleneck-order", bool(ok))


def test_sequence_forces_terminal_order():
    c = SMALL
    g = WeightedGraph()
    s1 = [(g.add_vertex("S1"), c.tau - c.lam)]
    s2 = [(g.add_vertex("S2"), c.tau - 2 * c.lam)]
    s3 = [(g.add_vertex("S3"), c.tau - c.lam)]
    build_bottleneck_sequence(g, s1, s2, s3, c)
    solutions = enumerate_balancing_orders(g, c.tau + c.gamma, budget=10 ** 7, limit=120)
    ordered = 0
    for order in solutions:
        pos = {v: i for i, v in enumerate(order)}
        if (pos[0] < pos[1] < pos[2]) or (pos[2] < pos[1] < pos[0]):
            ordered += 1
    report("terminal-forcing", len(solutions) >= 100 and ordered == len(solutions))


def test_padding_saturates_all_but_two():
    ok = True
    for f in certified_instances(5):
        for c in (SMALL, PAPER):
            build = build_H(f, c)
            low = [v for v in build.graph.vertex_ids()
                   if build.graph.vertex_weight(v) < c.tau + c.gamma + 1]
            ok = ok and len(low) == 2
            ok = ok and all(build.graph.vertex_weight(v) == c.tau for v in low)
    report("saturation", ok)


def small_step2_instances():
    rng = random.Random(7)
    out = [path_graph([3, 4, 2]), star_graph([2, 3, 2]), path_graph([5, 5])]
    h = WeightedGraph()
    for i in range(4):
        h.add_vertex(str(i))
    h.add_edge(0, 1, 2)
    h.add_edge(2, 3, 2)
    out.append(h)
    for _ in range(2):
        while True:
            cand = random_weighted_graph(rng, 4, p=0.8, max_w=4)
            if 0 < cand.total_weight() <= 30:
                out.append(cand)
                break
    return out


def test_partitioned_cut_structure():
    ok = True
    for h in small_step2_instances():
        gs = build_partitioned(h)
        assert gs.n <= 60
        parts = gs.parts()
        blocks, owner, partner = table_blocks(gs), part_owners(gs), matching_partners(gs)
        for r in range(1, len(parts)):
            for combo in itertools.combinations(parts, r):
                parts_a = set(combo)
                # separated block pairs without a dummy edge share an endpoint
                for (u, v) in gs.block_pairs:
                    if u not in parts_a:
                        continue
                    for (x, y) in gs.block_pairs:
                        if x in parts_a:
                            continue
                        p = blocks[u, v][0]
                        q = blocks[x, y][0]
                        if gs.adjacent(p, q) != "dummy":
                            ok = ok and (u == y or v == x or v == y)
                # matching-only semi-induced matchings are single-part covered
                cands = [(p, partner[p]) for p in range(gs.n)
                         if owner[p] in parts_a and owner[partner[p]] not in parts_a]
                ok = ok and _matching_sets_single_part(gs, cands)
                # no size-7 dummy-only matching anchored in a single part
                side_b = [p for p in range(gs.n) if owner[p] not in parts_a]
                for u in sorted(parts_a):
                    side_a = list(gs.part_vertices(u))
                    value, exact = cut_value(
                        lambda p, q: gs.adjacent(p, q) == "dummy",
                        side_a, side_b, "mim", threshold=7)
                    ok = ok and exact and value <= 6
    report("step2-structure", ok)


def _matching_sets_single_part(gs, cands):
    def compatible(edge, chosen):
        a1, b1 = edge
        for a2, b2 in chosen:
            if a1 == a2 or b1 == b2 or gs.adjacent(a1, b2) or gs.adjacent(a2, b1):
                return False
        return True

    ok = True
    owner = part_owners(gs)

    def rec(start, chosen):
        nonlocal ok
        extended = False
        for j in range(start, len(cands)):
            if compatible(cands[j], chosen):
                extended = True
                chosen.append(cands[j])
                rec(j + 1, chosen)
                chosen.pop()
        if not extended and chosen:
            covered = any(
                all(owner[p] == u or owner[q] == u for p, q in chosen)
                for u in gs.parts())
            ok = ok and covered

    rec(0, [])
    return ok


def test_path_mapping_mim_bound():
    start = time.time()
    c = SMALL
    ok = True
    checked = 0
    for h in small_step2_instances():
        if h.total_weight() > 30:
            continue
        order = solve_balancing_order(h, c.tau)
        if order is None:
            continue
        gs = build_partitioned(h)
        mapping = path_mapping_from_order(gs, order)
        value, exact = mapping_value(gs, mapping, "mim", threshold=c.tau + 51)
        ok = ok and exact and value <= c.tau + 50
        checked += 1
    elapsed = time.time() - start
    report("path-mapping-bound", ok and checked >= 4 and elapsed < 60.0)


def test_gadget_caterpillar_mim_bound():
    start = time.time()
    gs = build_partitioned(star_graph([3, 3, 3]))
    gadget = build_gadget(gs, 0, SMALL)
    assert gadget.size == 54
    verts = list(range(gadget.size))
    ok = True
    for split in range(1, gadget.size):
        value, exact = cut_value(gadget.adjacent, verts[:split], verts[split:],
                                 "mim", threshold=8)
        ok = ok and exact and value <= 7
    elapsed = time.time() - start
    report("gadget-cut-bound", ok and elapsed < 60.0)


def test_grouping_monotone_and_projection():
    ok = True
    for h in (path_graph([3]), path_graph([3, 3])):
        gs = build_partitioned(h)
        star = build_Gstar(gs, SMALL)
        ht = hybrid_from_layout(caterpillar_layout(star, sorted(star.parts())))
        for u in star.parts():
            before = hybrid_sim_values(ht, star)
            kind, where = find_default_edge(star, ht, u)
            nxt = group_gadget(star, ht, u)
            if kind == "edge":
                new_node = max(nxt.tree_adj)
                x, y = nxt.tree_adj[new_node]
                subdivided = (min(x, y), max(x, y))
                after = hybrid_sim_values(nxt, star)
                for edge, value in after.items():
                    orig = subdivided if new_node in edge else edge
                    ok = ok and value <= before[orig]
            ht = nxt
        hybrid_max = max(hybrid_sim_values(ht, star).values())
        mapping = hybrid_to_tree_mapping(star, ht)
        star_value, exact1 = mapping_value(star, mapping, "sim")
        projected = project_mapping_to_G(gs, mapping)
        g_value, exact2 = mapping_value(gs, projected, "sim")
        ok = ok and exact1 and exact2
        ok = ok and star_value <= hybrid_max and g_value <= star_value
    report("grouping-and-projection", ok)


def test_width_oracle_sanity():
    start = time.time()
    ok = True
    # K_n has mim-width 1 for 2 <= n <= 8
    for n in range(2, 9):
        adj = {i: set(j for j in range(n) if j != i) for i in range(n)}
        value, _ = exact_width(adjacency_from_sets(adj), range(n), "mim")
        ok = ok and value == 1
    # width chain over every non-isomorphic graph on at most 6 vertices
    atlas = nx.graph_atlas_g()[1:209]
    assert len(atlas) == 208
    for graph in atlas:
        n = graph.number_of_nodes()
        if n == 0:
            continue
        adj = {v: set(graph.neighbors(v)) for v in range(n)}
        fn = adjacency_from_sets(adj)
        sim = exact_width(fn, range(n), "sim")[0]
        omim = exact_width(fn, range(n), "omim")[0]
        mim = exact_width(fn, range(n), "mim")[0]
        lin_mim = exact_width(fn, range(n), "mim", linear=True)[0]
        ok = ok and sim <= omim <= mim <= lin_mim
    # layout enumeration count matches (2L-5)!!
    for leaves in range(3, 9):
        count = sum(1 for _ in enumerate_leaf_trees(leaves))
        ok = ok and count == double_factorial(2 * leaves - 5)
    elapsed = time.time() - start
    report("width-oracle-sanity", ok and elapsed < 300.0)


def test_linear_width_vs_caterpillar():
    """Exact linear mim-width of toy G* graphs (path([2]) at custom:12,1,2,1,b;
    8, 16 and 24 vertices) against the caterpillar layout's value.  The
    36-vertex small-profile toy of path([3]) takes seconds and stays out."""
    start = time.time()
    ok = True
    for b in (1, 2, 3):
        star = build_Gstar(build_partitioned(path_graph([2])), Constants(12, 1, 2, 1, b))
        verts = range(star.n)
        exact, witness = exact_width(star.adjacent, verts, "mim", linear=True)
        caterpillar = layout_value(star.adjacent, verts,
                                   caterpillar_layout(star, sorted(star.parts())), "mim")
        print(f"  b={b}: |V(G*)| = {star.n}, exact linear mim-width {exact}, "
              f"caterpillar {caterpillar}")
        ok = ok and exact <= caterpillar
        ok = ok and layout_value(star.adjacent, verts, witness, "mim") == exact
    elapsed = time.time() - start
    report("linear-width-vs-caterpillar", ok and elapsed < 60.0)


def test_pipeline_smoke(tmp_path):
    start = time.time()
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 4\n" + "1 2 3 0\n" * 4)
    prefix1 = str(tmp_path / "a")
    prefix2 = str(tmp_path / "b")
    assert run(["reduce", "all", "--profile", "small", "-i", str(cnf), "-o", prefix1]) == 0
    assert run(["reduce", "all", "--profile", "small", "-i", str(cnf), "-o", prefix2]) == 0
    ok = True
    for suffix in ("step1", "step2", "step3"):
        b1 = (tmp_path / f"a.{suffix}.json").read_bytes()
        b2 = (tmp_path / f"b.{suffix}.json").read_bytes()
        ok = ok and b1 == b2
    # reload every stage and re-validate the type invariants
    h_doc = json.loads((tmp_path / "a.step1.json").read_text())
    build = serialize.hbuild_from_doc(h_doc)
    build.graph.check_simple()
    gs = serialize.partitioned_from_doc(json.loads((tmp_path / "a.step2.json").read_text()))
    gs.validate()
    sample_oracle_check(gs, random.Random(0), samples=2000)
    star = serialize.gstar_from_doc(json.loads((tmp_path / "a.step3.json").read_text()))
    brute_validate_gstar(star)
    ok = ok and star.n == 2 * SMALL.b * gs.n * SMALL.a  # scaled by a, b copies
    elapsed = time.time() - start
    report("pipeline-smoke", ok and elapsed < 60.0)
