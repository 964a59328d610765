import gc
import json
import random
import tracemalloc

import pytest

from naewidth import serialize
from naewidth.errors import ValidationError
from naewidth.formula import brute_force_nae, eval_nae, parse_nae_dimacs, random_strict_formula
from naewidth.red1 import (
    PAPER,
    SMALL,
    Constants,
    build_bottleneck,
    build_bottleneck_sequence,
    build_H,
    decode_assignment,
    direct_order_of_sequence,
    s_edge_weight,
    validate_constants,
    witness_order,
)
from naewidth.wgraph import (
    WeightedGraph,
    check_balancing_order,
    enumerate_balancing_orders,
)

from conftest import (alpha_threshold, brute_bottleneck, edge_weight, naive_balancing_orders,
                      reference_labels, sequence_fixture)

FOUR_COPIES = parse_nae_dimacs("p cnf 3 4\n" + "1 2 3 0\n" * 4)


def spine_positions_ok(order, handle):
    """Given the root-side direction, the spine must be monotone and each
    terminal must sit on the attachment side of its spine vertex."""
    pos = {v: i for i, v in enumerate(order)}
    spine = handle.spine_ascending()
    k = len(handle.spine_a)
    if pos[handle.spine_a[-1]] < pos[handle.spine_b[-1]]:
        if any(pos[spine[i]] > pos[spine[i + 1]] for i in range(len(spine) - 1)):
            return False
        return all(pos[handle.terminals[i]] < pos[handle.spine_a[i]] for i in range(k))
    if any(pos[spine[i]] < pos[spine[i + 1]] for i in range(len(spine) - 1)):
        return False
    return all(pos[handle.spine_a[i]] < pos[handle.terminals[i]] for i in range(k))


def test_validate_constants_profiles():
    validate_constants(PAPER)
    validate_constants(SMALL)
    assert PAPER == Constants(1080, 135, 180, 45, 7873201)


def test_validate_constants_names_first_violation():
    with pytest.raises(ValidationError, match="gamma < lambda"):
        validate_constants(Constants(12, 2, 1, 1, 3))
    with pytest.raises(ValidationError, match="3\\*gamma"):
        validate_constants(Constants(12, 3, 4, 1, 3))
    with pytest.raises(ValidationError, match="multiple of a"):
        validate_constants(Constants(35, 3, 5, 5, 3))


def test_s_edge_weight():
    assert s_edge_weight(SMALL) == 20
    assert s_edge_weight(PAPER) == 608


def test_alpha_threshold_full_scale_profile():
    assert alpha_threshold(PAPER) == PAPER.tau + PAPER.gamma - 1 == 1214


def test_build_bottleneck_k1():
    g = WeightedGraph()
    v = g.add_vertex("v")
    h = build_bottleneck(g, [(v, SMALL.gamma + 1)], SMALL)
    assert g.n == 3 and g.num_edges() == 2
    assert h.root == h.spine_b[0]


def test_build_bottleneck_k3_spine_weights():
    g = WeightedGraph()
    terms = [(g.add_vertex(f"v{i}"), SMALL.tau - SMALL.lam) for i in range(3)]
    h = build_bottleneck(g, terms, SMALL)
    assert g.n == 3 + 6 and g.num_edges() == 3 * 3 - 1
    spine = h.spine_ascending()
    weights = [edge_weight(g, spine[i], spine[i + 1]) for i in range(5)]
    assert weights == [36, 4, 36, 4, 36]


@pytest.mark.parametrize("shared", [False, True], ids=["own-root", "shared-root"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_build_bottleneck_adjacency_is_the_edge_by_edge_order(k, shared):
    """build_bottleneck fills the adjacency lists directly; they hold the
    entries, labels and roles that adding the edges one at a time gives, in
    the same ascending order, also on a shared root that already has an edge."""
    built = []
    for build in (build_bottleneck, brute_bottleneck):
        g = WeightedGraph()
        terms = [(g.add_vertex(f"v{i}"), SMALL.gamma + 1 + i) for i in range(k)]
        root = None
        if shared:
            root = g.add_vertex("r", "root")
            g.add_edge(terms[0][0], root, 5)
        handle = build(g, terms, SMALL, "B", shared_root=root)
        spines = (handle.spine_a, handle.spine_b) if build is build_bottleneck else handle
        built.append((g.labels, g.roles, g.start, g.nbr, g.wt, spines))
    assert built[0] == built[1]


def test_build_bottleneck_rejects_attachment_out_of_range():
    g = WeightedGraph()
    v = g.add_vertex("v")
    with pytest.raises(ValidationError, match="attachment weight"):
        build_bottleneck(g, [(v, SMALL.gamma)], SMALL)
    with pytest.raises(ValidationError, match="attachment weight"):
        build_bottleneck(g, [(v, SMALL.tau - SMALL.gamma)], SMALL)


def test_sequence_counts_and_s_edges():
    g, handles = sequence_fixture()
    # 3 fresh s-vertices + 4 bottlenecks of k=2 minus the 2 root identifications
    assert g.n - 3 == 17
    s1, s2, s3 = handles.s
    assert edge_weight(g, s1, s2) == 20
    assert edge_weight(g, s2, s3) == 20
    assert edge_weight(g, s1, s3) is None
    assert handles.b1p.root == handles.b2m.root
    assert handles.b2p.root == handles.b3m.root


def test_sequence_rejects_overlapping_sets():
    g = WeightedGraph()
    a = g.add_vertex("a")
    b = g.add_vertex("b")
    w = SMALL.tau - SMALL.lam
    with pytest.raises(ValidationError, match="disjoint"):
        build_bottleneck_sequence(g, [(a, w)], [(a, w)], [(b, w)], SMALL)


def test_direct_order_is_tau_balancing():
    g, handles = sequence_fixture()
    order = direct_order_of_sequence(handles)
    bottlenecks = (handles.b1p, handles.b2p, handles.b2m, handles.b3m)
    fields = [handles.s, *handles.terminal_sets] + [h.spine_a + h.spine_b + h.terminals
                                                    for h in bottlenecks]
    assert set().union(*fields) == set(g.vertex_ids())
    assert check_balancing_order(g, order, SMALL.tau) == (True, None)
    assert check_balancing_order(g, list(reversed(order)), SMALL.tau) == (True, None)
    pos = {v: i for i, v in enumerate(order)}
    assert pos[0] < pos[1] < pos[2]  # S1 < S2 < S3


def test_bottleneck_order_structure_exhaustive_k2():
    # (12,1)-bottleneck on 2 terminals at t = 13, full 6!-enumeration cross-check
    c = Constants(12, 1, 2, 1, 1)
    validate_constants(c)
    g = WeightedGraph()
    terms = [(g.add_vertex(f"t{i}"), 5) for i in range(2)]
    h = build_bottleneck(g, terms, c)
    pruned = sorted(map(tuple, enumerate_balancing_orders(g, 13)))
    naive = sorted(map(tuple, naive_balancing_orders(g, 13)))
    assert pruned == naive and pruned
    for order in pruned:
        assert spine_positions_ok(list(order), h)


def test_sequence_order_forcing_small():
    g, handles = sequence_fixture()
    t = SMALL.tau + SMALL.gamma
    sols = enumerate_balancing_orders(g, t, budget=10 ** 7, limit=120)
    assert len(sols) >= 100
    for order in sols:
        pos = {v: i for i, v in enumerate(order)}
        assert (pos[0] < pos[1] < pos[2]) or (pos[2] < pos[1] < pos[0])


def test_build_H_counts_small():
    b = build_H(FOUR_COPIES, SMALL)
    # H' has 22 formula-side vertices plus 37 from the (T, C, F) sequence
    assert b.hprime_n == 59
    assert len(b.x_ids) == len(b.y_ids) == 188
    assert b.graph.n == b.hprime_n + 6 * len(b.x_ids)


def test_build_H_saturation():
    for c in (SMALL, PAPER):
        b = build_H(FOUR_COPIES, c)
        low = [v for v in b.graph.vertex_ids()
               if b.graph.vertex_weight(v) < c.tau + c.gamma + 1]
        assert sorted(low) == sorted(b.roots)
        assert all(b.graph.vertex_weight(v) == c.tau for v in low)


def test_build_H_triangle_free():
    b = build_H(FOUR_COPIES, SMALL)
    g = b.graph
    neighbor_sets = [set(u for u, _ in g.adj[v]) for v in g.vertex_ids()]
    for u, v, _ in g.edges():
        assert not (neighbor_sets[u] & neighbor_sets[v])


def test_build_H_padding_total_recomputed():
    b = build_H(FOUR_COPIES, SMALL)
    target = SMALL.tau + SMALL.gamma + 1
    # each H' vertex's weight counted over its edges inside H'
    hprime_weights = [sum(w for u, w in b.graph.adj[v] if u < b.hprime_n)
                      for v in range(b.hprime_n)]
    expected_p = sum(max(0, target - w) for w in hprime_weights)
    assert len(b.x_ids) == expected_p
    # every X vertex has exactly one neighbor inside H'
    hprime = set(range(b.hprime_n))
    for x in b.x_ids:
        assert sum(1 for u, _ in b.graph.adj[x] if u in hprime) == 1


def test_build_H_edge_weight_audit():
    b = build_H(FOUR_COPIES, SMALL)
    g, c = b.graph, SMALL
    for i in range(3):
        assert edge_weight(g, b.tvert[i], b.tbar[i]) == c.tau - c.lam
        assert edge_weight(g, b.fvert[i], b.fbar[i]) == c.tau - c.lam
        for hub in (b.tvert[i], b.fvert[i]):
            assert edge_weight(g, b.vx[i], hub) == c.lam
            assert edge_weight(g, b.vbar[i], hub) == c.lam
    for j, clause in enumerate(FOUR_COPIES.clauses):
        for v in clause:
            assert edge_weight(g, b.vx[v - 1], b.cvert[j]) == c.lam
    seq = b.seq
    assert seq.b1p.attach_weights == [c.gamma + 1] + [c.tau - c.lam] * 3
    assert seq.b3m.attach_weights == [c.gamma + 1] + [c.tau - c.lam] * 3
    assert seq.b2p.attach_weights == [c.gamma + 1] + [c.tau - 2 * c.lam] * 4
    assert seq.b2m.attach_weights == seq.b2p.attach_weights
    assert set(b.bl.attach_weights) == {c.tau - c.gamma - 1}
    assert set(b.br.attach_weights) == {c.tau - c.gamma - 1}
    for x, y in zip(b.x_ids, b.y_ids):
        assert edge_weight(g, x, y) == 2 * c.gamma + 2
    for u, xs in b.pad_assign.items():
        assert all(edge_weight(g, u, x) == 1 for x in xs)


def test_build_H_rejects_lax_formula():
    lax = parse_nae_dimacs("p cnf 3 3\n" + "1 2 3 0\n" * 3, strict=False)
    with pytest.raises(ValidationError):
        build_H(lax, SMALL)


def test_witness_order_small_and_paper():
    for c in (SMALL, PAPER):
        b = build_H(FOUR_COPIES, c)
        for bits in ((True, False, False), (False, True, True)):
            assert eval_nae(FOUR_COPIES, bits)
            order = witness_order(FOUR_COPIES, b, bits)
            assert sorted(order) == list(b.graph.vertex_ids())
            assert check_balancing_order(b.graph, order, c.tau) == (True, None)


def test_witness_order_rejects_bad_assignment():
    b = build_H(FOUR_COPIES, SMALL)
    with pytest.raises(ValidationError, match="NAE-satisfy"):
        witness_order(FOUR_COPIES, b, (True, True, True))


def test_decode_round_trip_and_reversal():
    b = build_H(FOUR_COPIES, SMALL)
    bits = (True, False, False)
    order = witness_order(FOUR_COPIES, b, bits)
    decoded = decode_assignment(FOUR_COPIES, b, order)
    assert eval_nae(FOUR_COPIES, decoded)
    reverse_decoded = decode_assignment(FOUR_COPIES, b, list(reversed(order)))
    assert reverse_decoded == tuple(not x for x in decoded)
    assert eval_nae(FOUR_COPIES, reverse_decoded)


def test_decode_rejects_unbalanced_order():
    b = build_H(FOUR_COPIES, SMALL)
    bad = sorted(b.graph.vertex_ids())
    with pytest.raises(ValidationError, match="balancing"):
        decode_assignment(FOUR_COPIES, b, bad)


def test_witness_orders_respect_clause_structure():
    # clause vertices are surrounded by their variables; variable vertices
    # stay entirely on one side of the clause block
    rng = random.Random(11)
    formulas = [FOUR_COPIES] + [random_strict_formula(6, rng) for _ in range(3)]
    for f in formulas:
        bits = brute_force_nae(f)
        if bits is None:
            continue
        b = build_H(f, SMALL)
        order = witness_order(f, b, bits)
        pos = {v: i for i, v in enumerate(order)}
        c_lo = min(pos[v] for v in b.cvert)
        c_hi = max(pos[v] for v in b.cvert)
        for i in range(f.num_vars):
            assert pos[b.vx[i]] < c_lo or pos[b.vx[i]] > c_hi
        for j, clause in enumerate(f.clauses):
            var_pos = [pos[b.vx[v - 1]] for v in clause]
            assert min(var_pos) < pos[b.cvert[j]] < max(var_pos)


def test_paper_build_of_four_copies_holds_at_most_8_mb():
    """The 34,955-vertex paper H of four copies is three flat lists of shared
    ids, not a list and a tuple per adjacency entry: 12.9 MB in that layout,
    about 7 MB in this one (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        build = build_H(FOUR_COPIES, PAPER)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert build.graph.n == 34955
    assert size <= 8_000_000


@pytest.mark.parametrize("c", [SMALL, PAPER, Constants(tau=12, gamma=1, lam=2, a=1, b=1)],
                         ids=["small", "paper", "custom:12,1,2,1,1"])
def test_computed_labels_are_the_stored_ones(c):
    """H's labels, H′'s list plus the padding labels computed from their
    index, equal the list build_H once stored, as a whole, vertex by vertex
    at every block boundary and from the end, and refuse an index past
    either end."""
    rng = random.Random(3)
    for f in (FOUR_COPIES, random_strict_formula(6, rng), random_strict_formula(12, rng)):
        build = build_H(f, c)
        labels, expected = build.graph.labels, reference_labels(build)
        n, h, p = build.graph.n, build.hprime_n, len(build.x_ids)
        assert len(labels) == len(expected) == n
        assert list(labels) == expected
        assert labels == expected and expected == labels and not labels != expected
        assert labels == build_H(f, c).graph.labels
        assert labels != expected[:-1] and expected[:-1] != labels
        assert labels != expected[:h] + ["?"] + expected[h + 1:]
        edges = [0, h - 1, h] + [h + k * p + d for k in range(6) for d in (0, p - 1)] + [n - 1]
        for i in edges:
            assert labels[i] == expected[i] and labels[i - n] == expected[i], i
        assert labels[-1] == expected[-1] == "BR.b" + str(p)
        for bad in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                labels[bad]


def test_paper_build_of_four_copies_holds_at_most_160_bytes_per_vertex():
    """The paper H of four copies stores no padding label: its labels are
    computed from the index, so the build holds about 138 bytes per vertex
    (tracemalloc), against 202 with one string per padding vertex."""
    gc.collect()
    tracemalloc.start()
    try:
        build = build_H(FOUR_COPIES, PAPER)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 160 * build.graph.n


def test_paper_build_holds_one_int_per_vertex_id():
    """Every id in the flat lists and in the padding handles is the one int
    object of its vertex: a 34,955-vertex H would otherwise hold an int per
    adjacency entry and per handle entry besides."""
    build = build_H(FOUR_COPIES, PAPER)
    one = {}
    for group in (build.graph.nbr, build.x_ids, build.y_ids, list(build.pad_assign),
                  *build.pad_assign.values(), *(getattr(h, name) for h in (build.bl, build.br)
                                                for name in ("spine_a", "spine_b", "terminals"))):
        assert all(one.setdefault(v, v) is v for v in group)
    assert len(one) == build.graph.n


def test_step1_build_write_and_reload_leave_no_cyclic_garbage():
    """A build, its text, its reload and a row read off each graph are freed
    by reference counting alone: nothing the build holds refers back to it."""
    gc.collect()
    gc.disable()
    try:
        build = build_H(FOUR_COPIES, PAPER)
        back = serialize.hbuild_from_doc(json.loads(serialize.hbuild_text(build)))
        rows = build.graph.adj[0], back.graph.adj[back.hprime_n], list(back.graph.adj)[-1]
        del build, back, rows
        assert gc.collect() == 0
    finally:
        gc.enable()
