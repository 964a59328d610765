import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naewidth import wgraph
from naewidth.errors import BudgetExceededError, CapExceededError, ValidationError
from naewidth.formula import brute_force_nae, parse_nae_dimacs
from naewidth.red1 import SMALL, build_H, witness_order
from naewidth.tree import Tree, path
from naewidth.wgraph import (
    _PROPAGATION_DEGREE_CAP,
    ROLES,
    WeightedGraph,
    check_balancing_order,
    check_balancing_tree,
    enumerate_balancing_orders,
    solve_balancing_order,
)

from conftest import (NON_BIJECTIVE_PLACEMENTS, SIMPLE_FAULTS, ReferenceGraph,
                      enumerate_labeled_trees, naive_balancing_orders, path_graph,
                      random_weighted_graph, reference_alive, reference_balancing_orders,
                      reference_check_balancing_order, reference_of, scale_weights,
                      sequence_fixture, set_row, simple_verdict, solve_balancing_tree, star_graph)


def triangle(w):
    g = WeightedGraph()
    for i in range(3):
        g.add_vertex(str(i))
    g.add_edge(0, 1, w)
    g.add_edge(1, 2, w)
    g.add_edge(0, 2, w)
    return g


def test_vertex_weight():
    g = WeightedGraph()
    a, b, c, d = (g.add_vertex(x) for x in "abcd")
    g.add_edge(a, b, 5)
    g.add_edge(a, c, 7)
    assert g.vertex_weight(a) == 12
    assert g.vertex_weight(d) == 0
    with pytest.raises(ValidationError):
        g.vertex_weight(9)


def test_check_single_edge():
    g = path_graph([5])
    assert check_balancing_order(g, [0, 1], 5) == (True, None)
    assert check_balancing_order(g, [1, 0], 5) == (True, None)
    assert check_balancing_order(g, [0, 1], 4) == (False, 0)


def test_check_p3_violator():
    # weights (tau, gamma+1) with b placed first: right weight tau+gamma+1
    c = SMALL
    g = path_graph([c.tau, c.gamma + 1])
    ok, violator = check_balancing_order(g, [1, 0, 2], c.tau + c.gamma)
    assert not ok and violator == 1


def test_solve_triangle_all_weights_t():
    g = triangle(5)
    assert solve_balancing_order(g, 5) is None
    assert solve_balancing_order(g, 10) is not None


def test_solve_p3_middle():
    # both edges fit but their sum does not: b must sit in the middle
    g = path_graph([4, 3])
    t = 5
    expected = [o for o in map(list, itertools.permutations(range(3)))
                if check_balancing_order(g, o, t)[0]]
    assert expected
    assert all(o.index(1) == 1 for o in expected)
    got = solve_balancing_order(g, t)
    assert got in expected


def test_solver_budget_is_not_no_solution():
    g = triangle(5)
    with pytest.raises(BudgetExceededError):
        solve_balancing_order(g, 10, budget=1)


def test_enumeration_matches_naive_small(rng):
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_weighted_graph(rng, n, p=0.5, max_w=6)
        t = rng.randint(1, 12)
        pruned = sorted(map(tuple, enumerate_balancing_orders(g, t)))
        naive = sorted(map(tuple, naive_balancing_orders(g, t)))
        assert pruned == naive


def test_solver_agrees_with_naive_on_8_vertices(rng):
    for _ in range(3):
        g = random_weighted_graph(rng, 8, p=0.35, max_w=4)
        t = rng.randint(3, 10)
        witness = solve_balancing_order(g, t)
        naive_exists = any(True for _ in naive_balancing_orders(g, t))
        assert (witness is not None) == naive_exists
        if witness is not None:
            assert check_balancing_order(g, witness, t) == (True, None)


def test_restriction_to_induced_subgraph(rng):
    # a t-balancing order stays t-balancing on any induced subgraph
    for _ in range(20):
        g = random_weighted_graph(rng, rng.randint(3, 7), p=0.6, max_w=4)
        t = rng.randint(2, 10)
        order = solve_balancing_order(g, t)
        if order is None:
            continue
        keep = [v for v in g.vertex_ids() if rng.random() < 0.6]
        if not keep:
            continue
        new_id = {v: i for i, v in enumerate(keep)}
        sub = WeightedGraph()
        for v in keep:
            sub.add_vertex(g.labels[v])
        for u, v, w in g.edges():
            if u in new_id and v in new_id:
                sub.add_edge(new_id[u], new_id[v], w)
        sub_order = [new_id[v] for v in order if v in new_id]
        assert check_balancing_order(sub, sub_order, t) == (True, None)


def test_heavy_p3_is_surrounded(rng):
    # in every t-balancing order, the middle of an overweight P3 is surrounded
    for _ in range(15):
        g = random_weighted_graph(rng, rng.randint(3, 6), p=0.7, max_w=5)
        t = rng.randint(3, 9)
        heavy = []
        for b in g.vertex_ids():
            nbrs = g.adj[b]
            for (a, w1), (c, w2) in itertools.combinations(nbrs, 2):
                if w1 + w2 > t:
                    heavy.append((a, b, c))
        for order in naive_balancing_orders(g, t):
            pos = {v: i for i, v in enumerate(order)}
            for a, b, c in heavy:
                assert min(pos[a], pos[c]) < pos[b] < max(pos[a], pos[c])


def test_path_tree_carries_order(rng):
    for _ in range(15):
        g = random_weighted_graph(rng, rng.randint(2, 6), p=0.6, max_w=4)
        t = rng.randint(2, 10)
        order = solve_balancing_order(g, t)
        if order is None:
            continue
        bt = path(order)
        assert check_balancing_tree(g, bt, t) == (True, None)


def test_tree_check_star_violation():
    g = path_graph([6])  # one edge of weight t+1
    bt = path([0, 1])
    ok, info = check_balancing_tree(g, bt, 5)
    assert not ok and info[0] in (0, 1)


def test_tree_check_huge_threshold(rng):
    g = random_weighted_graph(rng, 5, p=0.7, max_w=5)
    total = g.total_weight()
    for adj in itertools.islice(enumerate_labeled_trees(list(g.vertex_ids())), 10):
        bt = Tree(adj, {v: v for v in g.vertex_ids()})
        assert check_balancing_tree(g, bt, total) == (True, None)


@pytest.mark.parametrize("case", NON_BIJECTIVE_PLACEMENTS)
def test_tree_check_refuses_a_non_bijective_placement(case):
    tree_adj, placement = NON_BIJECTIVE_PLACEMENTS[case]
    with pytest.raises(ValidationError, match="bijection|cover"):
        check_balancing_tree(path_graph([1, 1]), Tree(tree_adj, placement), 5)


def test_tree_solver_triangle_absent():
    assert solve_balancing_tree(triangle(5), 5) is None


def test_tree_solver_succeeds_when_order_does(rng):
    for _ in range(10):
        g = random_weighted_graph(rng, rng.randint(2, 5), p=0.6, max_w=4)
        t = rng.randint(2, 10)
        if solve_balancing_order(g, t) is not None:
            assert solve_balancing_tree(g, t) is not None


def test_four_star_tree_beats_order():
    # K_{1,4} with all edge weights w: at t in [w, 2w-1] a star tree balances
    # but no order does (joint enumeration confirms the separation).
    w = 2
    g = star_graph([w] * 4)
    for t in range(w, 2 * w):
        assert naive_balancing_orders(g, t) == []
        bt = solve_balancing_tree(g, t)
        assert bt is not None
        assert check_balancing_tree(g, bt, t) == (True, None)
    # sanity: at t = 2w a balanced 2/2 split order exists after all
    assert naive_balancing_orders(g, 2 * w) != []


def test_tree_solver_cap():
    g = WeightedGraph()
    for i in range(9):
        g.add_vertex(str(i))
    with pytest.raises(CapExceededError):
        solve_balancing_tree(g, 1, cap=8)


def test_scale_weights_preserves_balancing(rng):
    for _ in range(10):
        g = random_weighted_graph(rng, rng.randint(2, 6), p=0.6, max_w=4)
        t = rng.randint(2, 10)
        scaled = scale_weights(g, 3)
        assert scaled.labels == g.labels
        assert sorted(scaled.edges()) == sorted((u, v, 3 * w) for u, v, w in g.edges())
        order = solve_balancing_order(g, t)
        if order is not None:
            assert check_balancing_order(scaled, order, 3 * t) == (True, None)
        assert (solve_balancing_order(g, t) is None) == (
            solve_balancing_order(scaled, 3 * t) is None)


@pytest.mark.parametrize("fault, message", SIMPLE_FAULTS)
def test_check_simple_refuses_each_fault(fault, message):
    g = path_graph([2, 3])
    g.check_simple()
    fault(g)
    with pytest.raises(ValidationError, match=message):
        g.check_simple()


@pytest.mark.parametrize("fault, message", SIMPLE_FAULTS)
def test_check_simple_names_the_fault_the_reference_names(fault, message):
    """On each fault the flat lists and the list-of-tuples reference refuse
    with the same message."""
    g = path_graph([2, 3])
    ref = reference_of(g)
    fault(g)
    fault(ref)
    assert message in simple_verdict(g)
    assert simple_verdict(g) == simple_verdict(ref)


@pytest.mark.parametrize("fault", [
    lambda g: g.start.__setitem__(0, 1),
    lambda g: g.start.__setitem__(1, 4),
    lambda g: g.start.pop(),
    lambda g: g.nbr.append(0),
    lambda g: g.wt.pop(),
    lambda g: g.labels.pop(),
    lambda g: g.roles.append("plain"),
], ids=["start-0", "descending", "short-start", "long-nbr", "short-wt", "labels", "roles"])
def test_check_simple_refuses_offsets_that_do_not_bound_the_lists(fault):
    g = path_graph([2, 3])
    fault(g)
    with pytest.raises(ValidationError, match="offsets"):
        g.check_simple()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flat_lists_agree_with_the_reference_graph(data):
    """The same add_vertex and add_edge calls on WeightedGraph and on the
    list-of-tuples ReferenceGraph give the same edges, rows, vertex weights
    and edge count; from_edges lays out the same lists from the edges in any
    order; check_simple refuses the same rows replaced at random with the same
    message; and check_balancing_order gives the same verdict and violator on
    random orders and thresholds."""
    n = data.draw(st.integers(0, 9))
    g, ref = WeightedGraph(), ReferenceGraph()
    for i in range(n):
        role = data.draw(st.sampled_from(ROLES))
        assert g.add_vertex(f"v{i}", role) == ref.add_vertex(f"v{i}", role)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for u, v in edges:
        w = data.draw(st.integers(1, 6))
        u, v = data.draw(st.permutations((u, v)))
        g.add_edge(u, v, w)
        ref.add_edge(u, v, w)
    assert list(g.edges()) == list(ref.edges())
    assert [list(row) for row in g.adj] == ref.adj
    assert [g.vertex_weight(u) for u in g.vertex_ids()] == [
        ref.vertex_weight(u) for u in ref.vertex_ids()]
    assert g.num_edges() == ref.num_edges()
    batch = WeightedGraph.from_edges(g.labels, g.roles, data.draw(st.permutations(
        [(v, u, w) for u, v, w in g.edges()])))
    assert (batch.labels, batch.roles, batch.start, batch.nbr, batch.wt) == (
        g.labels, g.roles, g.start, g.nbr, g.wt)
    for _ in range(3):
        order = data.draw(st.permutations(range(n)))
        t = data.draw(st.integers(-1, 20))
        assert check_balancing_order(g, order, t) == reference_check_balancing_order(ref, order, t)
    assert simple_verdict(g) is simple_verdict(ref) is None
    for u in data.draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []:
        row = data.draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, 6)), max_size=4))
        set_row(g, u, row)
        set_row(ref, u, row)
    assert simple_verdict(g) == simple_verdict(ref)


def test_witness_order_and_its_adjacent_swaps_agree_with_the_reference():
    """check_balancing_order gives the reference's verdict and violator on the
    witness order of the four-copies H at small, and on 200 seeded adjacent
    swaps of it, at tau and at tau + gamma."""
    f = parse_nae_dimacs("p cnf 3 4\n" + "1 2 3 0\n" * 4)
    build = build_H(f, SMALL)
    ref = reference_of(build.graph)
    order = witness_order(f, build, brute_force_nae(f))
    rng = random.Random(20240831)
    orders = [order]
    for _ in range(200):
        i = rng.randrange(len(order) - 1)
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        orders.append(swapped)
    verdicts = set()
    for o in orders:
        for t in (SMALL.tau, SMALL.tau + SMALL.gamma):
            got = check_balancing_order(build.graph, o, t)
            assert got == reference_check_balancing_order(ref, o, t)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_labeled_tree_enumeration_counts():
    for n in range(1, 7):
        count = sum(1 for _ in enumerate_labeled_trees(list(range(n))))
        assert count == (1 if n <= 2 else n ** (n - 2))


def test_disconnected_graph_is_solvable():
    # components may interleave freely; disconnected inputs are valid
    g = WeightedGraph()
    for i in range(4):
        g.add_vertex(str(i))
    g.add_edge(0, 1, 3)
    g.add_edge(2, 3, 3)
    order = solve_balancing_order(g, 3)
    assert order is not None
    assert check_balancing_order(g, order, 3) == (True, None)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_enumeration_exactness_property(n, t, hyp_rng):
    """The search yields exactly the t-balancing orders in lexicographic
    order, as the permutation scan lists them, and the solver answers with
    the first."""
    seed = hyp_rng.randint(0, 10 ** 9)
    g = random_weighted_graph(random.Random(seed), n, p=0.5, max_w=5)
    naive = naive_balancing_orders(g, t)
    assert enumerate_balancing_orders(g, t) == naive
    assert solve_balancing_order(g, t) == (naive[0] if naive else None)


def test_dead_sets_change_no_order(rng, monkeypatch):
    """With no room, or room for one, for dead and live sets the search
    yields the same orders."""
    cases = [(random_weighted_graph(rng, rng.randint(2, 7), p=0.5, max_w=5), rng.randint(1, 10))
             for _ in range(30)]
    remembered = [enumerate_balancing_orders(g, t) for g, t in cases]
    for cap in (0, 1):
        monkeypatch.setattr(wgraph, "DEAD_SET_CAP", cap)
        assert [enumerate_balancing_orders(g, t) for g, t in cases] == remembered
        assert [solve_balancing_order(g, t) for g, t in cases] == [
            orders[0] if orders else None for orders in remembered]


def test_live_sets_change_no_order_or_placement(rng, monkeypatch):
    """The search that remembers live sets yields the reference search's
    orders after the same placements, on the bottleneck sequence at
    tau + gamma (120 orders) and on 30 seeded random graphs, and asks _alive
    about each prefix set at most once."""
    stats, asked = {"place": 0}, []
    alive, search = wgraph._alive, wgraph.prefix_orders

    def counted_alive(adj, committed, t, mask):
        asked.append(mask)
        return alive(adj, committed, t, mask)

    def counted_search(n, place, take_back, budget):
        def counted_place(v, mask):
            stats["place"] += 1
            return place(v, mask)
        return search(n, counted_place, take_back, budget)

    monkeypatch.setattr(wgraph, "_alive", counted_alive)
    monkeypatch.setattr(wgraph, "prefix_orders", counted_search)
    sequence, _ = sequence_fixture()
    cases = [(sequence, SMALL.tau + SMALL.gamma, 120)] + [
        (random_weighted_graph(rng, rng.randint(2, 7), p=0.5, max_w=5), rng.randint(1, 10), None)
        for _ in range(30)]
    for i, (g, t, limit) in enumerate(cases):
        stats["place"], asked[:], reference = 0, [], {"place": 0}
        orders = enumerate_balancing_orders(g, t, limit=limit)
        assert orders == list(itertools.islice(reference_balancing_orders(g, t, reference), limit))
        assert stats["place"] == reference["place"]
        assert len(asked) == len(set(asked))
        if i == 0:
            assert len(orders) == 120 and len(asked) == 134


def test_alive_agrees_with_the_reference(rng):
    """_alive gives reference_alive's answer on random prefix masks of small
    graphs, on stars whose centre has 12 free neighbours, which are split, or
    13, which are not, and on a set that only Kahn's pass refutes."""
    cases = []
    for _ in range(200):
        g = random_weighted_graph(rng, rng.randint(1, 9), p=rng.choice((0.3, 0.6, 0.9)), max_w=5)
        cases.append((g, rng.getrandbits(g.n) & rng.getrandbits(g.n), rng.randint(0, 12)))
    for leaves in (_PROPAGATION_DEGREE_CAP, _PROPAGATION_DEGREE_CAP + 1):
        for _ in range(20):
            g = star_graph([rng.randint(1, 3) for _ in range(leaves)])
            for x, w in [(rng.randint(1, leaves), 1) for _ in range(3)]:
                extra = g.add_vertex(f"x{x}")
                g.add_edge(x, extra, w)
            mask = sum(1 << v for v in range(leaves + 1, g.n) if rng.random() < 0.5)
            cases.append((g, mask, rng.randint(leaves // 2, leaves)))
    for g, mask, t in cases:
        adj = list(g.adj)
        committed = [sum(w for x, w in adj[u] if mask >> x & 1) for u in range(g.n)]
        assert wgraph._alive(adj, committed, t, mask) == reference_alive(adj, committed, t, mask)
    unit = [list(star_graph([1] * leaves).adj)
            for leaves in (_PROPAGATION_DEGREE_CAP, _PROPAGATION_DEGREE_CAP + 1)]
    t = _PROPAGATION_DEGREE_CAP // 2 - 1  # the centre cannot split 12 unit edges
    assert [wgraph._alive(adj, [0] * len(adj), t, 0) for adj in unit] == [False, True]
    assert [reference_alive(adj, [0] * len(adj), t, 0) for adj in unit] == [False, True]
    # with p placed at t = 2, y puts u before and x after it, x then puts u
    # after it, and the arcs u < y < x < u close a cycle no side weight shows
    p, u, x, y = range(4)
    cycle = list(WeightedGraph.from_edges("puxy", ["plain"] * 4,
                                          [(p, y, 1), (u, x, 1), (u, y, 1), (x, y, 2)]).adj)
    assert wgraph._alive(cycle, [0, 0, 0, 1], 2, 1 << p) is reference_alive(
        cycle, [0, 0, 0, 1], 2, 1 << p) is False
