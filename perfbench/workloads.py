"""The benchmark's four workloads.

Each workload has ``prepare(seed, workdir, reference)``, which makes its
inputs and references from the seed, and ``run_pass(inputs, p, tmp)``, which
makes one pass over them.  Every call into a public function of the library
is one timed operation of ``p`` (a ``harness.Pass``), followed by a check
against a reference the benchmark computes without the code under test.
Under a tracer the same operation calls the same public steps one at a time
inside spans, with the arguments the untraced entry point would pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

from naewidth import cli, formula as fm, matchings, red1, red2, red3, serialize, wgraph, widths
from naewidth.wgraph import WeightedGraph

from harness import CountingOracle, balancing_violation, dummy_edge_closed_form, nae_satisfies

FOUR_COPIES = "p cnf 3 4\n" + "1 2 3 0\n" * 4

# The 7 lines of the Fano plane admit no NAE assignment; the padding clauses
# share no variable with them and raise the brute force to 2^18 assignments.
FANO_PADDED = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
               (8, 9, 10), (11, 12, 13), (14, 15, 16), (16, 17, 18))
FANO_VARS = 18
# Seeded renamings of the padded instance solved per pass: the brute force
# scans every assignment whatever the names, so each costs the same.
FANO_RENAMINGS = 4

GADGET_THRESHOLD = 8
GADGET_BOUND = 7
PATH_MAPPING_SLACK = 50
SEQUENCE_ORDER_LIMIT = 120
SEQUENCE_MIN_ORDERS = 100


@dataclass
class Formula:
    label: str
    formula: fm.NaeFormula
    assignment: tuple
    cnf: str          # path of its DIMACS file


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_text(path):
    with open(path) as fh:
        return fh.read()


def _run_cli(argv):
    """cli.run with stdout captured: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _formulas(name, seed, sizes, workdir):
    """Certified-satisfiable strict formulas, n=3 being the four-copies one."""
    out = []
    for n in sizes:
        rng = random.Random(f"{name}/{seed}/{n}")
        f = fm.parse_nae_dimacs(FOUR_COPIES) if n == 3 else fm.random_strict_formula(n, rng)
        assignment = fm.brute_force_nae(f)
        while assignment is None:
            f = fm.random_strict_formula(n, rng)
            assignment = fm.brute_force_nae(f)
        if not nae_satisfies(f.clauses, assignment):
            raise RuntimeError(f"certificate for n={n} does not NAE-satisfy its formula")
        path = os.path.join(workdir, f"{name}-n{n}.cnf")
        with open(path, "w") as fh:
            fh.write(fm.emit_nae_dimacs(f))
        out.append(Formula(f"n{n}", f, assignment, path))
    return out


def _expected_hashes(name, seed, reference, formulas, steps):
    """sha256 per formula and step for the default seed; other seeds have
    no recorded bytes."""
    if seed != reference["default_seed"]:
        return {f.label: {} for f in formulas}
    recorded = reference["sha256"][name]
    return {f.label: {step: recorded[f.label][step] for step in steps} for f in formulas}


def _warm_up_reduce(workdir):
    path = os.path.join(workdir, "warm.cnf")
    with open(path, "w") as fh:
        fh.write(FOUR_COPIES)
    code = cli.run(["reduce", "step1", "--profile", "small", "-i", path,
                    "-o", os.path.join(workdir, "warm.step1.json")])
    if code != 0:
        raise RuntimeError(f"warm-up reduce exited {code}")


# -- traced decompositions of the public entry points ------------------------

def _traced_call(tr, name, fn, *args, **kwargs):
    with tr.span(name):
        return fn(*args, **kwargs)


def _write_traced(tr, path, doc):
    with tr.span("serialize.canonical_json"):
        text = serialize.canonical_json(doc)
    with tr.span("cli.write"):
        with open(path, "w") as fh:
            fh.write(text)


def _build_H_traced(tr, f, c):
    text = _read_text(f.cnf)
    with tr.span("formula.parse"):
        formula = fm.parse_nae_dimacs(text)
    with tr.span("red1.build_H"):
        build = red1.build_H(formula, c)
    tr.count("red1.H_vertices", build.graph.n)
    tr.count("red1.H_edges", build.graph.num_edges())
    with tr.span("serialize.hbuild_doc"):
        h_doc = serialize.hbuild_doc(build)
    return build, h_doc


def _reduce_all_traced(tr, f, prefix):
    """The steps of `naewidth reduce all --profile small`, in its order."""
    c = red1.SMALL
    with tr.span("cli.run"):
        build, h_doc = _build_H_traced(tr, f, c)
        with tr.span("red2.layout"):
            build.graph.check_simple()
            gs = red2.PartitionedGraph(build.graph)
        with tr.span("red2.validate"):
            gs.validate()
        tr.count("red2.G_vertices", gs.n)
        with tr.span("serialize.partitioned_doc"):
            gs_doc = serialize.partitioned_doc(gs, base_meta=h_doc.get("meta"))
        with tr.span("red3.ensure_divisible"):
            gs3, scale = red3.ensure_divisible(gs, c)
        with tr.span("red3.build_gstar"):
            star = red3.build_Gstar(gs3, c)
        tr.count("red3.gstar_vertices", star.n)
        with tr.span("serialize.gstar_doc"):
            star_doc = serialize.gstar_doc(star, base_meta=h_doc.get("meta"), weight_scale=scale)
        for suffix, doc in (("step1", h_doc), ("step2", gs_doc), ("step3", star_doc)):
            _write_traced(tr, f"{prefix}.{suffix}.json", doc)
    return cli.EXIT_OK


def _reduce_step1_traced(tr, f, path):
    """The steps of `naewidth reduce step1 --profile paper`."""
    with tr.span("cli.run"):
        _, h_doc = _build_H_traced(tr, f, red1.PAPER)
        _write_traced(tr, path, h_doc)
    return cli.EXIT_OK


def _decode_traced(tr, path):
    text = _read_text(path)
    with tr.span("serialize.json_decode"):
        return json.loads(text)


def _hbuild_load_traced(tr, path):
    doc = _decode_traced(tr, path)
    with tr.span("serialize.hbuild_load"):
        return serialize.hbuild_from_doc(doc)


def _reload_plain(paths):
    build = serialize.hbuild_from_doc(_load_json(paths[0]))
    gs = serialize.partitioned_from_doc(_load_json(paths[1]))
    star = serialize.gstar_from_doc(_load_json(paths[2]))
    return build, gs, star.n


def _reload_traced(tr, paths):
    build = _hbuild_load_traced(tr, paths[0])
    doc = _decode_traced(tr, paths[1])
    with tr.span("serialize.partitioned_load"):
        gs = serialize.partitioned_from_doc(doc)
    doc = _decode_traced(tr, paths[2])
    with tr.span("serialize.gstar_load"):
        star = serialize.gstar_from_doc(doc)
    return build, gs, star.n


def _witness_plain(f, build, t):
    order = red1.witness_order(f.formula, build, f.assignment)
    ok, _ = wgraph.check_balancing_order(build.graph, order, t)
    return order, ok, red1.decode_assignment(f.formula, build, order)


def _witness_traced(tr, f, build, t):
    with tr.span("red1.witness_order"):
        order = red1.witness_order(f.formula, build, f.assignment)
    with tr.span("wgraph.check_order"):
        ok, _ = wgraph.check_balancing_order(build.graph, order, t)
    with tr.span("red1.decode"):
        decoded = red1.decode_assignment(f.formula, build, order)
    return order, ok, decoded


def _cut_value_traced(tr, adjacent, side_a, side_b, kind, threshold=None):
    """red2.cut_value, step by step: candidates, compatibility, clique."""
    in_a, in_b = {"mim": (False, False), "sim": (True, True)}[kind]
    side_a, side_b = sorted(set(side_a)), sorted(set(side_b))
    oracle = CountingOracle(adjacent)
    with tr.span("red2.cut_value"):
        with tr.span("matchings.cut_edges"):
            candidates = matchings.cut_edges(oracle, side_a, side_b)
        if threshold is not None and threshold <= 0:
            result = 0, not candidates
        else:
            with tr.span("matchings.compat"):
                masks = matchings.compatibility_masks(oracle, candidates, in_a, in_b)
            stats = {}
            with tr.span("matchings.clique"):
                result = matchings.max_clique(masks, threshold=threshold, stats=stats)
            tr.count("matchings.compat_edges", sum(bin(m).count("1") for m in masks) // 2)
            tr.count("matchings.bb_nodes", stats.get("nodes", 0))
    tr.count("red2.cuts_evaluated")
    tr.count("matchings.pairs_scanned", len(side_a) * len(side_b))
    tr.count("matchings.candidates", len(candidates))
    tr.count("matchings.oracle_calls", oracle.calls)
    return result


def _mapping_value_traced(tr, gs, mapping, kind, threshold=None):
    """red2.mapping_value with each cut value traced."""
    with tr.span("red2.mapping_value"):
        best, exact = 0, True
        for edge in mapping.edges():
            side_a, side_b = red2.mapping_cut(gs, mapping, edge)
            value, is_exact = _cut_value_traced(tr, gs.adjacent, side_a, side_b, kind, threshold)
            best = max(best, value)
            exact = exact and is_exact
            if threshold is not None and best >= threshold:
                return best, False
        return best, exact


def _hybrid_sim_values_traced(tr, ht, star):
    with tr.span("red3.hybrid_sim_values"):
        out = {}
        for edge in ht.edges():
            side_a, side_b = red3.hybrid_cut_sides(ht, star, edge)
            out[edge] = _cut_value_traced(tr, star.adjacent, side_a, side_b, "sim")[0]
        return out


# -- reduce-small --------------------------------------------------------------

@dataclass
class ReduceInputs:
    formulas: list
    expected: dict    # formula label -> {step: sha256}


def reduce_small_prepare(seed, workdir, reference):
    formulas = _formulas("reduce-small", seed, (6, 12), workdir)
    _warm_up_reduce(workdir)
    return ReduceInputs(formulas, _expected_hashes("reduce-small", seed, reference, formulas,
                                                   ("step1", "step2")))


def _documents(p, label, paths, code, expected):
    """Record the written documents' bytes and compare recorded hashes."""
    if code != cli.EXIT_OK:
        return f"exit code {code}"
    hashes = {}
    for step, path in paths.items():
        with open(path, "rb") as fh:
            data = fh.read()
        p.artifact_bytes += len(data)
        if p.tracer is not None:
            p.tracer.count(f"serialize.bytes_{step}", len(data))
        hashes[step] = _sha256(data)
    p.answer(label, hashes)
    for step, want in expected.items():
        if hashes[step] != want:
            return f"{step} sha256 {hashes[step]} != recorded {want}"
    return ""


def _saturation(build):
    """All but two H-vertices reach tau + gamma + 1; those two weigh tau."""
    c = build.constants
    low = [v for v in build.graph.vertex_ids()
           if sum(w for _, w in build.graph.adj[v]) < c.tau + c.gamma + 1]
    weights = [sum(w for _, w in build.graph.adj[v]) for v in low]
    return "" if weights == [c.tau, c.tau] else f"low-weight vertices {low} weigh {weights}"


def _witness_ops(p, f, build, edges, t):
    label = f.label + "/witness"
    got = p.op("witness", label, lambda: _witness_plain(f, build, t),
               lambda tr: _witness_traced(tr, f, build, t))

    def check():
        order, ok, decoded = got
        p.answer(label, (_sha256(json.dumps(order).encode()), decoded))
        if not ok:
            return "check_balancing_order rejected the witness order"
        bad = balancing_violation(build.graph.n, edges, order, t)
        if bad:
            return bad
        if decoded != f.assignment or not nae_satisfies(f.formula.clauses, decoded):
            return f"decoded {decoded} != certified {f.assignment}"
        return ""

    p.verify(label, check)


def reduce_small_pass(inp, p, tmp):
    c = red1.SMALL
    for f in inp.formulas:
        prefix = os.path.join(tmp, f.label)
        paths = {step: f"{prefix}.{step}.json" for step in ("step1", "step2", "step3")}
        label = f.label + "/reduce"
        code = p.op("reduce", label,
                    lambda: cli.run(["reduce", "all", "--profile", "small",
                                     "-i", f.cnf, "-o", prefix]),
                    lambda tr: _reduce_all_traced(tr, f, prefix))
        p.verify(label, lambda: _documents(p, label, paths, code, inp.expected[f.label]))

        label = f.label + "/reload"
        loaded = p.op("reload", label, lambda: _reload_plain(list(paths.values())),
                      lambda tr: _reload_traced(tr, list(paths.values())))
        build, gs, star_n = loaded or (None, None, None)
        edges = list(build.graph.edges()) if build else []

        def check_reload():
            total = sum(w for _, _, w in edges)
            if gs.n != 2 * total:
                return f"|V(G)| = {gs.n} != 2·W(H) = {2 * total}"
            if star_n != 2 * c.a * c.b * gs.n:
                return f"|V(G*)| = {star_n} != 2·a·b·|V(G)| = {2 * c.a * c.b * gs.n}"
            p.answer(label, (build.graph.n, gs.n, star_n))
            return _saturation(build)

        p.verify(label, check_reload)
        _witness_ops(p, f, build, edges, c.tau)

        label = f.label + "/dummy-edges"
        count = p.op("query", label, lambda: gs.num_dummy_edges(),
                     lambda tr: _traced_call(tr, "red2.num_dummy_edges", gs.num_dummy_edges))
        want = dummy_edge_closed_form(edges)
        p.answer(label, count)
        p.verify(label, lambda: "" if count == want else f"{count} != closed form {want}")


# -- step1-paper -----------------------------------------------------------------

@dataclass
class Step1Inputs:
    formulas: list
    expected: dict
    fano_cnfs: list


def step1_paper_prepare(seed, workdir, reference):
    formulas = _formulas("step1-paper", seed, (3, 6, 12), workdir)
    rng = random.Random(f"step1-paper/{seed}/fano")
    fano_cnfs = []
    for i in range(FANO_RENAMINGS):
        names = list(range(1, FANO_VARS + 1))
        rng.shuffle(names)
        clauses = tuple(tuple(names[v - 1] for v in clause) for clause in FANO_PADDED)
        path = os.path.join(workdir, f"fano-padded-{i}.cnf")
        with open(path, "w") as fh:
            fh.write(fm.emit_nae_dimacs(fm.NaeFormula(FANO_VARS, clauses)))
        fano_cnfs.append(path)
    _warm_up_reduce(workdir)
    return Step1Inputs(formulas, _expected_hashes("step1-paper", seed, reference, formulas,
                                                  ("step1",)), fano_cnfs)


def _nae_solve_traced(tr, path):
    """The steps of `naewidth nae solve --lax`."""
    with tr.span("cli.run"):
        text = _read_text(path)
        with tr.span("formula.parse"):
            f = fm.parse_nae_dimacs(text, strict=False)
        with tr.span("formula.brute_force"):
            assignment = fm.brute_force_nae(f)
        # Assignments are scanned in lexicographic order, so the count
        # follows from the answer.
        scanned = 2 ** f.num_vars if assignment is None else \
            int("".join("1" if b else "0" for b in assignment), 2) + 1
        tr.count("formula.assignments_scanned", scanned)
        if assignment is None:
            return cli.EXIT_NO, json.dumps({"satisfiable": False}, sort_keys=True) + "\n"
        letters = "".join("T" if b else "F" for b in assignment)
        return cli.EXIT_OK, json.dumps({"satisfiable": True, "assignment": letters},
                                       sort_keys=True) + "\n"


def step1_paper_pass(inp, p, tmp):
    c = red1.PAPER
    for f in inp.formulas:
        path = os.path.join(tmp, f.label + ".step1.json")
        label = f.label + "/reduce"
        code = p.op("reduce", label,
                    lambda: cli.run(["reduce", "step1", "--profile", "paper",
                                     "-i", f.cnf, "-o", path]),
                    lambda tr: _reduce_step1_traced(tr, f, path))
        p.verify(label, lambda: _documents(p, label, {"step1": path}, code,
                                           inp.expected[f.label]))

        label = f.label + "/reload"
        build = p.op("reload", label, lambda: serialize.hbuild_from_doc(_load_json(path)),
                     lambda tr: _hbuild_load_traced(tr, path))
        edges = list(build.graph.edges()) if build else []

        def check_reload():
            p.answer(label, (build.graph.n, len(edges)))
            if build.num_vars != f.formula.num_vars or build.constants != c:
                return "reloaded build disagrees with its formula or profile"
            return _saturation(build)

        p.verify(label, check_reload)
        _witness_ops(p, f, build, edges, c.tau)

    for i, cnf in enumerate(inp.fano_cnfs):
        label = f"fano-{i}/nae-solve"
        got = p.op("query", label, lambda: _run_cli(["nae", "solve", "--lax", cnf]),
                   lambda tr: _nae_solve_traced(tr, cnf))
        p.answer(label, got)
        p.verify(label, lambda: "" if got[0] == cli.EXIT_NO and json.loads(got[1]) ==
                 {"satisfiable": False} else f"padded Fano instance answered {got}")


# -- cut-kernel ------------------------------------------------------------------

def path_graph(weights):
    g = WeightedGraph()
    for i in range(len(weights) + 1):
        g.add_vertex(f"p{i}")
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, w)
    return g


def star_graph(leaf_weights):
    g = WeightedGraph()
    g.add_vertex("center")
    for i, w in enumerate(leaf_weights):
        g.add_edge(0, g.add_vertex(f"leaf{i}"), w)
    return g


def _random_weighted_graph(rng, n, p, max_w):
    g = WeightedGraph()
    for i in range(n):
        g.add_vertex(f"v{i}")
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, rng.randint(1, max_w))
    return g


def _small_step2_graphs(rng):
    """The acceptance suite's small step-2 graphs; the two random ones come
    from the workload seed."""
    two_edges = WeightedGraph()
    for i in range(4):
        two_edges.add_vertex(str(i))
    two_edges.add_edge(0, 1, 2)
    two_edges.add_edge(2, 3, 2)
    out = [path_graph([3, 4, 2]), star_graph([2, 3, 2]), path_graph([5, 5]), two_edges]
    while len(out) < 6:
        cand = _random_weighted_graph(rng, 4, 0.8, 4)
        if 0 < cand.total_weight() <= 30:
            out.append(cand)
    return out


@dataclass
class Toy:
    name: str
    gs: object
    star: object
    hybrid: object    # caterpillar hybrid tree before grouping


@dataclass
class CutInputs:
    gadget: object
    toys: list
    step2: list       # (H, its partitioned graph)
    sequence: WeightedGraph
    terminals: tuple  # S1, S2, S3 of the sequence


def cut_kernel_prepare(seed, workdir, reference):
    c = red1.SMALL
    gadget = red3.build_gadget(red2.build_partitioned(star_graph([3, 3, 3])), 0, c)
    toys = []
    for name, weights in (("path3", [3]), ("path3-3", [3, 3])):
        gs = red2.build_partitioned(path_graph(weights))
        star = red3.build_Gstar(gs, c)
        layout = red3.caterpillar_layout(star, sorted(star.parts()))
        toys.append(Toy(name, gs, star, red3.hybrid_from_layout(layout)))
    step2 = [(h, red2.build_partitioned(h))
             for h in _small_step2_graphs(random.Random(f"cut-kernel/{seed}"))]
    seq = WeightedGraph()
    terminals = tuple(seq.add_vertex(name) for name in ("S1", "S2", "S3"))
    red1.build_bottleneck_sequence(seq, [(terminals[0], c.tau - c.lam)],
                                   [(terminals[1], c.tau - 2 * c.lam)],
                                   [(terminals[2], c.tau - c.lam)], c)
    red2.cut_value(gadget.adjacent, [0, 1], [2, 3], "mim")  # warm-up
    return CutInputs(gadget, toys, step2, seq, terminals)


def _sweep_plain(toy):
    before = red3.hybrid_sim_values(toy.hybrid, toy.star)
    grouped = red3.group_all(toy.star, toy.hybrid)
    after = red3.hybrid_sim_values(grouped, toy.star)
    mapping = red3.hybrid_to_tree_mapping(toy.star, grouped)
    projected = red3.project_mapping_to_G(toy.gs, mapping)
    return (max(before.values()), max(after.values()),
            red2.mapping_value(toy.star, mapping, "sim"),
            red2.mapping_value(toy.gs, projected, "sim"))


def _sweep_traced(tr, toy):
    before = _hybrid_sim_values_traced(tr, toy.hybrid, toy.star)
    grouped = _traced_call(tr, "red3.group_all", red3.group_all, toy.star, toy.hybrid)
    after = _hybrid_sim_values_traced(tr, grouped, toy.star)
    mapping = _traced_call(tr, "red3.to_mapping", red3.hybrid_to_tree_mapping, toy.star, grouped)
    projected = _traced_call(tr, "red3.project", red3.project_mapping_to_G, toy.gs, mapping)
    return (max(before.values()), max(after.values()),
            _mapping_value_traced(tr, toy.star, mapping, "sim"),
            _mapping_value_traced(tr, toy.gs, projected, "sim"))


def _solve_order_traced(tr, h, t):
    with tr.span("wgraph.solve_order"):
        order = wgraph.solve_balancing_order(h, t)
    tr.count("wgraph.orders_found", order is not None)
    return order


def _enumerate_orders(g, t):
    return wgraph.enumerate_balancing_orders(g, t, budget=10 ** 7, limit=SEQUENCE_ORDER_LIMIT)


def _enumerate_orders_traced(tr, g, t):
    with tr.span("wgraph.solve_order"):
        orders = _enumerate_orders(g, t)
    tr.count("wgraph.orders_found", len(orders))
    return orders


def cut_kernel_pass(inp, p, tmp):
    c = red1.SMALL
    gadget = inp.gadget
    verts = list(range(gadget.size))
    for split in range(1, gadget.size):
        label = f"gadget-cut/{split}"
        got = p.op("query", label,
                   lambda: red2.cut_value(gadget.adjacent, verts[:split], verts[split:],
                                          "mim", threshold=GADGET_THRESHOLD),
                   lambda tr: _cut_value_traced(tr, gadget.adjacent, verts[:split],
                                                verts[split:], "mim", GADGET_THRESHOLD))
        p.answer(label, got)
        p.verify(label, lambda: "" if got[1] and got[0] <= GADGET_BOUND
                 else f"caterpillar cut value {got} is not exact and <= {GADGET_BOUND}")

    for toy in inp.toys:
        label = f"sweep/{toy.name}"
        got = p.op("query", label, lambda: _sweep_plain(toy), lambda tr: _sweep_traced(tr, toy))
        p.answer(label, got)

        def check_sweep():
            before, after, (star_value, exact1), (g_value, exact2) = got
            if not (exact1 and exact2):
                return "mapping values are not exact"
            if not g_value <= star_value <= after <= before:
                return (f"expected projected {g_value} <= G* {star_value} <= grouped "
                        f"hybrid max {after} <= hybrid max {before}")
            return ""

        p.verify(label, check_sweep)

    for i, (h, gs) in enumerate(inp.step2):
        label = f"step2-{i}/solve-order"
        order = p.op("query", label, lambda: wgraph.solve_balancing_order(h, c.tau),
                     lambda tr: _solve_order_traced(tr, h, c.tau))
        p.answer(label, order)
        p.verify(label, lambda: "no order found" if order is None else
                 balancing_violation(h.n, list(h.edges()), order, c.tau))

        label = f"step2-{i}/path-mapping"
        bound = c.tau + PATH_MAPPING_SLACK
        got = p.op("query", label,
                   lambda: red2.mapping_value(gs, red2.path_mapping_from_order(gs, order),
                                              "mim", threshold=bound + 1),
                   lambda tr: _mapping_value_traced(
                       tr, gs, red2.path_mapping_from_order(gs, order), "mim", bound + 1))
        p.answer(label, got)
        p.verify(label, lambda: "" if got[1] and got[0] <= bound
                 else f"path-mapping value {got} is not exact and <= {bound}")

    label = "sequence/enumerate-orders"
    t = c.tau + c.gamma
    orders = p.op("query", label, lambda: _enumerate_orders(inp.sequence, t),
                  lambda tr: _enumerate_orders_traced(tr, inp.sequence, t))
    p.answer(label, orders)

    def check_orders():
        if len(orders) < SEQUENCE_MIN_ORDERS:
            return f"only {len(orders)} orders found"
        edges = list(inp.sequence.edges())
        s1, s2, s3 = inp.terminals
        for order in orders:
            pos = {v: i for i, v in enumerate(order)}
            if not (pos[s1] < pos[s2] < pos[s3] or pos[s3] < pos[s2] < pos[s1]):
                return f"terminals out of order in {order}"
            bad = balancing_violation(inp.sequence.n, edges, order, t)
            if bad:
                return bad
        return ""

    p.verify(label, check_orders)


# -- width-exact -------------------------------------------------------------------

# (vertex count, graphs per pass, general-layout kinds, linear-layout kinds)
WIDTH_GRAPHS = ((7, 6, ("sim", "omim", "mim"), ("mim",)),
                (8, 1, ("sim", "mim"), ("mim",)),
                (10, 2, (), ("sim", "mim")))
COMPLETE_SIZES = range(2, 9)


@dataclass
class WidthInputs:
    graphs: list      # (label, vertex count, adjacency sets, general kinds, linear kinds)


def width_exact_prepare(seed, workdir, reference):
    rng = random.Random(f"width-exact/{seed}")
    graphs = []
    for n, count, general, linear in WIDTH_GRAPHS:
        for i in range(count):
            adj = {v: set() for v in range(n)}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        adj[u].add(v)
                        adj[v].add(u)
            graphs.append((f"g{n}.{i}", n, adj, general, linear))
    for n in COMPLETE_SIZES:
        adj = {v: set(range(n)) - {v} for v in range(n)}
        graphs.append((f"K{n}", n, adj, ("mim",), ()))
    widths.exact_width(matchings.adjacency_from_sets(graphs[-1][2]), range(3), "mim")  # warm-up
    return WidthInputs(graphs)


def _exact_width_traced(tr, adjacent, n, kind, linear):
    oracle = CountingOracle(adjacent)
    stats = {"nodes": 0}
    with tr.span("widths.exact_width"):
        result = widths.exact_width(oracle, range(n), kind, linear=linear, stats=stats)
    tr.count("widths.bb_nodes", stats["nodes"])
    tr.count("matchings.bb_nodes", stats["nodes"])
    tr.count("matchings.oracle_calls", oracle.calls)
    if not linear:
        with tr.span("widths.tree_enum"):
            trees = sum(1 for _ in widths.enumerate_leaf_trees(n))
        tr.count("widths.trees", trees)
    return result


def width_exact_pass(inp, p, tmp):
    for name, n, adj, general, linear in inp.graphs:
        adjacent = matchings.adjacency_from_sets(adj)
        values = {}
        for kind, is_linear in [(k, False) for k in general] + [(k, True) for k in linear]:
            key = kind + ("-linear" if is_linear else "")
            label = f"{name}/{key}"
            got = p.op("query", label,
                       lambda: widths.exact_width(adjacent, range(n), kind, linear=is_linear),
                       lambda tr: _exact_width_traced(tr, adjacent, n, kind, is_linear))
            if got is not None:
                values[key] = got[0]
                p.answer(label, got[0])
        label = f"{name}/{key}"
        p.verify(label, lambda: _width_reference(name, values))


def _width_reference(name, values):
    """K_n has mim-width 1; sim <= omim <= mim <= linear mim per graph."""
    if name.startswith("K"):
        return "" if values["mim"] == 1 else f"{name} has mim-width {values['mim']}"
    chain = [values[k] for k in ("sim", "omim", "mim", "mim-linear") if k in values]
    if name.startswith("g10"):
        chain = [values["sim-linear"], values["mim-linear"]]
    return "" if chain == sorted(chain) else f"width chain {values} is not monotone"


WORKLOADS = {
    "reduce-small": (reduce_small_prepare, reduce_small_pass),
    "step1-paper": (step1_paper_prepare, step1_paper_pass),
    "cut-kernel": (cut_kernel_prepare, cut_kernel_pass),
    "width-exact": (width_exact_prepare, width_exact_pass),
}
