"""Command-line surface tying the pipeline together.

Exit codes: 0/1 carry decision answers, 2 is a usage error, 3 a validation
failure, 4 an exhausted search budget or a RecursionError or MemoryError
(diagnostic type "resource"), so no crash reads as a NO.  Witnesses and
reports go to stdout, diagnostics to stderr as JSON.  All outputs are
deterministic; --seed only affects the test-data generators.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import formula as fm
from . import matchings, red1, red2, red3, serialize, wgraph, widths
from .errors import BudgetExceededError, ValidationError

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4


def _diag(message, **extra):
    payload = {"error": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _count(token):
    if int(token) < 0:
        raise argparse.ArgumentTypeError(f"count {token} is negative")
    return int(token)


def _not_an_integer(token):
    raise ValueError(f"number {token} is not an integer")


def _load(path):
    """The JSON document at path; no document holds a float, NaN or Infinity."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_float=_not_an_integer, parse_constant=_not_an_integer)
    except (ValueError, RecursionError) as exc:  # also too deep, or too long an integer
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _parse_profile(spec: str) -> red1.Constants:
    if spec in red1.PROFILES:
        return red1.PROFILES[spec]
    if spec.startswith("custom:"):
        parts = spec[len("custom:"):].split(",")
        if len(parts) != 5:
            raise ValidationError("custom profile needs 5 integers: tau,gamma,lambda,a,b")
        try:
            tau, gamma, lam, a, b = (int(x) for x in parts)
        except ValueError:
            raise ValidationError(f"non-integer constant in profile {spec!r}")
        c = red1.Constants(tau=tau, gamma=gamma, lam=lam, a=a, b=b)
        red1.validate_constants(c)
        return c
    raise ValidationError(f"unknown profile {spec!r}")


def _read_formula(path, strict=True):
    with open(path, encoding="utf-8") as fh:
        return fm.parse_nae_dimacs(fh.read(), strict=strict)


def _assignment_from_string(s):
    mapping = {"T": True, "1": True, "F": False, "0": False}
    try:
        return tuple(mapping[ch] for ch in s.strip().upper())
    except KeyError:
        raise ValidationError(f"bad assignment string {s!r}; use T/F or 0/1 characters")


def _fmt_assignment(assignment):
    return "".join("T" if b else "F" for b in assignment)


# -- subcommand handlers -----------------------------------------------------

def _cmd_nae(args):
    if args.action == "gen":
        if args.sat_only and args.count:
            # fail before sampling: a large -n takes long to draw
            fm.check_brute_force_cap(args.num_vars)
        rng = random.Random(args.seed)
        made = 0
        tries = 0
        while made < args.count and tries < 100 * args.count + 100:
            tries += 1
            f = fm.random_strict_formula(args.num_vars, rng)
            if args.sat_only and fm.brute_force_nae(f) is None:
                continue
            sys.stdout.write(fm.emit_nae_dimacs(f))
            made += 1
        return EXIT_OK if made == args.count else EXIT_NO

    f = _read_formula(args.cnf, strict=not args.lax)
    if args.action == "check":
        print(json.dumps({"ok": True, "num_vars": f.num_vars,
                          "num_clauses": len(f.clauses)}, sort_keys=True))
        return EXIT_OK
    # --cap can lower the brute-force bound, never raise it
    assignment = fm.brute_force_nae(f, cap=min(args.cap, fm.BRUTE_FORCE_CAP))
    if assignment is None:
        print(json.dumps({"satisfiable": False}, sort_keys=True))
        return EXIT_NO
    print(json.dumps({"satisfiable": True,
                      "assignment": _fmt_assignment(assignment)}, sort_keys=True))
    return EXIT_OK


def _cmd_reduce(args):
    """One step on its input; `reduce all` runs each on the one before's
    output, and steps 2 and 3 reuse the step-1 text of H."""
    c = _parse_profile(args.profile)
    texts = {}
    base = meta = None
    if args.step in ("step1", "all"):
        build = red1.build_H(_read_formula(args.input), c)
        h = build.graph
        base = texts["step1"] = serialize.hbuild_text(build)
    elif args.step == "step2":
        doc = _load(args.input)
        h, meta = serialize.weighted_graph_from_doc(doc), doc.get("meta")
    if args.step in ("step2", "all"):
        gs = red2.PartitionedGraph(h)
        texts["step2"] = serialize.partitioned_text(gs, base_meta=meta, base=base)
    elif args.step == "step3":
        doc = _load(args.input)
        gs, meta = serialize.partitioned_from_doc(doc), doc["base"].get("meta")
        serialize.check_base_constants(meta, c)
    if args.step in ("step3", "all"):
        gs, scale = red3.ensure_divisible(gs, c)
        texts["step3"] = serialize.gstar_text(red3.build_Gstar(gs, c), base_meta=meta,
                                              weight_scale=scale, base=base)
    if args.step != "all":
        _write(args.output, texts[args.step])
        return EXIT_OK
    for step, text in texts.items():
        _write(f"{args.output or 'reduction'}.{step}.json", text)
    return EXIT_OK


def _step1_and_formula(args):
    """The step-1 build of -i and the --cnf formula, which must be the one
    the build encodes: the same variable count and clauses, in file order."""
    build = serialize.hbuild_from_doc(_load(args.input))
    f = _read_formula(args.cnf)
    if (f.num_vars != build.formula.num_vars or [tuple(sorted(c)) for c in f.clauses]
            != [tuple(sorted(c)) for c in build.formula.clauses]):
        raise ValidationError(f"{args.cnf} is not the formula the step-1 document encodes")
    return build, f


def _cmd_witness(args):
    if args.action == "order":
        build, f = _step1_and_formula(args)
        if args.assignment:
            assignment = _assignment_from_string(args.assignment)
        else:
            assignment = fm.brute_force_nae(f)
            if assignment is None:
                _diag("formula is not NAE-satisfiable; no witness order exists")
                return EXIT_NO
        order = red1.witness_order(f, build, assignment)
        ok, violator = wgraph.check_balancing_order(build.graph, order, build.constants.tau)
        if not ok:
            raise ValidationError(f"witness order is not {build.constants.tau}-balancing at "
                                  f"vertex {violator}")
        _write(args.output, serialize.canonical_json(serialize.order_doc(order)))
        return EXIT_OK
    if args.action == "decode":
        build, f = _step1_and_formula(args)
        order = serialize.order_from_doc(_load(args.order))
        assignment = red1.decode_assignment(f, build, order)
        print(json.dumps({"assignment": _fmt_assignment(assignment),
                          "nae_satisfies": fm.eval_nae(f, assignment)}, sort_keys=True))
        return EXIT_OK
    if args.action == "path-mapping":
        gs = serialize.partitioned_from_doc(_load(args.input))
        order = serialize.order_from_doc(_load(args.order))
        mapping = red2.path_mapping_from_order(gs, order)
        _write(args.output, serialize.canonical_json(serialize.tree_mapping_doc(mapping)))
        return EXIT_OK
    star = serialize.gstar_from_doc(_load(args.input))  # action == caterpillar
    order = serialize.order_from_doc(_load(args.order))
    layout = red3.caterpillar_layout(star, order)
    _write(args.output, serialize.canonical_json(serialize.tree_layout_doc(layout)))
    return EXIT_OK


def _cmd_balance(args):
    g = serialize.weighted_graph_from_doc(_load(args.input))
    if args.action == "check":
        order = serialize.order_from_doc(_load(args.order))
        ok, violator = wgraph.check_balancing_order(g, order, args.threshold)
        print(json.dumps({"balanced": ok, "violator": violator}, sort_keys=True))
        return EXIT_OK if ok else EXIT_NO
    order = wgraph.solve_balancing_order(g, args.threshold, budget=args.budget)
    if order is None:
        print(json.dumps({"balanced": False}, sort_keys=True))
        return EXIT_NO
    _write(args.output, serialize.canonical_json(serialize.order_doc(order)))
    return EXIT_OK


def _graph_adjacency_from_doc(doc):
    adj = serialize.graph_from_doc(doc)
    return matchings.adjacency_from_sets(adj), sorted(adj)


def _cmd_cutval(args):
    adjacent, vertices = _graph_adjacency_from_doc(_load(args.input))
    cut = _load(args.cut)
    sides = [cut.get(key) if isinstance(cut, dict) else None for key in ("A", "B")]
    if not all(isinstance(side, list) and all(type(v) is int for v in side) for side in sides):
        raise ValidationError('a cut document is an object with integer lists "A" and "B"')
    side_a, side_b = sides
    unknown = (set(side_a) | set(side_b)) - set(vertices)
    if unknown:
        raise ValidationError(f"cut references unknown vertices {sorted(unknown)}")
    value, exact = matchings.cut_value(adjacent, side_a, side_b, args.kind,
                                       threshold=args.threshold, budget=args.budget)
    print(json.dumps({"kind": args.kind, "value": value, "exact": exact},
                     sort_keys=True))
    return EXIT_OK


def _cmd_width(args):
    adjacent, vertices = _graph_adjacency_from_doc(_load(args.input))
    stats = {"nodes": 0}
    value, layout = widths.exact_width(adjacent, vertices, args.kind,
                                       linear=args.linear, cap=args.cap,
                                       budget=args.budget, stats=stats)
    report = {"kind": args.kind, "linear": args.linear, "value": value,
              "witness": serialize.tree_layout_doc(layout),
              "nodes_explored": stats["nodes"], "budget": args.budget}
    print(serialize.canonical_json(report), end="")
    return EXIT_OK


def _load_hybrid(path, star):
    """Hybrid trees start out as tree layouts, so accept either document;
    refuse one that does not fit the shape rules on G*."""
    doc = _load(path)
    if isinstance(doc, dict) and doc.get("kind") == "tree_layout":
        ht = red3.hybrid_from_layout(serialize.tree_layout_from_doc(doc))
    else:
        ht = serialize.hybrid_tree_from_doc(doc)
    red3.gadget_nodes(ht, star)
    return ht


def _cmd_layout(args):
    star = serialize.gstar_from_doc(_load(args.input))
    if args.action == "group":
        ht = _load_hybrid(args.hybrid, star)
        if args.owner is not None:
            ht = red3.group_gadget(star, ht, args.owner)
        else:
            ht = red3.group_all(star, ht)
        _write(args.output, serialize.canonical_json(serialize.hybrid_tree_doc(ht)))
        return EXIT_OK
    if args.action == "to-mapping":
        ht = _load_hybrid(args.hybrid, star)
        mapping = red3.hybrid_to_tree_mapping(star, ht)
        _write(args.output, serialize.canonical_json(serialize.tree_mapping_doc(mapping)))
        return EXIT_OK
    mapping = serialize.tree_mapping_from_doc(_load(args.mapping))  # project
    projected = red3.project_mapping_to_G(star.GS, mapping)
    _write(args.output, serialize.canonical_json(serialize.tree_mapping_doc(projected)))
    return EXIT_OK


# -- parser -------------------------------------------------------------------

_REQUIRED = {"required": True}


def _add_actions(parser, actions):
    """One sub-parser per action, declaring -i and only the options its
    handler reads: each option is its flags and add_argument keywords."""
    sub = parser.add_subparsers(dest="action", required=True)
    for action, options in actions.items():
        p = sub.add_parser(action)
        p.add_argument("-i", "--input", required=True)
        for flags, kwargs in options:
            p.add_argument(*flags.split(), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naewidth",
        description="NAE-3-SAT / degree-balancing / mim-sim-width gadget pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    nae = sub.add_parser("nae", help="parse, validate, solve, or generate NAE instances")
    nae_sub = nae.add_subparsers(dest="action", required=True)
    for action in ("check", "solve"):
        p = nae_sub.add_parser(action)
        p.add_argument("cnf")
        p.add_argument("--lax", action="store_true",
                       help="skip the 4-occurrence profile check")
        if action == "solve":
            p.add_argument("--cap", type=int, default=fm.BRUTE_FORCE_CAP)
    p = nae_sub.add_parser("gen")
    p.add_argument("-n", "--num-vars", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--sat-only", action="store_true")

    reduce_p = sub.add_parser("reduce", help="run the reduction steps")
    reduce_p.add_argument("step", choices=["step1", "step2", "step3", "all"])
    reduce_p.add_argument("--profile", default="small")
    reduce_p.add_argument("-i", "--input", required=True)
    reduce_p.add_argument("-o", "--output")

    output = ("-o --output", {})
    _add_actions(sub.add_parser("witness", help="build and convert witnesses"), {
        "order": [("--cnf", _REQUIRED), ("--assignment", {}), output],
        "decode": [("--cnf", _REQUIRED), ("--order", _REQUIRED)],
        "path-mapping": [("--order", _REQUIRED), output],
        "caterpillar": [("--order", _REQUIRED), output],
    })
    threshold = ("--threshold", {"type": int, "required": True})
    _add_actions(sub.add_parser("balance", help="degree-balancing orders"), {
        "solve": [threshold, ("--budget", {"type": int, "default": wgraph.DEFAULT_ORDER_BUDGET}),
                  output],
        "check": [threshold, ("--order", _REQUIRED)],
    })

    cutval = sub.add_parser("cutval", help="exact mim/sim value of one cut")
    cutval.add_argument("--kind", choices=["mim", "sim"], required=True)
    cutval.add_argument("-i", "--input", required=True)
    cutval.add_argument("--cut", required=True)
    cutval.add_argument("--threshold", type=int)
    cutval.add_argument("--budget", type=int, default=matchings.DEFAULT_BUDGET)

    width = sub.add_parser("width", help="exact widths of tiny graphs")
    width.add_argument("action", choices=["exact"])
    width.add_argument("--kind", choices=["mim", "sim", "omim"], required=True)
    width.add_argument("--linear", action="store_true")
    width.add_argument("--cap", type=int, help=f"lowers the vertex cap of {widths.EXACT_CAP}, "
                       f"or {widths.LINEAR_CAP} with --linear")
    width.add_argument("--budget", type=int, default=matchings.DEFAULT_BUDGET)
    width.add_argument("-i", "--input", required=True)

    _add_actions(sub.add_parser("layout", help="hybrid-tree grouping and projection"), {
        "group": [("--hybrid", _REQUIRED), ("--owner", {"type": int}), output],
        "to-mapping": [("--hybrid", _REQUIRED), output],
        "project": [("--mapping", _REQUIRED), output],
    })

    return parser


_HANDLERS = {
    "nae": _cmd_nae,
    "reduce": _cmd_reduce,
    "witness": _cmd_witness,
    "balance": _cmd_balance,
    "cutval": _cmd_cutval,
    "width": _cmd_width,
    "layout": _cmd_layout,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        _diag(str(exc), type="validation")
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        _diag(str(exc), type="budget")
        return EXIT_BUDGET
    except (OSError, UnicodeDecodeError) as exc:
        _diag(str(exc), type="io")
        return EXIT_VALIDATION
    except (RecursionError, MemoryError) as exc:
        _diag(f"{type(exc).__name__}: {exc}", type="resource")
        return EXIT_BUDGET


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
