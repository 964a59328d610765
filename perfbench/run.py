"""Benchmark of the naewidth reduction pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cut-kernel --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all

One workload runs in this process: set-up five times, then passes over the
workload until --seconds have gone by (at least one pass), with five more
set-ups after each pass.  One client
runs operations back to back on one thread.  Every answer is checked
against the benchmark's own reference.  The last line of stdout is a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced pass with
--trace 1.  --all runs every workload in its own child process, one after
another, untraced then traced, and prints every metric of every workload.

The exit code is 0 when every answer was right, 1 when one was wrong, and 2,
with no result printed, when naewidth cannot be imported from the
checkout's src/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 5

# The end-to-end metrics of one run, in print order.
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s",
    "reduce_s.p50": "s", "reduce_s.tail": "s",
    "reload_s.p50": "s", "reload_s.tail": "s",
    "witness_s.p50": "s", "witness_s.tail": "s",
    "query_s.p50": "s", "query_s.tail": "s",
    "peak_rss_mb": "MB", "artifact_bytes": "bytes", "fail_frac": "ratio",
}
# The end-to-end metrics the final JSON line carries: every workload has
# them, none is ever 0, and each integrates enough of a run to stay steady
# across runs.  The per-kind latencies rest on a few seconds of samples on
# the reduce workloads and swing with the machine's speed, so they are
# reported but not carried.
E2E_REPORTED = ("setup_s", "wall_s", "peak_rss_mb")

PER_LAYER = (
    "formula.parse_s", "formula.brute_force_s", "formula.assignments_scanned",
    "red1.build_H_s", "red1.witness_order_s", "red1.decode_s", "red1.H_vertices",
    "red1.H_edges",
    "wgraph.check_order_s", "wgraph.solve_order_s", "wgraph.orders_found",
    "red2.layout_s", "red2.validate_s", "red2.num_dummy_edges_s", "red2.G_vertices",
    "red2.cut_value_s", "red2.mapping_value_s", "red2.cuts_evaluated",
    "red3.ensure_divisible_s", "red3.build_gstar_s", "red3.gstar_vertices",
    "red3.hybrid_sim_values_s", "red3.group_all_s", "red3.to_mapping_s", "red3.project_s",
    "matchings.cut_edges_s", "matchings.compat_s", "matchings.clique_s",
    "matchings.oracle_calls", "matchings.pairs_scanned", "matchings.candidates",
    "matchings.candidate_ratio", "matchings.compat_edges", "matchings.bb_nodes",
    "widths.exact_width_s", "widths.tree_enum_s", "widths.trees", "widths.bb_nodes",
    "serialize.hbuild_doc_s", "serialize.partitioned_doc_s", "serialize.gstar_doc_s",
    "serialize.canonical_json_s", "serialize.json_decode_s", "serialize.hbuild_load_s",
    "serialize.partitioned_load_s", "serialize.gstar_load_s",
    "serialize.bytes_step1", "serialize.bytes_step2", "serialize.bytes_step3",
    "cli.run_s", "cli.coverage",
    "trace.overhead_s",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


def import_library():
    """Import naewidth from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import naewidth
    if os.path.dirname(os.path.dirname(os.path.abspath(naewidth.__file__))) != SRC:
        raise ImportError(f"naewidth imported from {naewidth.__file__}, not from {SRC}")


def time_import():
    """Seconds to import the whole library afresh; the modules already in use
    are put back afterwards, so the workloads keep one consistent copy."""
    saved = {k: m for k, m in sys.modules.items() if k == "naewidth" or k.startswith("naewidth.")}
    for k in saved:
        del sys.modules[k]
    start = time.perf_counter()
    importlib.import_module("naewidth.cli")
    elapsed = time.perf_counter() - start
    for k in [k for k in sys.modules if k == "naewidth" or k.startswith("naewidth.")]:
        del sys.modules[k]
    sys.modules.update(saved)
    return elapsed


def one_pass(run_pass, inputs, tracer, workdir):
    p = harness.Pass(tracer)
    tmp = tempfile.mkdtemp(dir=workdir)
    start = time.perf_counter()
    try:
        run_pass(inputs, p, tmp)
    finally:
        p.wall_s = time.perf_counter() - start
        shutil.rmtree(tmp)
    return p


def end_to_end(passes, setup_times):
    samples = {kind: [s for p in passes for s in p.samples[kind]] for kind in harness.KINDS}
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median([p.wall_s for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_bytes": statistics.median([p.artifact_bytes for p in passes]),
        "fail_frac": failed / attempted,
    }
    notes = {}
    for kind, values in samples.items():
        if values:
            metrics[f"{kind}_s.p50"] = statistics.median(values)
            notes[f"{kind}_s.p50"] = f"{len(values)} samples"
            tail = harness.tail(values)
            if tail:
                metrics[f"{kind}_s.tail"] = tail[1]
                notes[f"{kind}_s.tail"] = f"p{tail[0]} of {len(values)} samples"
            else:
                notes[f"{kind}_s.tail"] = f"{len(values)} samples, too few for a tail"
        else:
            notes[f"{kind}_s.p50"] = notes[f"{kind}_s.tail"] = "no operation of this kind"
    return metrics, notes


def layer_metrics(tp, untraced):
    """Per-layer metrics of one traced pass; `untraced` is the untraced pass
    run just before it on the same inputs."""
    tr = tp.tracer
    out = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            out[name] = tr.total(name[:-2])
        else:
            out[name] = tr.counts.get(name, 0)
    pairs = out["matchings.pairs_scanned"]
    out["matchings.candidate_ratio"] = out["matchings.candidates"] / pairs if pairs else 0.0
    cli_runs = {s["id"] for s in tr.spans
                if s["name"] == "cli.run" and tp.kinds.get(s["op"]) == "reduce"}
    covered = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] in cli_runs)
    reduce_s = sum(untraced.samples["reduce"])
    out["cli.coverage"] = covered / reduce_s if reduce_s else 0.0
    out["trace.overhead_s"] = tp.wall_s - untraced.wall_s
    return out


def stage_shares(traced):
    """Per operation kind, each span name's share of the kind's self time,
    summed over the traced passes."""
    totals = {}
    for tp in traced:
        for root, names in tp.tracer.self_times().items():
            bucket = totals.setdefault(root[len("op."):], {})
            for name, seconds in names.items():
                bucket[name] = bucket.get(name, 0.0) + seconds
    return {kind: {name: seconds / sum(names.values()) for name, seconds in names.items()}
            for kind, names in totals.items()}


def write_spans(workload, seed, traced):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for i, tp in enumerate(traced):
            for s in tp.tracer.spans:
                fh.write(json.dumps({"pass": i, **s}, sort_keys=True) + "\n")
    return path


def compare_answers(untraced, traced):
    """A traced answer that differs from the untraced one is a failure."""
    for p, tp in zip(untraced, traced):
        for label, value in p.answers.items():
            if tp.answers.get(label) != value and label not in tp.failed:
                tp.failed[label] = "traced answer differs from the untraced answer"


def run_workload(name, seed, seconds, trace):
    import workloads

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    prepare, run_pass = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    setup_times = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            time_import()
            inputs = prepare(seed, workdir, reference)
            setup_times.append(time.perf_counter() - start)
        return inputs

    try:
        # Set-up takes well under a second, so it is repeated after every
        # pass as well: its median then spans the run, as the passes do.
        inputs = set_up()
        untraced, traced = [], []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            untraced.append(one_pass(run_pass, inputs, None, workdir))
            if trace:
                traced.append(one_pass(run_pass, inputs, harness.Tracer(), workdir))
            inputs = set_up()
    finally:
        shutil.rmtree(workdir)
    compare_answers(untraced, traced)
    metrics, notes = end_to_end(untraced, setup_times)
    report = {"workload": name, "seed": seed, "passes": len(untraced),
              "end_to_end": metrics, "notes": notes,
              "failures": sorted({f"{label}: {why}" for p in untraced + traced
                                  for label, why in p.failed.items()})}
    if trace:
        per_pass = [layer_metrics(tp, p) for p, tp in zip(untraced, traced)]
        report["per_layer"] = {k: statistics.median([m[k] for m in per_pass]) for k in PER_LAYER}
        report["stage_shares"] = stage_shares(traced)
        report["spans"] = os.path.relpath(write_spans(name, seed, traced), ROOT)
    everything = untraced + traced
    return report, sum(p.attempted for p in everything), sum(len(p.failed) for p in everything)


def print_report(report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']}")
    for name, unit in E2E_UNITS.items():
        value = report["end_to_end"].get(name)
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        note = report["notes"].get(name, "")
        print(f"  {name:<16} {shown:<18} {note}")
    per_layer = report.get("per_layer", {})
    for name in PER_LAYER if per_layer else ():
        print(f"  {name:<30} {per_layer[name]:.6g} {layer_unit(name)}")
    for kind, shares in report.get("stage_shares", {}).items():
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        top = ", ".join(f"{n} {s:.1%}" for n, s in top)
        print(f"  self-time shares of {kind}: {top}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def run_all(names, seed, seconds):
    """Every workload in its own child process, one after another."""
    code = 0
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            reports = [line[len("report "):] for line in lines if line.startswith("report ")]
            if child.returncode != 0 or not reports:
                print(f"workload {name} trace {trace}: exit {child.returncode}")
                code = code or child.returncode or 1
                continue
            print_report(json.loads(reports[-1]))
            code = code or child.returncode
    return code


def main(argv=None):
    try:
        import_library()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import naewidth from this checkout: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(workloads.WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, help="workload seed (default: reference.json's)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        with open(REFERENCE) as fh:
            args.seed = json.load(fh)["default_seed"]
    if args.all:
        return run_all(list(workloads.WORKLOADS), args.seed, args.seconds)

    report, attempted, failed = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print("report " + json.dumps(report, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": report["per_layer"][k], "unit": layer_unit(k)} for k in PER_LAYER}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": E2E_UNITS[k]}
                   for k in E2E_REPORTED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
