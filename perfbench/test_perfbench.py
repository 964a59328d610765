"""Self-tests of the benchmark.  Run from the checkout root with

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import harness
import run

run.import_library()

import workloads  # noqa: E402  (needs the library on sys.path)
from naewidth import red1, red2, red3  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(1, 101))) == (90, 90)
    assert harness.tail(list(range(100, 0, -1))) == (90, 90)
    assert harness.tail(list(range(1, 31))) == (66, 20)
    assert harness.tail(list(range(1, 22))) == (52, 11)
    # 20 samples: every percentile above the median has fewer than 10 beyond
    assert harness.tail(list(range(1, 21))) is None
    assert harness.tail([]) is None
    for n in range(21, 200):
        pct, value = harness.tail(list(range(n)))
        assert sum(1 for x in range(n) if x > value) >= harness.TAIL_BEYOND
        rank = -(-(pct + 1) * n // 100)
        assert n - rank < harness.TAIL_BEYOND


def test_dummy_edge_closed_form_matches_pairwise_count():
    gs = red2.build_partitioned(workloads.path_graph([3, 4, 2]))
    edges = list(gs.H.edges())
    assert harness.dummy_edge_closed_form(edges) == gs.num_dummy_edges() == 4 * 3 * 2


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, run.E2E_UNITS[name]) for name in run.E2E_REPORTED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.layer_unit(name)) for name in run.PER_LAYER]
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _small_inputs(tmp):
    reference = {"default_seed": 0, "sha256": {}}
    reduce_small = workloads.ReduceInputs(workloads._formulas("t", 1, (3,), tmp), {"n3": {}})
    step1 = workloads.step1_paper_prepare(1, tmp, reference)
    step1.formulas = step1.formulas[:1]
    cut = workloads.cut_kernel_prepare(1, tmp, reference)
    cut.gadget = red3.build_gadget(red2.build_partitioned(workloads.path_graph([3])), 0, red1.SMALL)
    cut.toys = cut.toys[:1]
    width = workloads.width_exact_prepare(1, tmp, reference)
    width.graphs = [g for g in width.graphs if g[1] <= 7]
    return {"reduce-small": reduce_small, "step1-paper": step1, "cut-kernel": cut,
            "width-exact": width}


def test_traced_pass_gives_the_untraced_answers_and_bytes(tmp_path):
    for name, inputs in _small_inputs(str(tmp_path)).items():
        run_pass = workloads.WORKLOADS[name][1]
        plain = run.one_pass(run_pass, inputs, None, str(tmp_path))
        traced = run.one_pass(run_pass, inputs, harness.Tracer(), str(tmp_path))
        run.compare_answers([plain], [traced])
        assert plain.failed == {} and traced.failed == {}, (name, plain.failed, traced.failed)
        assert plain.answers == traced.answers and plain.answers
        assert plain.artifact_bytes == traced.artifact_bytes
        assert all(s["end"] is not None for s in traced.tracer.spans)
        metrics = run.layer_metrics(traced, plain)
        assert set(metrics) == set(run.PER_LAYER)


def test_traced_answer_that_differs_is_a_failure():
    plain, traced = harness.Pass(), harness.Pass(harness.Tracer())
    plain.answer("op", 3)
    traced.answer("op", 4)
    run.compare_answers([plain], [traced])
    assert "op" in traced.failed


def _checkout(tmp_path, with_source=True):
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
    shutil.copytree(run.HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_source:
        shutil.copytree(run.SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _bench(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170, check=False)


def test_corrupted_reference_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    ref_path = root / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["sha256"]["step1-paper"]["n3"]["step1"] = "0" * 64
    ref_path.write_text(json.dumps(reference))
    child = _bench(root, "--workload", "step1-paper", "--seed", str(reference["default_seed"]),
                   "--seconds", "0", "--trace", "0")
    assert child.returncode != 0
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "n3/reduce: step1 sha256" in child.stdout


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    root = _checkout(tmp_path, with_source=False)
    child = _bench(root, "--workload", "width-exact", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert child.returncode == 2
    assert child.stdout == ""
