"""Tests of the benchmark itself: self times, the percentile rule, checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Instrumentation, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_nested_and_sibling_children():
    # root [0, 10] holds siblings a [1, 4] and b [5, 7]; a holds a1 [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [5.0, 2.0, 1.0, 2.0]
    assert self_times(start, end, parent).sum() == 10.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 6] cover [1, 6]; a child running past its
    # parent's end only covers up to that end
    assert self_times([0.0, 1.0, 3.0], [10.0, 5.0, 6.0], [-1, 0, 0])[0] == 5.0
    assert self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])[0] == 8.0


def test_percentile_needs_ten_samples_above():
    assert measure.percentile(list(range(100)), 0.9) == 89
    assert measure.percentile(list(range(99)), 0.9) is None
    assert measure.percentile([], 0.9) is None
    assert measure.highest_percentile(list(range(1000))) == (0.99, 989)
    assert measure.highest_percentile(list(range(50))) is None
    summary = measure.timing_summary([1.0, 2.0, 3.0])
    assert summary == {"median": 2.0, "n": 3, "high_percentile": None}


def test_perturbed_result_fails_its_check_and_raises_error_rate(tmp_path):
    tasks = [t for t in workloads.build("crsf", 0, tmp_path) if t.name.startswith("trees-")]
    clean = measure.run_pass(tasks)
    assert clean.failures == [] and len(clean.latencies) == 6

    first = tasks[0]

    def perturbed():
        brute, det_count = first.run()
        return brute, det_count * (1 + 1e-3)

    tasks[0] = workloads.Task(first.name, perturbed, first.check)
    result = measure.run_pass(tasks)
    assert len(result.failures) == 1 and "CheckFailed" in result.failures[0]
    assert len(result.failures) / len(result.latencies) == pytest.approx(1 / 6)


def test_perturbed_cli_output_fails_its_check(tmp_path):
    task = next(t for t in workloads.build("closed-form", 0, tmp_path)
                if t.name == "zeta0-lshape")
    assert measure.run_pass([task]).failures == []

    def perturbed():
        code = task.run()
        meta = task.run.out / "meta.json"
        meta.write_text(meta.read_text().replace('"-13/18"', '"-13/17"'))
        return code

    result = measure.run_pass([workloads.Task(task.name, perturbed, task.check)])
    assert len(result.failures) == 1 and "zeta(0) = -13/17" in result.failures[0]


def test_tracing_rebinds_names_and_accounts_for_the_pass(tmp_path):
    from torsionlab import experiments, laplacian, surfaces
    original = laplacian.spectrum
    tasks = [workloads.Task("series", lambda: experiments.dense_renorm_series(
        surfaces.lshape(), [1, 2]), lambda s: None)]
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        assert experiments.spectrum is not original
        measure.run_pass(tasks, tracer)
    finally:
        instrumentation.uninstall()
    assert experiments.spectrum is original and laplacian.spectrum is original

    names, name_ids, start, end, parent, task = tracer.spans()
    by_name = {names[i]: k for k, i in enumerate(name_ids.tolist())}
    solve = by_name["laplacian.spectrum"]
    assert names[name_ids[parent[solve]]] == "experiments.dense_renorm_series"
    assert task[solve] == 0
    assert tracer.counts["laplacian.solves"] == 2
    assert tracer.counts["meshes.vertices"] == 12 + 48
    layers, _, pass_spans = measure.layer_totals(tracer)
    total = sum(entry["self_s"] for entry in layers.values())
    assert total == pytest.approx(float(pass_spans.sum()), rel=1e-9)


def test_every_workload_has_25_tasks(tmp_path):
    for name in workloads.TASK_LISTS:
        assert len(workloads.build(name, 3, tmp_path / name)) == 25


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.TASK_LISTS)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crsf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
