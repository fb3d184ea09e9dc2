"""Self-test of the benchmark: toy-sized runs of every workload.

Run with ``python -m pytest perfbench`` from the repository root. Each
workload's generator and command run at toy size, one run is traced, and
every metric BENCHMARK.json names must be emitted with its unit.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracing import Tracer, WRAPPED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_emitted(result, declared):
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_toy_workload_emits_end_to_end_metrics(workload):
    result = result_of(bench_run(workload, 0))
    assert_emitted(result, BENCH["end_to_end"])
    for name in ("wall_s", "peak_rss_mb", "setup_s"):
        assert result["metrics"][name]["value"] > 0


def test_traced_toy_run_emits_every_layer_metric():
    result = result_of(bench_run("multiview", 1))
    assert_emitted(result, BENCH["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["hierarchy.rounds"] >= 1
    assert values["objectness.project_mask_points_calls"] > 0
    assert values["evaluation.mask_iou_calls"] > 0
    assert values["trace.coverage_frac"] > 0.5


def test_missing_library_function_is_reported_not_fatal():
    modules = {module for module, _, _, _ in WRAPPED}
    package = types.SimpleNamespace(**{m: types.SimpleNamespace() for m in modules})
    package.evaluation.mask_iou = lambda a, b: 0.5
    tracer = Tracer("test")
    tracer.install(package)
    package.evaluation.mask_iou([1], [1])
    metrics, missing = tracer.metrics()
    assert metrics["evaluation.mask_iou_calls"] == 1
    assert metrics["evaluation.mask_iou_nonzero_ratio"] == 1.0
    assert "hierarchy.candidate_pairs_s" in missing
    assert "evaluation.mask_iou_calls" not in missing


def test_benchmark_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("room", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_records_cover_every_metric_and_workload():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for group in layer_map["groups"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    names = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for group in layer_map["groups"]:
        assert set(group["moves"]) <= e2e
        assert all(set(ws) <= names for ws in group["moves"].values())
