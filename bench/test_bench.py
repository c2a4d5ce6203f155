"""Smoke tests of the benchmark harness on tiny workloads.

Kept beside the benchmark and outside the repository's test suite; run with

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402
from segadapt import autodiff, train  # noqa: E402
from tracer import TraceError, Tracer, graph_nodes  # noqa: E402

# the SMALL config of tests/test_train.py, less eval_every, which the workloads fix at 0
TINY = dict(height=32, width=32, source_scenes=30, target_scenes=30,
            pretrain_steps=150, stage1_steps=400, stage2_steps=400)


class _Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_self_time_nesting_and_restore():
    class Box:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.leaf(x) * 2

    original_leaf, original_outer = Box.leaf, Box.outer
    tracer = Tracer(clock=_Ticks())
    tracer.wrap(Box, "leaf", "box.leaf")
    tracer.wrap(Box, "outer", "box.outer")
    assert Box.outer(1) == 4
    tracer.restore()
    assert Box.leaf is original_leaf and Box.outer is original_outer

    spans = tracer.summary()
    # outer reads the clock at ticks 1 and 4, leaf at 2 and 3
    assert spans["box.outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert spans["box.leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0]


def test_tracer_wrap_of_missing_name_fails():
    with pytest.raises(AttributeError):
        Tracer().wrap(train, "no_such_function", "train.missing")


def test_graph_walk_counts_tracked_nodes_and_refuses_no_graph():
    x = autodiff.Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()  # x, x*x, sum; the constant leaf is not tracked
    assert graph_nodes(loss) == 3
    with pytest.raises(TraceError):
        graph_nodes(autodiff.Tensor(1.0))


def _run(workload, **sizes):
    return workloads.run(workload, seed=0, seconds=0.0, spawned_at=time.monotonic(),
                         trace=True, **sizes)


def test_pipeline_tiny_config_traced():
    result = _run("pipeline", **TINY)
    assert result["correct"], result["checks"]
    assert result["attempted"] == 950 and result["failed"] == 0
    got = result["layers"]
    assert set(got) == set(layers.PER_LAYER) - {"trace.overhead_frac"}
    assert got["autodiff.backward.calls"] == 950
    assert got["autodiff.backward.nodes"] > 950
    assert got["model.prob_map.calls"] > 950
    assert 0.0 < got["threshold.kept_frac"] <= 1.0
    assert 0.0 < got["mixing.pseudo_cache_hit_ratio"] < 1.0
    assert got["gradcurves.curve.self_s"] == 0.0
    assert autodiff.Tensor.backward.__name__ == "backward"  # originals are back


def test_landscape_three_settings_traced():
    result = _run("landscape", p_hats=(0.6,), gammas=(0.5, 2.0, 4.0), grid=101)
    assert result["correct"], result["checks"]
    assert result["attempted"] == 3 * 3 * 101 and result["failed"] == 0
    got = result["layers"]
    assert got["autodiff.backward.calls"] > 3 * 3 * 101
    assert got["model.prob_map.calls"] == 0
    assert got["cli.main.self_s"] > 0.0


def test_inference_tiny_traced():
    result = _run("inference", scenes=40, sample=4, **TINY)
    assert result["correct"], result["checks"]
    assert result["attempted"] == 40
    got = result["layers"]
    assert got["autodiff.backward.calls"] == 0  # forward only
    assert got["model.prob_map.calls"] == 40
    assert got["metrics.evaluate_miou.calls"] == 1


def test_failed_steps_are_counted(monkeypatch):
    def diverge(*args, **kwargs):
        raise train.TrainingDiverged("injected")

    monkeypatch.setattr(train, "train_stage2", diverge)
    result = workloads.run("pipeline", seed=0, seconds=0.0, spawned_at=time.monotonic(),
                           **TINY)
    assert not result["correct"]
    assert result["failed"] == 400  # pretraining and stage one completed


def test_differing_csv_bytes_fail_the_run():
    def record(hashes):
        return {"correct": True, "checks": {}, "info": [{"csv_sha256": hashes}]}

    first, same, other = record({"a.csv": "00"}), record({"a.csv": "00"}), record({"a.csv": "01"})
    runner.check_outputs_repeat(first, same)
    assert same["correct"] and same["checks"] == {"csv_bytes_repeat": True}
    runner.check_outputs_repeat(first, other)
    assert not other["correct"] and other["checks"] == {"csv_bytes_repeat": False}
    no_files = {"correct": True, "checks": {}, "info": [{}]}
    runner.check_outputs_repeat(dict(no_files), no_files)
    assert no_files["checks"] == {}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
