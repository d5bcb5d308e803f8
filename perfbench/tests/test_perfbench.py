"""The benchmark's own tests.

    python3 -m pytest perfbench/tests

They run each workload briefly through the command in BENCHMARK.json,
check the span arithmetic on hand-built trees, and check that the tracer
restores the program exactly.  About a minute on one core.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import spans  # noqa: E402
from shotrope import engine as E  # noqa: E402
from shotrope import model as M  # noqa: E402
from shotrope import synthetic as S  # noqa: E402
from shotrope import tensor as T  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3",
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


# -- self-time arithmetic -------------------------------------------------

def test_self_time_subtracts_children():
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.x", 15, 25, 1),
        ("b", 50, 60, 0),
    ]
    assert spans.self_times(tree) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once():
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 50, 0),
        ("b", 30, 70, 0),  # overlaps a on [30, 50]
        ("c", 90, 120, 0),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == 100 - 60 - 10


def test_layer_metrics_are_per_operation():
    tree = [
        ("engine.sample", 0, 10_000_000, -1),
        ("model.forward", 1_000_000, 5_000_000, 0),
        ("tensor.gelu", 2_000_000, 3_000_000, 1),
        ("model.forward", 6_000_000, 8_000_000, 0),
    ]
    m = spans.layer_metrics(tree, {"tensor.matmul_gflop": 4.0}, n_ops=2)
    assert m["model.forward_ms"]["value"] == pytest.approx(3.0)
    assert m["model.forward.self_ms"]["value"] == pytest.approx(2.5)
    assert m["model.forward_calls"]["value"] == 1.0
    assert m["tensor.gelu_ms"]["value"] == pytest.approx(0.5)
    assert m["engine.root.self_ms"]["value"] == pytest.approx(2.0)
    assert m["tensor.matmul_gflop"]["value"] == 2.0
    assert m["tensor.backward_ms"]["value"] == 0.0


def test_per_layer_names_match_benchmark_json():
    names = set(spans.LAYER_METRICS) | {"trace_overhead_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


# -- tracer ---------------------------------------------------------------

def _forward():
    spec = [E.ShotPrompt(2, 0), E.ShotPrompt(2, 1)]
    world = S.SyntheticWorld(seed=1)
    cfg = M.DenoiserConfig(variant="full")
    params = M.init_params(cfg, 0)
    layout = E.build_layout(spec, world)
    z = np.random.default_rng(0).standard_normal((layout.total_tokens, 128)).astype(np.float32)
    return M.denoiser_forward(z, 0.3, E.build_captions(spec), layout, cfg, params).data


def test_tracer_nests_spans_and_restores_the_program():
    before = {name: getattr(T, name) for name in ("matmul", "gelu", "add")}
    model_alias = M.multishot_self_attention
    plain = _forward()
    tracer = spans.Tracer()
    with tracer:
        assert T.matmul is not before["matmul"]
        assert M.multishot_self_attention is not model_alias  # aliased import rebound
        traced = _forward()
    assert np.array_equal(plain, traced)
    assert {name: getattr(T, name) for name in before} == before
    assert M.multishot_self_attention is model_alias
    recorded = tracer.spans()
    names = [s[0] for s in recorded]
    assert names.count("model.forward") == 1
    assert names.count("attention.self") == 4
    forward = names.index("model.forward")
    for name, _, _, parent in recorded:
        if name in ("attention.self", "attention.cross"):
            assert parent == forward
    assert tracer.counters["tensor.matmul_gflop"] > 0
    assert all(end >= start for _, start, end, _ in recorded)


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    monkeypatch.delattr(T, "gelu")
    tracer = spans.Tracer()
    with tracer:
        pass
    assert "tensor.gelu" in tracer.absent
    m = spans.layer_metrics(tracer.spans(), tracer.counters, n_ops=1)
    assert m["tensor.gelu_ms"]["value"] == 0.0


# -- short runs through the command --------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_short_traced_run():
    proc = _run("train", trace=1, seconds=2)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["model.forward_calls"]["value"] == 2.0  # batch 2
    assert result["metrics"]["tensor.backward_ms"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "weights", "__pycache__"))
    proc = _run("train", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
