"""Tests of the benchmark itself: tracing leaves the program's behaviour and
namespaces as they were, spans cannot escape, and the metric lists agree with
BENCHMARK.json.  Run with ``python3 -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import PER_LAYER_UNITS, Tracer, _child_coverage, _program_modules


def _bindings():
    """Every module-level binding (and module-level dict item) of the program."""
    out = {}
    for module in _program_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    out[(module.__name__, key, k)] = v
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_keeps_artifacts_and_restores_every_binding(name, tmp_path):
    cli = run.import_program()
    plan = workloads.WORKLOADS[name](tmp_path / "inputs", 7, True)
    before = _bindings()
    plain = run.run_pass(cli, plan, tmp_path / "plain")
    tracer = Tracer("test")
    traced = run.run_pass(cli, plan, tmp_path / "traced", tracer)
    after = _bindings()

    assert all(not found for found in plain.problems.values()), plain.problems
    assert all(not found for found in traced.problems.values()), traced.problems
    assert plain.digests and traced.digests == plain.digests
    assert tracer.leftover_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.layer_metrics()["trace.spans"] > 0


def test_calls_between_modules_cannot_escape_the_trace():
    from sumparts import model

    seg = model.Segmentation.contiguous(8, 4)
    gen = model.GroupGenParams.random(4, 2, np.random.default_rng(0), std=1.0)
    backbone = model.identity_backbone(np.eye(3, 8))
    sel = model.GroupSelectParams.random(backbone, np.random.default_rng(1))
    tracer = Tracer("test")
    tracer.install()
    try:
        model.sop_forward(np.arange(1.0, 9.0), seg, gen, sel, backbone)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    assert metrics["model.forward_calls"] == 1
    assert metrics["model.pool_s"] > 0 and metrics["model.embed_rows"] == 8
    # one sparsemax per generator row (reached through ops._ROW_MODES) and
    # one per class in the selector
    assert metrics["ops.sparsemax_calls"] == 2 * 4 + 3


def test_self_time_counts_overlapping_children_once():
    # span 1 holds children 2 and 3, which overlap (two worker threads), and
    # child 4, which sticks out past the parent's end
    cols = {
        "id": np.array([1, 2, 3, 4]),
        "parent": np.array([0, 1, 1, 1]),
        "name": np.zeros(4, dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 8.0]),
        "end": np.array([10.0, 4.0, 5.0, 12.0]),
    }
    assert _child_coverage(cols).tolist() == [6.0, 0.0, 0.0, 0.0]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-blobs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no program to benchmark" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "bench"]


def test_label_map_yields_several_label_kinds_over_seeds():
    from sumparts.model import GroupGenParams, Segmentation, generate_groups
    from sumparts.structures import IntensityMap, label_group

    for seed in range(40):
        _, values, segment_ids, w_q, w_k = workloads.label_arrays(seed)
        imap = IntensityMap.from_array(values)
        seg = Segmentation(segment_ids.ravel(), int(segment_ids.max()) + 1)
        groups = generate_groups(imap.flat, seg, GroupGenParams(w_q=w_q, w_k=w_k))
        kinds = {label_group(imap, g, 2.0).kind for g in groups}
        assert len(kinds) >= 2, (seed, kinds)

