"""End-to-end command tests: artifacts, determinism, gates, and strict
config handling."""

import json

import jsonschema
import numpy as np
import pytest

from sumparts.cli import REPORT_SCHEMA, main
from sumparts.model import Segmentation
from sumparts.training import TrainConfig, init_params

from conftest import class_mean_identity_backbone, make_blobs


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_blobs_csv(path, n_per_class=12, seed=123):
    features, labels = make_blobs(n_per_class=n_per_class, seed=seed)
    rows = np.column_stack([features, labels])
    np.savetxt(path, rows, delimiter=",")
    return features, labels


def run(args):
    return main([str(a) for a in args])


class TestCertify:
    def test_monomial_family(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {"family": "monomial", "d_min": 2, "d_max": 6},
        )
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["family"] == "monomial"
        assert results["points"][0] == [2, 1.0]
        assert results["points"][1] == [3, 2.0]
        assert "slope" in results["fit"]
        assert results["gates"]["anchor_d2"] is True
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "d,value,fitted"
        assert len(curves) == 6

    def test_monomial_rerun_is_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"family": "monomial", "d_min": 2, "d_max": 5}
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["certify", "--config", config, "--out", out_a]) == 0
        assert run(["certify", "--config", config, "--out", out_b]) == 0
        for name in ("results.json", "curves.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_lemma_family(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"family": "lemma", "dimensions": [5]}
        )
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["points"] == [[5, 1.0]]
        assert results["gates"]["total_is_one"] is True

    def test_corollary_family(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {"family": "corollary", "kind": "binomial", "dimensions": [6]},
        )
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["points"] == [[6, 0.0, 0.0]]

    def test_binomial_narrow_window_reports_fit_without_gate(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"family": "binomial", "dimensions": [3, 6, 9]}
        )
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["points"] == [[3, 2.0], [6, 8.0], [9, 16.0]]
        assert "slope_within_tolerance" not in results["gates"]

    def test_binomial_reference_window_reports_honest_gate(self, tmp_path):
        # certified minima over the reference window fit with slope ~0.277;
        # the published tolerance band tops out at 0.248, so the gate fails
        config = write_config(tmp_path / "c.json", {"family": "binomial"})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 1
        results = json.loads((out / "results.json").read_text())
        assert results["points"][0] == [3, 2.0]
        assert results["points"][-1] == [15, 64.0]
        assert abs(results["fit"]["slope"] - 0.2773) <= 0.002
        assert results["gates"]["slope_within_tolerance"] is False


class TestTrain:
    def test_checkpoint_reproducible(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 25, "learning_rate": 0.1,
             "segments": 2, "heads": 2, "seed": 7},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", config, "--out", out_a]) == 0
        assert run(["train", "--config", config, "--out", out_b]) == 0
        assert (out_a / "checkpoint.json").read_bytes() == (
            out_b / "checkpoint.json"
        ).read_bytes()
        results = json.loads((out_a / "results.json").read_text())
        assert results["training_accuracy"] >= 0.95
        history = (out_a / "loss_history.csv").read_text().splitlines()
        assert history[0] == "step,loss"
        assert len(history) == 26

    def test_zero_steps_equals_initialization(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        features, labels = write_blobs_csv(dataset)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 0, "learning_rate": 0.1,
             "segments": 2, "heads": 2, "seed": 11},
        )
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        gen, sel = init_params(
            seg, backbone, TrainConfig(steps=0, learning_rate=0.1, seed=11, heads=2)
        )
        got = np.array(ckpt["w_q"]).reshape(gen.w_q.shape)
        np.testing.assert_allclose(got, gen.w_q, atol=1e-8)

    def test_seed_flag_overrides_config(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 2, "learning_rate": 0.1,
             "segments": 2, "seed": 7},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", config, "--out", out_a]) == 0
        assert run(["train", "--config", config, "--out", out_b, "--seed", 8]) == 0
        a = json.loads((out_a / "checkpoint.json").read_text())
        b = json.loads((out_b / "checkpoint.json").read_text())
        assert a["seed"] == 7 and b["seed"] == 8
        assert a["w_q"] != b["w_q"]

    def test_malformed_dataset_is_reported(self, tmp_path):
        dataset = tmp_path / "bad.csv"
        dataset.write_text("1.0,2.0,0\n3.0,4.0,0.5\n")
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 1, "learning_rate": 0.1, "seed": 1},
        )
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 2


class TestEval:
    @pytest.fixture
    def trained(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=6)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 10, "learning_rate": 0.1,
             "segments": 2, "heads": 2, "seed": 7},
        )
        out = tmp_path / "train_out"
        assert run(["train", "--config", config, "--out", out]) == 0
        return dataset, out / "checkpoint.json"

    def test_report_schema_and_determinism(self, tmp_path, trained):
        dataset, checkpoint = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "step": 2, "classes": [0], "seed": 3},
        )
        out_a, out_b = tmp_path / "ea", tmp_path / "eb"
        assert run(["eval", "--config", config, "--out", out_a]) == 0
        assert run(["eval", "--config", config, "--out", out_b]) == 0
        report = json.loads((out_a / "results.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert 0.0 <= report["accuracy"] <= 1.0
        for metric in ("insertion", "deletion", "grouped_insertion",
                       "grouped_deletion", "sparsity"):
            assert metric in report
        curves = (out_a / "curves.csv").read_text().splitlines()
        assert curves[0] == "metric,example,class,fraction,probability"
        assert len(curves) > 1
        assert (out_a / "results.json").read_bytes() == (
            out_b / "results.json"
        ).read_bytes()
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()

    def test_optional_rationale_metrics(self, tmp_path, trained):
        dataset, checkpoint = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["comprehensiveness", "sufficiency"], "classes": [0, 1],
             "seed": 3},
        )
        out = tmp_path / "out"
        assert run(["eval", "--config", config, "--out", out]) == 0
        report = json.loads((out / "results.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert "comprehensiveness" in report and "sufficiency" in report

    def test_missing_checkpoint(self, tmp_path, trained):
        dataset, _ = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(tmp_path / "nope.json"), "dataset": str(dataset),
             "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2


class TestLabel:
    @pytest.fixture
    def map_setup(self, tmp_path):
        rng = np.random.default_rng(0)
        # 4x4 maps, 4 quadrant segments from file
        seg_grid = np.array([
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [2, 2, 3, 3],
            [2, 2, 3, 3],
        ])
        seg_path = tmp_path / "seg.csv"
        np.savetxt(seg_path, seg_grid, fmt="%d", delimiter=",")

        maps = rng.normal(size=(12, 16))
        labels = (maps[:, :4].sum(axis=1) > 0).astype(int)
        dataset = tmp_path / "maps.csv"
        np.savetxt(dataset, np.column_stack([maps, labels]), delimiter=",")
        train_config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 5, "learning_rate": 0.05,
             "segments": 4, "heads": 2, "seed": 5},
        )
        out = tmp_path / "train_out"
        assert run(["train", "--config", train_config, "--out", out]) == 0

        map_values = rng.normal(size=(4, 4))
        map_values[0, 0] = 25.0  # bright spot
        map_path = tmp_path / "map.csv"
        np.savetxt(map_path, map_values, delimiter=",")
        return map_path, seg_path, out / "checkpoint.json"

    def test_labels_and_histogram(self, tmp_path, map_setup):
        map_path, seg_path, checkpoint = map_setup
        config = write_config(
            tmp_path / "l.json",
            {"map": str(map_path), "segmentation": str(seg_path),
             "checkpoint": str(checkpoint), "cluster_sigma": 3.0},
        )
        out = tmp_path / "out"
        assert run(["label", "--config", config, "--out", out]) == 0
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0].startswith("group,intensity,label,score_class_0")
        assert len(lines) == 9  # 4 segments x 2 heads
        kinds = {line.split(",")[2] for line in lines[1:]}
        assert kinds <= {"void", "cluster", "other"}
        histogram = json.loads((out / "results.json").read_text())
        for target in histogram["targets"].values():
            total = sum(target[kind]["per_map"][0] for kind in target)
            assert abs(total - 1.0) <= 1e-9

    def test_cluster_set_grows_as_threshold_drops(self, tmp_path, map_setup):
        map_path, seg_path, checkpoint = map_setup

        def cluster_groups(sigma, out):
            config = write_config(
                tmp_path / f"l{sigma}.json",
                {"map": str(map_path), "segmentation": str(seg_path),
                 "checkpoint": str(checkpoint), "cluster_sigma": sigma},
            )
            assert run(["label", "--config", config, "--out", out]) == 0
            lines = (out / "labels.csv").read_text().splitlines()[1:]
            return {line.split(",")[0] for line in lines
                    if line.split(",")[2] == "cluster"}

        at3 = cluster_groups(3.0, tmp_path / "s3")
        at1 = cluster_groups(1.0, tmp_path / "s1")
        assert at3 <= at1

    def test_shape_mismatch(self, tmp_path, map_setup):
        map_path, _, checkpoint = map_setup
        small_seg = tmp_path / "small.csv"
        small_seg.write_text("0,1\n0,1\n")
        config = write_config(
            tmp_path / "l.json",
            {"map": str(map_path), "segmentation": str(small_seg),
             "checkpoint": str(checkpoint)},
        )
        assert run(["label", "--config", config, "--out", tmp_path / "out"]) == 2


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"family": "monomial", "bogus": 1}
        )
        assert run(["certify", "--config", config, "--out", tmp_path / "out"]) == 2

    def test_seed_required_for_train(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset)
        config = write_config(
            tmp_path / "t.json", {"dataset": str(dataset), "steps": 1}
        )
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["certify", "--config", bad, "--out", tmp_path / "out"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(
            ["certify", "--config", tmp_path / "none.json", "--out", tmp_path / "o"]
        ) == 2
