"""End-to-end command tests: artifacts, determinism, gates, and strict
config handling."""

import inspect
import json
import os
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts import certificates, cli, faithfulness
from sumparts.cli import (
    REPORT_SCHEMA,
    _checkpoint_dict,
    _load_dataset,
    _restore_checkpoint,
    main,
)
from sumparts.model import (
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    identity_backbone,
    predict,
    sop_forward,
)
from sumparts.ops import softmax
from sumparts.serialize import write_csv_atomic, write_json_atomic
from sumparts.training import TrainConfig, init_params

from conftest import class_mean_identity_backbone, make_blobs

ALL_METRICS = ["accuracy", "insertion", "deletion", "grouped_insertion",
               "grouped_deletion", "sparsity", "comprehensiveness", "sufficiency"]


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


def run_process(args):
    """Run ``python -m sumparts`` with ``args`` in a fresh interpreter, with
    its default warning filters, and return the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "sumparts", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


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

    def test_monomial_family_solves_no_lp(self, tmp_path, monkeypatch):
        """Neither the monomial nor the binomial family solves an LP."""
        def refuse(*args, **kwargs):
            raise AssertionError("a certify family solved an LP")

        monkeypatch.setattr(certificates, "linprog", refuse)
        config = write_config(tmp_path / "c.json", {"family": "monomial"})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["points"] == [[d, float(comb(d, d // 2) - 1)] for d in range(2, 15)]
        config = write_config(tmp_path / "b.json", {"family": "binomial"})
        assert run(["certify", "--config", config, "--out", out]) == 1
        results = json.loads((out / "results.json").read_text())
        assert results["points"] == [[3, 2.0], [6, 8.0], [9, 16.0], [12, 32.0], [15, 64.0]]

    @pytest.mark.parametrize("family", [{"family": "binomial"}, {"family": "lemma"},
                                        {"family": "corollary", "kind": "monomial"}],
                             ids=lambda family: family["family"])
    @pytest.mark.parametrize("dimensions", [[], [6, 6, 6], [3, 6, 9, 6]],
                             ids=["empty", "one-d-thrice", "one-repeat"])
    def test_dimensions_must_be_distinct_and_nonempty(self, tmp_path, capsys,
                                                      monkeypatch, family, dimensions):
        """An empty list passed the lemma and corollary gates on nothing,
        and a repeated d made the binomial fit a curve through one point."""
        def refuse(*args, **kwargs):
            raise AssertionError("certify did work before checking its dimensions")

        for name in ("min_insertion_error_binomial", "verify_lemma_monomial_insertion",
                     "verify_corollary_grouped"):
            monkeypatch.setattr(certificates, name, refuse)
        config = write_config(tmp_path / "c.json", {**family, "dimensions": dimensions})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config field 'dimensions'" in err and repr(dimensions) in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("config, fields", [
        ({"family": "monomial", "d_min": 9, "d_max": 4}, ["'d_min'", "'d_max'", "d_min=9"]),
        ({"family": "monomial", "d_min": 5, "d_max": 6}, ["'d_min'", "'d_max'", "d_max=6"]),
        ({"family": "binomial", "dimensions": [3, 6]}, ["'dimensions'", "[3, 6]"]),
    ], ids=["monomial-empty", "monomial-two", "binomial-two"])
    def test_fit_window_needs_three_dimensions(self, tmp_path, capsys, monkeypatch,
                                               config, fields):
        """A window of fewer than three d cannot be fitted; the error names
        the config fields rather than coming from the fit."""
        def refuse(*args, **kwargs):
            raise AssertionError("certify did work before checking its window")

        for name in ("min_deletion_error_monomial", "min_insertion_error_binomial",
                     "fit_exponential"):
            monkeypatch.setattr(certificates, name, refuse)
        out = tmp_path / "out"
        assert run(["certify", "--config", write_config(tmp_path / "c.json", config),
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert all(field in err for field in fields), err
        assert "3 or more" in err
        assert not (out / "results.json").exists()

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

    def test_unknown_corollary_kind_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json",
            {"family": "corollary", "kind": "nope", "dimensions": [3]},
        )
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "'nope'" in err and "'monomial'" in err and "'binomial'" in err
        assert not (out / "results.json").exists()

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

    @pytest.mark.filterwarnings(
        "ignore:overflow", "ignore:invalid value", "ignore:divide by zero"
    )
    def test_diverging_run_is_a_numerical_failure(self, tmp_path, capsys):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=4, seed=3)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 50, "learning_rate": 1e12,
             "segments": 2, "seed": 4},
        )
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err.startswith("error: loss became non-finite")

    def test_malformed_dataset_is_reported(self, tmp_path, capsys):
        dataset = tmp_path / "bad.csv"
        dataset.write_text("1.0,2.0,0\n3.0,4.0,0.5\n")
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 1, "learning_rate": 0.1, "seed": 1},
        )
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 2
        assert f"dataset {dataset} line 2: label is not an integer" in \
            capsys.readouterr().err


    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_the_line(self, tmp_path, capsys, entry):
        dataset = tmp_path / "bad.csv"
        dataset.write_text(f"1.0,2.0,0\n3.0,{entry},1\n")
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 1, "learning_rate": 0.1, "seed": 1},
        )
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out]) == 2
        assert f"dataset {dataset} line 2: a feature is not finite" in \
            capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("text, line, problem", [
        ("# header\n1.0,2.0,0\n\n3.0,nan,1\n", 4, "a feature is not finite"),
        ("# header\n1.0,2.0,0 # first row\n\n# note\n\n3.0,4.0,0.5\n", 6,
         "label is not an integer in [0, 2^63)"),
    ], ids=["feature", "label"])
    def test_line_numbers_count_comments_and_blank_lines(self, tmp_path, capsys, text,
                                                         line, problem):
        dataset = tmp_path / "commented.csv"
        dataset.write_text(text)
        config = write_config(tmp_path / "t.json",
                              {"dataset": str(dataset), "steps": 1, "seed": 1})
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: dataset {dataset} line {line}: {problem}\n"

    @pytest.mark.parametrize("label", ["nan", "inf", "1e300", "-1"])
    def test_bad_label_prints_only_the_error(self, tmp_path, label):
        """A label is checked without casting it, so numpy prints no cast
        warning ahead of the error."""
        dataset = tmp_path / "bad.csv"
        dataset.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        config = write_config(tmp_path / "t.json",
                              {"dataset": str(dataset), "steps": 1, "seed": 1})
        completed = run_process(["train", "--config", config, "--out", tmp_path / "out"])
        assert completed.returncode == 2
        assert completed.stderr == (
            f"error: dataset {dataset} line 2: label is not an integer in [0, 2^63)\n")

    @pytest.mark.parametrize("labels, missing", [
        ((0, 2), 1), ((0, 200000), 1), ((1, 1), 0), ((0, 1, 3, 5), 2),
    ])
    def test_labels_that_skip_a_class_are_refused(self, tmp_path, capsys, labels,
                                                  missing):
        dataset = tmp_path / "skips.csv"
        dataset.write_text("".join(f"{i}.0,1.0,{k}\n" for i, k in enumerate(labels)))
        config = write_config(tmp_path / "t.json",
                              {"dataset": str(dataset), "steps": 1, "seed": 1})
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset {dataset} has no example of class {missing} "
            f"(its largest label is {max(labels)})\n")
        assert not (out / "checkpoint.json").exists()


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

    def test_seed_is_optional(self, tmp_path, trained):
        """``eval`` reads no seed, so a config without one writes the same
        bytes as a config with one."""
        dataset, checkpoint = trained
        fields = {"checkpoint": str(checkpoint), "dataset": str(dataset),
                  "metrics": ALL_METRICS, "step": 2, "classes": [0, 1]}
        seeded = write_config(tmp_path / "seeded.json", dict(fields, seed=3))
        unseeded = write_config(tmp_path / "unseeded.json", fields)
        out_a, out_b = tmp_path / "seeded", tmp_path / "unseeded"
        assert run(["eval", "--config", seeded, "--out", out_a]) == 0
        assert run(["eval", "--config", unseeded, "--out", out_b]) == 0
        for name in ("results.json", "curves.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

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

    @pytest.mark.parametrize("classes, index", [([5], 5), ([0, -1], -1)])
    def test_class_index_out_of_range(self, tmp_path, capsys, trained, classes, index):
        dataset, checkpoint = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["insertion"], "classes": classes, "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"class index {index} is out of range" in err
        assert "with 2 classes" in err

    def test_dataset_label_out_of_range(self, tmp_path, capsys, trained):
        """The accuracy checks the dataset's labels against the checkpoint's
        class count, so a label of 2 for a 2-class checkpoint is an error."""
        _, checkpoint = trained
        dataset = tmp_path / "three_labels.csv"
        features, labels = make_blobs(n_per_class=6, seed=123)
        labels[-1] = 2
        np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",")
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["accuracy"], "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        assert "labels must lie in [0, n_classes) = [0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.json").exists()

    def test_non_finite_feature_names_the_line(self, tmp_path, capsys, trained):
        _, checkpoint = trained
        dataset = tmp_path / "nan.csv"
        features, labels = make_blobs(n_per_class=6, seed=123)
        features[4, 3] = np.nan
        np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",")
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset), "seed": 3},
        )
        out = tmp_path / "out"
        assert run(["eval", "--config", config, "--out", out]) == 2
        assert f"dataset {dataset} line 5: a feature is not finite" in \
            capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_unknown_metric_rejected(self, tmp_path, capsys, trained):
        dataset, checkpoint = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["insertion", "insertoin"], "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "'insertoin'" in err
        for name in ALL_METRICS:
            assert f"'{name}'" in err
        assert not (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("metrics", [5, "insertion", [1, 2]], ids=repr)
    def test_metrics_must_be_a_list_of_names(self, tmp_path, capsys, trained, metrics):
        """A bare string would be read letter by letter and an int is not
        iterable; both are config errors that name the field."""
        dataset, checkpoint = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": metrics, "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "config field 'metrics'" in err and repr(metrics) in err
        assert not (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("classes", [], "config field 'classes' must name at least one class, got []"),
        ("step", 0, "config field 'step' must be at least 1, got 0"),
        ("step", -2, "config field 'step' must be at least 1, got -2"),
    ], ids=["no-classes", "step-0", "step-negative"])
    @pytest.mark.parametrize("metrics", [["insertion"], ["sparsity"]],
                             ids=["ranked-curve", "no-probes"])
    def test_classes_and_step_checked_before_the_checkpoint(self, tmp_path, capsys,
                                                             trained, field, value,
                                                             message, metrics):
        """An empty class list wrote a report with no per-class metric, and a
        step below 1 failed only when a ranked curve was requested.  Both are
        refused before the checkpoint is opened (here it does not exist)."""
        dataset, _ = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(tmp_path / "nope.json"), "dataset": str(dataset),
             "metrics": metrics, field: value, "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "results.json").exists()

    def test_missing_checkpoint(self, tmp_path, trained):
        dataset, _ = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(tmp_path / "nope.json"), "dataset": str(dataset),
             "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2


def eval_oracle(checkpoint, dataset, metrics, step, classes, out_dir):
    """The earlier ``eval``: the per-vector faithfulness functions driven by
    a per-row ``sop_forward`` model, one forward per probe."""
    seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
    features, labels = _load_dataset(dataset)

    def probabilities(v):
        return softmax(sop_forward(v, seg, gen, sel, backbone).prediction)

    report = {"metadata": {
        "checkpoint": str(checkpoint), "dataset": str(dataset), "classes": classes,
        "step": step, "probability": "raw class probability (softmax of the prediction)",
    }}
    if "accuracy" in metrics:
        hits = sum(int(np.argmax(sop_forward(x, seg, gen, sel, backbone).prediction) == y)
                   for x, y in zip(features, labels))
        report["accuracy"] = hits / features.shape[0]
    aggregates = {m: [] for m in metrics if m != "accuracy"}
    curve_rows = []
    for index, x in enumerate(features):
        attribution = sop_forward(x, seg, gen, sel, backbone)
        for k in classes:
            prob = lambda v, k=k: float(probabilities(v)[k])  # noqa: E731
            groups, scores = attribution.groups, attribution.scores[:, k]
            alpha = faithfulness.flatten_grouped(groups, scores)
            ranking = faithfulness.ranking_from_attribution(alpha)
            curves = {
                "insertion": lambda: faithfulness.insertion_curve(prob, x, ranking, step),
                "deletion": lambda: faithfulness.deletion_curve(prob, x, ranking, step),
                "grouped_insertion": lambda: faithfulness.grouped_curve(
                    prob, x, groups, scores, "insertion"),
                "grouped_deletion": lambda: faithfulness.grouped_curve(
                    prob, x, groups, scores, "deletion"),
            }
            for name, make in curves.items():
                if name in metrics:
                    curve = make()
                    aggregates[name].append(curve.auc)
                    curve_rows.extend((name, index, k, float(f), float(p))
                                      for f, p in zip(curve.fractions, curve.probabilities))
            if "sparsity" in metrics:
                aggregates["sparsity"].append(faithfulness.sparsity(groups, scores))
            rationale = (alpha > 0).astype(np.float64)
            for name, fn in (("comprehensiveness", faithfulness.comprehensiveness),
                             ("sufficiency", faithfulness.sufficiency)):
                if name in metrics:
                    aggregates[name].append(fn(probabilities, x, rationale, k))
    for name, values in aggregates.items():
        if values:
            report[name] = {"mean": float(np.mean(values)), "per_case": values}
    write_json_atomic(out_dir / "results.json", report)
    write_csv_atomic(out_dir / "curves.csv",
                     ["metric", "example", "class", "fraction", "probability"], curve_rows)


ORACLE_CASES = {
    "all": (ALL_METRICS, 1, [0, 1, 2]),
    "all_reversed_step3": (ALL_METRICS[::-1], 3, [2, 0]),
    "two": (["sufficiency", "grouped_deletion"], 2, [1]),
    "no_probes": (["accuracy", "sparsity"], 1, [0]),
    "repeated_class": (ALL_METRICS, 1, [1, 1]),
    "one_curve": (["deletion"], 1, [2]),
    "grouped_pair": (["grouped_insertion", "grouped_deletion"], 1, [0]),
}


class TestEvalOracle:
    @pytest.fixture
    def sparse_model(self, tmp_path, request):
        """Three classes, d features (8 by default) in 4 segments, and wide
        generator weights, so the groups are sparse and the grouped curves
        have several points."""
        d = getattr(request, "param", 8)
        rng = np.random.default_rng(12)
        labels = np.arange(9) % 3
        features = rng.normal(0.0, 1.0, (3, d))[labels] + 0.5 * rng.normal(size=(9, d))
        dataset = tmp_path / "three.csv"
        np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",")
        seg = Segmentation.contiguous(d, 4)
        backbone = class_mean_identity_backbone(features, labels)
        gen = GroupGenParams.random(4, 2, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.5)
        checkpoint = tmp_path / "checkpoint.json"
        write_json_atomic(checkpoint, _checkpoint_dict(seg, gen, sel, backbone, {"seed": 1}))
        return dataset, checkpoint

    # at d = 11 each packed keep row carries 5 bits of padding
    @pytest.mark.parametrize("sparse_model, metrics, step, classes", [
        pytest.param(d, *case, id=name if d == 8 else f"{name}_d{d}")
        for d in (8, 11) for name, case in ORACLE_CASES.items()
    ], indirect=["sparse_model"])
    def test_matches_per_vector_oracle(self, tmp_path, sparse_model, metrics, step,
                                       classes):
        dataset, checkpoint = sparse_model
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": metrics, "step": step, "classes": classes, "seed": 3},
        )
        out, expected = tmp_path / "out", tmp_path / "oracle"
        assert run(["eval", "--config", config, "--out", out]) == 0
        eval_oracle(checkpoint, dataset, metrics, step, classes, expected)
        for name in ("results.json", "curves.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()
        if "grouped_insertion" in metrics and 0 in classes:
            rows = (out / "curves.csv").read_text().splitlines()
            assert sum(r.startswith("grouped_insertion,0,0,") for r in rows) > 2

    def test_one_predict_call_per_example_on_distinct_rows(self, tmp_path, monkeypatch,
                                                            sparse_model):
        dataset, checkpoint = sparse_model
        calls = []

        def recording_predict(inputs, *model):
            calls.append(np.array(inputs))
            return predict(inputs, *model)

        monkeypatch.setattr(cli, "predict", recording_predict)
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ALL_METRICS, "classes": [0, 1, 2, 1], "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 0
        assert len(calls) == 9
        for inputs in calls:
            assert np.unique(inputs, axis=0).shape[0] == inputs.shape[0]


class TestCheckpointRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_restored_checkpoint_rewrites_byte_identical(self, d, data):
        m = data.draw(st.integers(1, d))
        heads = data.draw(st.integers(1, 3))
        n_classes = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        std = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        seg = Segmentation.contiguous(d, m)
        backbone = identity_backbone(rng.normal(0.0, std, (n_classes, d)))
        gen = GroupGenParams.random(m, heads, rng, std)
        sel = GroupSelectParams.random(backbone, rng, std)
        config = {"seed": data.draw(st.integers(0, 10**6))}
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            write_json_atomic(first, _checkpoint_dict(seg, gen, sel, backbone, config))
            restored = _restore_checkpoint(first)
            write_json_atomic(second, _checkpoint_dict(*restored, config))
            assert first.read_bytes() == second.read_bytes()


def _without(ckpt, key):
    return {k: v for k, v in ckpt.items() if k != key}


class TestCheckpointValidation:
    @pytest.fixture
    def initial(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=3)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 0, "segments": 2, "seed": 7},
        )
        out = tmp_path / "train_out"
        assert run(["train", "--config", config, "--out", out]) == 0
        return dataset, json.loads((out / "checkpoint.json").read_text())

    @pytest.mark.parametrize("mutate, expected", [
        (lambda c: {"d": 2}, ["missing field 'h'"]),
        (lambda c: _without(c, "w_k"), ["missing field 'w_k'"]),
        (lambda c: _without(c, "backbone"), ["missing field 'backbone.kind'"]),
        (lambda c: {**c, "backbone": {"kind": "identity"}},
         ["missing field 'backbone.classifier'"]),
        (lambda c: {**c, "heads": 1.5}, ["'heads' must be a positive integer"]),
        (lambda c: {**c, "w_q": [c["w_q"][0][:-1]] + c["w_q"][1:]},
         ["'w_q' is not a numeric array"]),
        (lambda c: {**c, "sel_w_k": c["sel_w_k"][:-1]},
         ["'sel_w_k' has 63 entries, expected 64", "(h, h)"]),
        (lambda c: {**c, "segment_assignment": c["segment_assignment"][:-1]},
         ["'segment_assignment' has 7 entries, expected 8", "(d)"]),
        (lambda c: {**c, "segment_assignment": [0] * 4 + [5] * 4},
         ["segment indices"]),
        (lambda c: {**c, "segment_assignment": [0.9] * 4 + [1.6] * 4},
         ["'segment_assignment' must hold integers, got float64 entries"]),
        (lambda c: {**c, "segment_assignment": [False] * 4 + [True] * 4},
         ["'segment_assignment' must hold integers, got bool entries"]),
        (lambda c: {**c, "segment_assignment": [0] * 4 + [1.0] * 4},
         ["'segment_assignment' must hold integers, got float64 entries"]),
    ], ids=["only_d", "no_w_k", "no_backbone", "no_backbone_classifier", "float_heads",
            "ragged_w_q", "short_sel_w_k", "short_assignment", "assignment_range",
            "float_assignment", "bool_assignment", "integral_float_assignment"])
    def test_bad_checkpoint_names_the_field(self, tmp_path, capsys, initial,
                                            mutate, expected):
        dataset, ckpt = initial
        checkpoint = tmp_path / "bad.json"
        checkpoint.write_text(json.dumps(mutate(ckpt)))
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset), "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {checkpoint}")
        for text in expected:
            assert text in err


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

    def test_negative_cluster_sigma_is_refused(self, tmp_path, capsys, map_setup):
        map_path, seg_path, checkpoint = map_setup
        config = write_config(
            tmp_path / "l.json",
            {"map": str(map_path), "segmentation": str(seg_path),
             "checkpoint": str(checkpoint), "cluster_sigma": -1},
        )
        out = tmp_path / "out"
        assert run(["label", "--config", config, "--out", out]) == 2
        assert "config field 'cluster_sigma' must be non-negative, got -1" in \
            capsys.readouterr().err
        assert not (out / "labels.csv").exists()

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

    @pytest.mark.parametrize("command, fields, key", [
        pytest.param(command, fields, key,
                     id=f"{command}-{key}={fields[key]!r}".replace(" ", ""))
        for command, fields, key in [
            ("eval", {"step": 1.7}, "step"),
            ("eval", {"classes": [True]}, "classes"),
            ("eval", {"classes": [0, 1.0]}, "classes"),
            ("eval", {"classes": 1}, "classes"),
            ("eval", {"seed": "3"}, "seed"),
            ("train", {"steps": 2.5}, "steps"),
            ("train", {"steps": True}, "steps"),
            ("train", {"heads": 2.0}, "heads"),
            ("train", {"segments": "2"}, "segments"),
            ("train", {"seed": 1.0}, "seed"),
            ("certify", {"family": "monomial", "d_min": 2.0}, "d_min"),
            ("certify", {"family": "monomial", "d_max": True}, "d_max"),
            ("certify", {"family": "binomial", "dimensions": [3, 6.5]}, "dimensions"),
            ("certify", {"family": "lemma", "dimensions": [False]}, "dimensions"),
            ("certify", {"family": "corollary", "dimensions": 6}, "dimensions"),
            ("label", {"seed": True}, "seed"),
        ]
    ])
    def test_integer_fields_reject_other_values(self, tmp_path, capsys, command,
                                                fields, key):
        """Integer fields take JSON integers only: ``int()`` would truncate
        a float and read a bool as 0 or 1."""
        dataset = tmp_path / "blobs.csv"
        features, labels = write_blobs_csv(dataset, n_per_class=3)
        seg = Segmentation.contiguous(features.shape[1], 2)
        backbone = class_mean_identity_backbone(features, labels)
        rng = np.random.default_rng(0)
        gen = GroupGenParams.random(2, 2, rng)
        sel = GroupSelectParams.random(backbone, rng)
        checkpoint = tmp_path / "checkpoint.json"
        write_json_atomic(checkpoint, _checkpoint_dict(seg, gen, sel, backbone, {"seed": 1}))
        base = {
            "certify": {},
            "train": {"dataset": str(dataset), "steps": 1, "seed": 1},
            "eval": {"checkpoint": str(checkpoint), "dataset": str(dataset),
                     "metrics": ["insertion"], "seed": 3},
            "label": {"map": "map.csv", "segmentation": "seg.csv",
                      "checkpoint": str(checkpoint)},
        }[command]
        config = write_config(tmp_path / "c.json", {**base, **fields})
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config field {key!r}" in err and repr(fields[key]) in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("command, key", [
        ("train", "dataset"), ("eval", "checkpoint"), ("eval", "dataset"),
        ("label", "map"), ("label", "segmentation"), ("label", "checkpoint"),
    ])
    def test_path_fields_reject_descriptor_numbers(self, tmp_path, capsys, command, key):
        """``open`` and ``np.loadtxt`` take an int as a file descriptor, and
        would read and then close one that the caller owns."""
        held = tmp_path / "held.txt"
        held.write_text("owned by the caller\n")
        base = {
            "train": {"dataset": "blobs.csv", "seed": 1},
            "eval": {"checkpoint": "checkpoint.json", "dataset": "blobs.csv", "seed": 3},
            "label": {"map": "map.csv", "segmentation": "seg.csv",
                      "checkpoint": "checkpoint.json"},
        }[command]
        with open(held) as fh:
            config = write_config(tmp_path / "c.json", {**base, key: fh.fileno()})
            assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
            os.fstat(fh.fileno())
            assert fh.read() == "owned by the caller\n"
            descriptor = fh.fileno()
        err = capsys.readouterr().err
        assert f"config field {key!r} must be a path string, got {descriptor}" in err

    @pytest.mark.parametrize("command, key", [("train", "learning_rate"),
                                              ("label", "cluster_sigma")])
    @pytest.mark.parametrize("value", [True, "0.1", [0.1], float("nan"), float("inf"),
                                       -float("inf"), 10 ** 400],
                             ids=["true", "'0.1'", "[0.1]", "nan", "inf", "-inf", "10**400"])
    def test_number_fields_reject_other_values(self, tmp_path, capsys, command, key,
                                               value):
        """``float()`` would read ``true`` as 1.0 and ``"0.1"`` as 0.1."""
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=3)
        base = {
            "train": {"dataset": str(dataset), "steps": 1, "seed": 1},
            "label": {"map": "map.csv", "segmentation": "seg.csv",
                      "checkpoint": "checkpoint.json"},
        }[command]
        config = write_config(tmp_path / "c.json", {**base, key: value})
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config field {key!r} must be a finite number, got {value!r}" in err
        assert not (out / "results.json").exists()

    def test_integer_learning_rate_trains_as_its_float(self, tmp_path):
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=3)
        outs = []
        for rate in (1, 1.0):
            config = write_config(
                tmp_path / f"{rate!r}.json",
                {"dataset": str(dataset), "steps": 2, "learning_rate": rate, "seed": 1})
            outs.append(tmp_path / f"out-{rate!r}")
            assert run(["train", "--config", config, "--out", outs[-1]]) == 0
        assert (outs[0] / "checkpoint.json").read_bytes() == \
            (outs[1] / "checkpoint.json").read_bytes()

    @pytest.mark.parametrize("rate", [0, -1])
    def test_nonpositive_learning_rate_rejected(self, tmp_path, capsys, rate):
        """A zero rate leaves the parameters as they were and a negative one
        climbs the loss; neither is a training run."""
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=3)
        config = write_config(
            tmp_path / "c.json",
            {"dataset": str(dataset), "steps": 2, "learning_rate": rate, "seed": 1})
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config field 'learning_rate' must be positive, got {rate!r}" in err
        assert not (out / "checkpoint.json").exists()


# Runs train, eval, label and every certify family in one fresh interpreter.
COLD_START = """
import sys
from sumparts import cli

work = sys.argv[1]
for command, name in (("train", "train"), ("eval", "eval"), ("label", "label"),
                      ("certify", "monomial"), ("certify", "binomial"),
                      ("certify", "lemma"), ("certify", "corollary")):
    code = cli.main([command, "--config", f"{work}/{name}.json",
                     "--out", f"{work}/{name}"])
    assert code == 0, (name, code)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (name, loaded)
"""


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        """No command imports scipy, every ``certify`` family included, and
        the monomial and binomial families still find the exact optima."""
        rng = np.random.default_rng(0)
        maps = rng.normal(size=(12, 16))
        labels = (maps[:, :4].sum(axis=1) > 0).astype(int)
        dataset = tmp_path / "maps.csv"
        np.savetxt(dataset, np.column_stack([maps, labels]), delimiter=",")
        np.savetxt(tmp_path / "map.csv", rng.normal(size=(4, 4)), delimiter=",")
        np.savetxt(tmp_path / "seg.csv", np.repeat(np.repeat([[0, 1], [2, 3]], 2, 0), 2, 1),
                   fmt="%d", delimiter=",")
        checkpoint = str(tmp_path / "train" / "checkpoint.json")
        write_config(tmp_path / "train.json", {"dataset": str(dataset), "steps": 2,
                                               "segments": 4, "seed": 5})
        write_config(tmp_path / "eval.json", {"checkpoint": checkpoint,
                                              "dataset": str(dataset), "seed": 3})
        write_config(tmp_path / "label.json", {
            "map": str(tmp_path / "map.csv"), "segmentation": str(tmp_path / "seg.csv"),
            "checkpoint": checkpoint})
        write_config(tmp_path / "monomial.json", {"family": "monomial", "d_min": 2,
                                                  "d_max": 5})
        write_config(tmp_path / "binomial.json", {"family": "binomial",
                                                  "dimensions": [3, 6, 9]})
        write_config(tmp_path / "lemma.json", {"family": "lemma", "dimensions": [3]})
        write_config(tmp_path / "corollary.json", {"family": "corollary", "dimensions": [3]})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
        completed = subprocess.run(
            [sys.executable, "-c", COLD_START, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        points = json.loads((tmp_path / "monomial" / "results.json").read_text())["points"]
        assert points == [[d, float(comb(d, d // 2) - 1)] for d in range(2, 6)]
        points = json.loads((tmp_path / "binomial" / "results.json").read_text())["points"]
        assert points == [[3, 2.0], [6, 8.0], [9, 16.0]]

    def test_linprog_is_a_module_level_function_with_a_named_a_ub(self):
        """The benchmark's tracer rebinds ``certificates.linprog`` and reads
        its ``A_ub`` argument by name."""
        assert inspect.isfunction(certificates.linprog)
        assert certificates.linprog.__module__ == "sumparts.certificates"
        assert certificates.linprog.__qualname__ == "linprog"
        assert "A_ub" in inspect.signature(certificates.linprog).parameters
