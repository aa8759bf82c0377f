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

from sumparts import certificates, cli, faithfulness, structures, training
from sumparts.cli import (
    REPORT_SCHEMA,
    _checkpoint_dict,
    _load_dataset,
    _restore_checkpoint,
    main,
)
from sumparts.model import (
    PREDICT_BLOCK_ROWS,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    explain,
    identity_backbone,
    predict,
    sop_forward,
)
from sumparts.ops import softmax
from sumparts.serialize import write_json_atomic
from sumparts.training import TrainConfig, init_params

from conftest import (
    class_mean_identity_backbone,
    eval_oracle,
    make_blobs,
    report_from_curve_oracle,
)

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

        for name in ("binomial_scan_minimum", "verify_lemma_monomial_insertion",
                     "verify_corollary_grouped"):
            monkeypatch.setattr(certificates, name, refuse)
        config = write_config(tmp_path / "c.json", {**family, "dimensions": dimensions})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config field 'dimensions'" in err and repr(dimensions) in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("config, rule", [
        ({"family": "lemma", "dimensions": [2, faithfulness.POWERSET_LIMIT + 1]},
         f"lemma family must hold integers from 1 to {faithfulness.POWERSET_LIMIT}"),
        ({"family": "lemma", "dimensions": [0, 3]},
         f"lemma family must hold integers from 1 to {faithfulness.POWERSET_LIMIT}"),
        ({"family": "binomial", "dimensions": [3, 6, certificates.BINOMIAL_DIMENSION_LIMIT + 3]},
         "binomial family must hold multiples of 3 from 3 to "
         f"{certificates.BINOMIAL_DIMENSION_LIMIT}"),
        ({"family": "binomial", "dimensions": [3, 6, 10]},
         "binomial family must hold multiples of 3 from 3 to "
         f"{certificates.BINOMIAL_DIMENSION_LIMIT}"),
        ({"family": "corollary", "dimensions": [6, 7]},
         "corollary family (kind 'binomial') must hold multiples of 3 from 3 to 18"),
        ({"family": "corollary", "kind": "monomial",
          "dimensions": [3, faithfulness.POWERSET_LIMIT + 1]},
         "corollary family (kind 'monomial') must hold integers from 1 to "
         f"{faithfulness.POWERSET_LIMIT}"),
    ], ids=["lemma-above-cap", "lemma-zero", "binomial-above-cap", "binomial-not-multiple",
            "corollary-binomial-not-multiple", "corollary-monomial-above-cap"])
    def test_dimensions_outside_the_family_range_are_refused(self, tmp_path, capsys,
                                                             monkeypatch, config, rule):
        """A lemma entry above the powerset cap was refused only after the
        smaller entries had been verified, by a message that named neither
        ``dimensions`` nor the family."""
        def refuse(*args, **kwargs):
            raise AssertionError("certify did work before checking its dimensions")

        for name in ("binomial_scan_minimum", "verify_lemma_monomial_insertion",
                     "verify_corollary_grouped"):
            monkeypatch.setattr(certificates, name, refuse)
        out = tmp_path / "out"
        assert run(["certify", "--config", write_config(tmp_path / "c.json", config),
                    "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: config field 'dimensions' of the {rule}, got {config['dimensions']!r}\n")
        assert not out.exists()

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

        for name in ("monomial_scan_minimum", "binomial_scan_minimum", "fit_exponential"):
            monkeypatch.setattr(certificates, name, refuse)
        out = tmp_path / "out"
        assert run(["certify", "--config", write_config(tmp_path / "c.json", config),
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert all(field in err for field in fields), err
        assert "3 or more" in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("config, unread", [
        ({"family": "monomial", "dimensions": [3, 4, 5]}, ["dimensions"]),
        ({"family": "monomial", "kind": "monomial"}, ["kind"]),
        ({"family": "binomial", "d_min": 3, "d_max": 15}, ["d_max", "d_min"]),
        ({"family": "binomial", "kind": "binomial"}, ["kind"]),
        ({"family": "lemma", "d_min": 2, "d_max": 9, "kind": "monomial"},
         ["d_max", "d_min", "kind"]),
        ({"family": "corollary", "dimensions": [6], "d_max": 9}, ["d_max"]),
    ], ids=["monomial-dimensions", "monomial-kind", "binomial-window", "binomial-kind",
            "lemma-window-kind", "corollary-d_max"])
    def test_keys_the_family_does_not_read_are_refused(self, tmp_path, capsys,
                                                       monkeypatch, config, unread):
        """A key another family reads was accepted and ignored: the monomial
        certified d = 2..14 for ``dimensions: [3, 4, 5]``."""
        def refuse(*args, **kwargs):
            raise AssertionError("certify did work before checking its keys")

        for name in ("monomial_scan_minimum", "binomial_scan_minimum",
                     "verify_lemma_monomial_insertion", "verify_corollary_grouped"):
            monkeypatch.setattr(certificates, name, refuse)
        out = tmp_path / "out"
        assert run(["certify", "--config", write_config(tmp_path / "c.json",
                                                        {**config, "seed": 7}),
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"certify family {config['family']!r}" in err and str(unread) in err, err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("family", ["nope", ["monomial"], None])
    def test_unknown_family_is_refused(self, tmp_path, capsys, family):
        config = write_config(tmp_path / "c.json", {"family": family})
        assert run(["certify", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'family' must be one of monomial/binomial/lemma/corollary, "
            f"got {family!r}\n")

    def test_monomial_d_min_below_two_is_refused(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", {"family": "monomial", "d_min": 1})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "'d_min'" in err and "at least 2" in err and "got 1" in err, err
        assert not (out / "results.json").exists()

    def test_monomial_d_max_above_the_scan_limit_is_refused(self, tmp_path, capsys,
                                                            monkeypatch):
        """``d_max: 21`` ran the scans of d = 2..20 before the scan refused
        d = 21 with a message naming neither ``d_max`` nor the family."""
        def refuse(*args, **kwargs):
            raise AssertionError("certify scanned before checking d_max")

        monkeypatch.setattr(certificates, "monomial_scan_minimum", refuse)
        limit = certificates.SCAN_DIMENSION_LIMIT
        config = write_config(tmp_path / "c.json", {"family": "monomial", "d_max": limit + 1})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: config field 'd_max' must be at most {limit} for the monomial "
            f"family, got {limit + 1}\n")
        assert not (out / "results.json").exists()

    def test_monomial_window_reaches_the_scan_limit(self, tmp_path):
        limit = certificates.SCAN_DIMENSION_LIMIT
        config = write_config(tmp_path / "c.json",
                              {"family": "monomial", "d_min": limit - 2, "d_max": limit})
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 0
        points = json.loads((out / "results.json").read_text())["points"]
        # results.json keeps 9 significant digits
        assert points == [[d, pytest.approx(comb(d, d // 2) - 1, rel=1e-8)]
                          for d in range(limit - 2, limit + 1)]

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

    @pytest.mark.parametrize("kind", ["nope", 7, ["binomial"]], ids=repr)
    @pytest.mark.parametrize("dimensions", [[3], [0]], ids=repr)
    def test_unknown_corollary_kind_rejected(self, tmp_path, capsys, monkeypatch, kind,
                                             dimensions):
        """An unknown kind was refused by ``PolynomialSpec`` in words that
        named neither the field nor the family, and with ``dimensions: [0]``
        the dimension rule spoke first, quoting the unknown kind."""
        def refuse(*args, **kwargs):
            raise AssertionError("certify did work before checking its kind")

        monkeypatch.setattr(certificates, "verify_corollary_grouped", refuse)
        config = write_config(
            tmp_path / "c.json",
            {"family": "corollary", "kind": kind, "dimensions": dimensions},
        )
        out = tmp_path / "out"
        assert run(["certify", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'kind' of the corollary family must be 'monomial' or "
            f"'binomial', got {kind!r}\n")
        assert not out.exists()

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
        assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "results.json"]
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

    @pytest.mark.parametrize("config_seed, flag", [(-1, []), (7, ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_is_refused_before_the_dataset(self, tmp_path, capsys,
                                                         config_seed, flag):
        """numpy refused it with ``expected non-negative integer``, which
        named no field, after the dataset had been read (here it does not
        exist)."""
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(tmp_path / "nope.csv"), "steps": 1, "seed": config_seed},
        )
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out, *flag]) == 2
        assert capsys.readouterr().err == \
            "error: config field 'seed' must be at least 0, got -1\n"
        assert not out.exists()

    def test_arrays_too_large_to_allocate_are_refused(self, tmp_path):
        """A numpy ``_ArrayMemoryError`` ended in a traceback with exit 1,
        the code of a failed gate.  10**15 heads of 2 x 2 weights ask for
        28 PiB, which numpy refuses before it allocates anything."""
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=2)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 1, "segments": 2, "heads": 10**15, "seed": 1},
        )
        out = tmp_path / "out"
        done = run_process(["train", "--config", config, "--out", out])
        assert done.returncode == 2
        assert done.stderr.startswith("error: out of memory: Unable to allocate ")
        assert done.stderr.count("\n") == 1 and done.stdout == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("steps", [50, 1])
    @pytest.mark.parametrize("rate", [1e12, 1e50, 1e100, 1e150, 1e200, 1e300])
    def test_every_diverging_run_exits_3(self, tmp_path, capsys, rate, steps):
        """These runs exited 2, as for a bad config, and numpy printed
        RuntimeWarnings first, which the pytest settings make errors: a
        forward pass that overflowed failed the ops' input checks, and the
        parameters of a last update that broke the model failed the score
        checks of the accuracy after it."""
        rng = np.random.default_rng(0)
        features = rng.normal(size=(12, 16))
        labels = (features[:, :4].sum(axis=1) > 0).astype(int)
        dataset = tmp_path / "maps.csv"
        np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",")
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": steps, "learning_rate": rate,
             "segments": 4, "heads": 2, "seed": 5},
        )
        out = tmp_path / "out"
        assert run(["train", "--config", config, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: loss became non-finite at step ") and \
            err.count("\n") == 1, err
        assert f"lr={rate}" in err
        assert not out.exists()

    def test_one_forward_pass_checks_and_scores_the_final_parameters(self, tmp_path,
                                                                     monkeypatch):
        """``train`` checks the last update's parameters with one ``predict``
        over the dataset, and the training accuracy comes from that pass; a
        second, identical pass used to follow for the accuracy."""
        dataset = tmp_path / "blobs.csv"
        write_blobs_csv(dataset, n_per_class=6)
        config = write_config(
            tmp_path / "t.json",
            {"dataset": str(dataset), "steps": 3, "segments": 2, "seed": 7},
        )
        calls = []

        def counting_predict(inputs, *model):
            calls.append(np.shape(inputs))
            return predict(inputs, *model)

        monkeypatch.setattr(training, "predict", counting_predict)
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        assert calls == [(12, 8)]

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

    @pytest.mark.parametrize("classes", [[5], [0, -1]], ids=["class-5", "class-minus-1"])
    def test_class_index_out_of_range(self, tmp_path, capsys, trained, classes):
        dataset, checkpoint = trained
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["insertion"], "classes": classes, "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: config field 'classes' must name classes of checkpoint {checkpoint} "
            f"(2 classes), got {classes!r}\n")

    def test_dataset_label_out_of_range(self, tmp_path, capsys, trained):
        """The accuracy checks the dataset's labels against the checkpoint's
        class count, so a label of 4 for a 2-class checkpoint is an error
        that names the dataset line (after a comment line) and the
        checkpoint."""
        _, checkpoint = trained
        dataset = tmp_path / "five_labels.csv"
        features, labels = make_blobs(n_per_class=6, seed=123)
        labels[4] = 4
        np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",",
                   header="features, label")
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["accuracy"], "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset {dataset} line 6: label 4 is not a class of checkpoint "
            f"{checkpoint} (2 classes)\n")
        assert not (tmp_path / "out").exists()
        # without the accuracy no metric reads the labels
        config = write_config(
            tmp_path / "s.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ["sparsity"], "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 0

    def test_overflow_names_the_dataset(self, tmp_path, trained):
        """A dataset whose features overflow the model's arithmetic is refused
        with one line naming the checkpoint and the dataset; numpy's
        RuntimeWarning and the ops' ``v contains non-finite entries`` used to
        come first."""
        _, checkpoint = trained
        dataset = tmp_path / "huge.csv"
        features, labels = make_blobs(n_per_class=6, seed=123)
        np.savetxt(dataset, np.column_stack([features * 1e200, labels]), delimiter=",")
        config = write_config(tmp_path / "e.json",
                              {"checkpoint": str(checkpoint), "dataset": str(dataset)})
        done = run_process(["eval", "--config", config, "--out", tmp_path / "out"])
        assert done.returncode == 2
        assert done.stderr == (f"error: checkpoint {checkpoint}: floating-point failure on "
                               f"dataset {dataset}: overflow encountered in matmul\n")
        assert not (tmp_path / "out").exists()

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
        assert "config field 'metrics'" in err and "'insertoin'" in err
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
        ("classes", [0, 0], "config field 'classes' must not repeat a class, got [0, 0]"),
        ("step", 0, "config field 'step' must be at least 1, got 0"),
        ("step", -2, "config field 'step' must be at least 1, got -2"),
    ], ids=["no-classes", "repeated-class", "step-0", "step-negative"])
    @pytest.mark.parametrize("metrics", [["insertion"], ["sparsity"]],
                             ids=["ranked-curve", "no-probes"])
    def test_classes_and_step_checked_before_the_checkpoint(self, tmp_path, capsys,
                                                             trained, field, value,
                                                             message, metrics):
        """An empty class list wrote a report with no per-class metric, a
        repeated class reported its curves and ``per_case`` values twice,
        over-weighting it in ``mean``, and a step below 1 failed only when a
        ranked curve was requested.  All are refused before the checkpoint is
        opened (here it does not exist)."""
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


ORACLE_CASES = {
    "all": (ALL_METRICS, 1, [0, 1, 2]),
    "all_reversed_step3": (ALL_METRICS[::-1], 3, [2, 0]),
    "two": (["sufficiency", "grouped_deletion"], 2, [1]),
    "no_probes": (["accuracy", "sparsity"], 1, [0]),
    "one_curve": (["deletion"], 1, [2]),
    "grouped_pair": (["grouped_insertion", "grouped_deletion"], 1, [0]),
}


CURVE_METRICS = ("insertion", "deletion", "grouped_insertion", "grouped_deletion")


class TestStackedEval:
    """``eval``'s stacked path against the per-example, per-curve and
    per-row code it replaced, kept in ``conftest``: one ``explain`` call
    against a ``sop_forward`` per example, the batched reports against one
    ``report_from_curve_oracle`` per curve, and ``curves.csv`` against the
    row writer of ``eval_oracle``."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_per_example_path(self, data):
        d = data.draw(st.integers(2, 11), label="d")
        # d % m != 0 for many draws; with heads >= 2 there are more groups
        # than segments, so some group adds no coverage to a grouped curve
        m = data.draw(st.integers(1, min(d, 4)), label="m")
        heads = data.draw(st.integers(1, 3), label="heads")
        n_classes = data.draw(st.integers(1, 3), label="n_classes")
        classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                                     max_size=n_classes, unique=True), label="classes")
        metrics = data.draw(st.lists(st.sampled_from(ALL_METRICS), min_size=1,
                                     max_size=len(ALL_METRICS), unique=True), label="metrics")
        step = data.draw(st.integers(1, 4), label="step")
        n = data.draw(st.integers(1, 4), label="examples")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        seg = Segmentation(assignment=rng.permutation(np.arange(d) % m), n_segments=m)
        backbone = identity_backbone(rng.normal(size=(n_classes, d)))
        gen = GroupGenParams.random(m, heads, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.5)
        features, labels = rng.normal(size=(n, d)), rng.integers(0, n_classes, n)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            dataset, checkpoint = tmp / "data.csv", tmp / "checkpoint.json"
            np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",")
            write_json_atomic(checkpoint, _checkpoint_dict(seg, gen, sel, backbone, {"seed": 1}))
            seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
            features, _ = _load_dataset(dataset)

            attributions = [sop_forward(x, seg, gen, sel, backbone) for x in features]
            groups, scores = explain(features, seg, gen, sel, backbone)
            assert groups.tobytes() == np.array([a.groups for a in attributions]).tobytes()
            assert scores.tobytes() == np.array([a.scores for a in attributions]).tobytes()

            def model(rows):
                return softmax(predict(rows, seg, gen, sel, backbone))

            curves = [name for name in CURVE_METRICS if name in metrics]
            results = faithfulness.evaluate_examples(model, features, groups, scores,
                                                     classes, curves, step)
            dropped = False
            for x, attribution, example in zip(features, attributions, results):
                for k, result in zip(classes, example):
                    assert list(result) == curves
                    alpha = faithfulness.flatten_grouped(attribution.groups,
                                                         attribution.scores[:, k])
                    for name, report in result.items():
                        direction = name.removeprefix("grouped_")
                        fractions, covered = (
                            faithfulness.grouped_coverage(attribution.groups,
                                                          attribution.scores[:, k])
                            if name.startswith("grouped_") else faithfulness.ranked_coverage(
                                faithfulness.ranking_from_attribution(alpha), step))
                        keep = covered if direction == "insertion" else ~covered
                        expected = report_from_curve_oracle(
                            name, fractions, model(np.where(keep, x, 0.0))[:, k])
                        assert report.metric == name
                        assert report.fractions.tobytes() == expected.fractions.tobytes()
                        assert report.probabilities.tobytes() == \
                            expected.probabilities.tobytes()
                        assert np.float64(report.auc).tobytes() == \
                            np.float64(expected.auc).tobytes()
                        if name.startswith("grouped_"):
                            dropped |= len(fractions) < attribution.n_groups + 1
            assert dropped or heads == 1 or not {"grouped_insertion",
                                                 "grouped_deletion"} & set(metrics)

            out = tmp / "out"
            config = write_config(tmp / "eval.json", {
                "checkpoint": str(checkpoint), "dataset": str(dataset), "metrics": metrics,
                "step": step, "classes": classes})
            assert run(["eval", "--config", config, "--out", out]) == 0
            eval_oracle(checkpoint, dataset, metrics, step, classes, tmp / "oracle")
            for name in ("results.json", "curves.csv"):
                assert (out / name).read_bytes() == (tmp / "oracle" / name).read_bytes()


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

    def test_one_predict_call_evaluates_each_distinct_example_row_once(
            self, tmp_path, monkeypatch, sparse_model):
        """The probes of every example reach one ``predict`` call, and each
        distinct (example, probe row) pair is in it exactly once."""
        dataset, checkpoint = sparse_model
        calls = []

        def recording_predict(inputs, *model):
            calls.append(np.array(inputs))
            return predict(inputs, *model)

        monkeypatch.setattr(cli, "predict", recording_predict)
        classes = [0, 1, 2]
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset),
             "metrics": ALL_METRICS, "classes": classes, "seed": 3},
        )
        assert run(["eval", "--config", config, "--out", tmp_path / "out"]) == 0
        assert len(calls) == 1

        seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
        features, _ = _load_dataset(dataset)
        expected = []
        for x in features:
            attribution = sop_forward(x, seg, gen, sel, backbone)
            keeps = []
            for k in classes:
                groups, scores = attribution.groups, attribution.scores[:, k]
                alpha = faithfulness.flatten_grouped(groups, scores)
                ranking = faithfulness.ranking_from_attribution(alpha)
                ranked = faithfulness.ranked_coverage(ranking, 1)[1]
                grouped = faithfulness.grouped_coverage(groups, scores)[1]
                keeps.extend([ranked, grouped, ~ranked, ~grouped])
                keeps.append(faithfulness.rationale_keep(alpha > 0))
            # x has no zero entry, so distinct keep rows give distinct probes
            assert np.all(x != 0.0)
            expected.extend({np.where(keep, x, 0.0).tobytes() for keep in np.vstack(keeps)})
        assert sorted(row.tobytes() for row in calls[0]) == sorted(expected)
        assert len(expected) > PREDICT_BLOCK_ROWS


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
        (lambda c: {**c, "d": True}, ["field 'd' must be a positive integer, got True"]),
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
        (lambda c: {**c, "segment_assignment": "abc"},
         ["'segment_assignment' must hold integers, got <U3 entries"]),
        # np.prod of this shape wraps around to 0 in int64
        (lambda c: {**c, "heads": 2 ** 32, "n_segments": 2 ** 16, "w_q": []},
         ["'w_q' has 0 entries, expected 18446744073709551616 for shape "
          "(heads, n_segments, n_segments) = (4294967296, 65536, 65536)"]),
    ], ids=["only_d", "no_w_k", "no_backbone", "no_backbone_classifier", "float_heads",
            "bool_d", "ragged_w_q", "short_sel_w_k", "short_assignment", "assignment_range",
            "float_assignment", "bool_assignment", "integral_float_assignment",
            "string_assignment", "overflowing_w_q"])
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["w_q", "w_k", "sel_w_q", "sel_w_k", "classifier",
                                     "backbone.classifier"])
    def test_non_finite_entry_names_its_field(self, tmp_path, capsys, initial, key, value):
        """``json`` reads ``NaN`` and ``Infinity``.  Such an entry in ``w_q``
        used to be reported as ``v contains non-finite entries``, and one in
        ``sel_w_q`` or ``backbone.classifier`` under the model's own names
        (``w_q``, ``classifier``)."""
        dataset, ckpt = initial
        *parents, name = key.split(".")
        holder = ckpt
        for part in parents:
            holder = holder[part]
        entries = holder[name]
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[-1] = value
        checkpoint = tmp_path / "bad.json"
        checkpoint.write_text(json.dumps(ckpt))
        config = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(checkpoint), "dataset": str(dataset), "seed": 3},
        )
        out = tmp_path / "out"
        assert run(["eval", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"error: checkpoint {checkpoint}: field {key!r} holds a non-finite entry\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "label"])
    def test_checkpoint_the_model_refuses_is_named(self, tmp_path, capsys, command):
        """Selector weights of 1e15 * I make selector rows so large that no
        entry passes sparsemax's support test.  The refusal names the
        checkpoint, with no numpy warning before it (both commands used to
        print a division-by-zero warning and a score-check message that
        named no file)."""
        rng = np.random.default_rng(3)
        features, labels = rng.normal(size=(6, 8)), np.arange(6) % 2
        dataset = tmp_path / "data.csv"
        np.savetxt(dataset, np.column_stack([features, labels]), delimiter=",")
        backbone = class_mean_identity_backbone(features, labels)
        seg = Segmentation.contiguous(8, 4)
        gen = GroupGenParams(w_q=np.zeros((2, 4, 4)), w_k=np.zeros((2, 4, 4)))
        sel = GroupSelectParams(w_q=1e15 * np.eye(8), w_k=1e15 * np.eye(8),
                                classifier=backbone.classifier)
        checkpoint = tmp_path / "checkpoint.json"
        write_json_atomic(checkpoint, _checkpoint_dict(seg, gen, sel, backbone, {"seed": 1}))
        if command == "eval":
            inputs = {"dataset": dataset}
        else:
            inputs = {"map": tmp_path / "map.csv", "segmentation": tmp_path / "seg.csv"}
            np.savetxt(inputs["map"], features[0].reshape(2, 4), delimiter=",")
            np.savetxt(inputs["segmentation"], seg.assignment.reshape(2, 4), fmt="%d",
                       delimiter=",")
        config = write_config(tmp_path / "c.json", {
            "checkpoint": str(checkpoint), **{k: str(v) for k, v in inputs.items()}})
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {checkpoint}: sparsemax cannot project "
                              "a row of v") and err.count("\n") == 1, err
        assert not out.exists()


class TestLabel:
    @pytest.fixture
    def map_setup(self, tmp_path):
        rng = np.random.default_rng(0)
        # 4x4 maps; train splits the 16 pixels into 4 contiguous runs, the
        # map's rows, and the segmentation file gives the same strips
        seg_path = tmp_path / "seg.csv"
        np.savetxt(seg_path, np.repeat(np.arange(4), 4).reshape(4, 4), fmt="%d",
                   delimiter=",")

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

    def test_overflow_names_the_map(self, tmp_path, map_setup):
        """A map whose values overflow the model's arithmetic is refused with
        one line naming the checkpoint and the map; numpy's RuntimeWarning
        and the ops' ``v contains non-finite entries`` used to come first."""
        map_path, seg_path, checkpoint = map_setup
        huge = tmp_path / "huge.csv"
        np.savetxt(huge, np.loadtxt(map_path, delimiter=",") * 1e300, delimiter=",")
        config = write_config(
            tmp_path / "l.json",
            {"map": str(huge), "segmentation": str(seg_path), "checkpoint": str(checkpoint)})
        done = run_process(["label", "--config", config, "--out", tmp_path / "out"])
        assert done.returncode == 2
        assert done.stderr == (f"error: checkpoint {checkpoint}: floating-point failure on "
                               f"map {huge}: overflow encountered in matmul\n")
        assert not (tmp_path / "out").exists()

    def test_map_whose_mean_overflows_is_malformed(self, tmp_path, capsys, map_setup):
        """A map of finite entries whose mean overflows float64 is refused as
        malformed, in one line and before any RuntimeWarning (which this
        suite's warning filter turns into an error); numpy's overflow
        warning and ``map contains non-finite intensities`` used to say
        otherwise."""
        _, seg_path, checkpoint = map_setup
        values = np.full((4, 4), 1.5e308)
        values[0, 0] = 1.0e308
        huge = tmp_path / "huge.csv"
        np.savetxt(huge, values, delimiter=",")
        config = write_config(
            tmp_path / "l.json",
            {"map": str(huge), "segmentation": str(seg_path), "checkpoint": str(checkpoint)})
        assert run(["label", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed map {huge}: the map's mean intensity overflows float64\n")
        assert not (tmp_path / "out").exists()

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

    def test_segmentation_must_give_the_checkpoints_assignment(self, tmp_path, capsys,
                                                               monkeypatch, map_setup):
        """2x2 tiles give as many pixels and segments as the checkpoint's
        row strips, and were accepted: the map was pooled over segments the
        checkpoint was not trained on."""
        def refuse(*args, **kwargs):
            raise AssertionError("label ran the model on a foreign segmentation")

        monkeypatch.setattr(cli, "sop_forward", refuse)
        map_path, _, checkpoint = map_setup
        tiles = tmp_path / "tiles.csv"
        np.savetxt(tiles, [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]],
                   fmt="%d", delimiter=",")
        config = write_config(
            tmp_path / "l.json",
            {"map": str(map_path), "segmentation": str(tiles), "checkpoint": str(checkpoint)},
        )
        out = tmp_path / "out"
        assert run(["label", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: segmentation {tiles} does not give the segment assignment of "
            f"checkpoint {checkpoint}\n")
        assert not out.exists()

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


@pytest.fixture
def small_label(tmp_path):
    """A 2x4 map as CSV and SOPM, a 2x4 segmentation into left and right
    halves, and an untrained checkpoint for its 8 pixels and 2 segments."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=(2, 4))
    values[0, 0] = 9.0
    np.savetxt(tmp_path / "map.csv", values, delimiter=",")
    structures.write_map_binary(tmp_path / "map.sopm", values)
    np.savetxt(tmp_path / "seg.csv", [[0, 0, 1, 1], [0, 0, 1, 1]], fmt="%d", delimiter=",")
    seg = Segmentation(assignment=np.array([0, 0, 1, 1, 0, 0, 1, 1]), n_segments=2)
    backbone = identity_backbone(rng.normal(size=(2, 8)))
    gen = GroupGenParams.random(2, 2, rng, std=1.0)
    sel = GroupSelectParams.random(backbone, rng, std=1.0)
    write_json_atomic(tmp_path / "checkpoint.json",
                      _checkpoint_dict(seg, gen, sel, backbone, {"seed": 1}))
    return {"map": tmp_path / "map.csv", "map_format": "csv",
            "segmentation": tmp_path / "seg.csv", "checkpoint": tmp_path / "checkpoint.json"}


# per input file: the noun its errors use, and malformed contents for it
BAD_INPUTS = {
    "config": ("config", b"{not json"),
    "dataset": ("dataset", b"1.0,2.0,0\n1.0,x,1\n"),
    "checkpoint": ("checkpoint", b'{"d": 8,'),
    "map": ("map", b"1.0,2.0\n3.0,abc\n"),
    "binary_map": ("map", b"XXXX" + bytes(12)),
    "segmentation": ("segmentation", b"0,0\n1,a\n"),
}


class TestInputFiles:
    def label_config(self, tmp_path, inputs, **fields):
        return write_config(tmp_path / "label.json",
                            {k: str(v) for k, v in {**inputs, **fields}.items()})

    @pytest.mark.parametrize("map_format", ["csv", "binary"])
    def test_small_label_inputs_label(self, tmp_path, small_label, map_format):
        map_file = small_label["map"].with_suffix(".sopm" if map_format == "binary" else ".csv")
        config = self.label_config(tmp_path, small_label, map=map_file, map_format=map_format)
        out = tmp_path / "out"
        assert run(["label", "--config", config, "--out", out]) == 0
        assert len((out / "labels.csv").read_text().splitlines()) == 5

    @pytest.mark.parametrize("which, problem", [
        *((which, problem) for which in BAD_INPUTS
          for problem in ("missing", "malformed", "empty")),
        ("config", "nested"), ("checkpoint", "nested"),
    ])
    def test_unreadable_or_malformed_file_names_it(self, tmp_path, capsys, small_label,
                                                   which, problem):
        """Every input file, missing, malformed or empty, exits 2 with one
        error line naming it: a missing map or segmentation ended in a
        traceback, an empty text file printed numpy's warning first, and a
        JSON file nested too deep ended in a ``RecursionError``."""
        noun, contents = BAD_INPUTS[which]
        if problem == "nested":
            contents = b"[" * 100_000 + b"]" * 100_000
        bad = tmp_path / f"bad-{which}"
        if problem != "missing":
            bad.write_bytes(b"" if problem == "empty" else contents)
        command = "label"
        if which == "config":
            config = bad
        elif which == "dataset":
            command = "train"
            config = write_config(tmp_path / "train.json",
                                  {"dataset": str(bad), "steps": 1, "seed": 1})
        elif which == "binary_map":
            config = self.label_config(tmp_path, small_label, map=bad, map_format="binary")
        else:
            config = self.label_config(tmp_path, small_label, **{which: bad})
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        prefix = "cannot read" if problem == "missing" else "malformed"
        assert err.startswith(f"error: {prefix} {noun} {bad}: "), err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_missing_map_prints_no_traceback(self, tmp_path, small_label):
        config = self.label_config(tmp_path, small_label, map=tmp_path / "none.csv")
        proc = run_process(["label", "--config", config, "--out", tmp_path / "out"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: cannot read map {tmp_path / 'none.csv'}: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_transposed_segmentation_grid_is_refused(self, tmp_path, capsys, small_label):
        """A 4x2 segmentation over the 2x4 map covers as many pixels, with
        a checkpoint of 8 features and 2 segments, and was accepted: it
        labelled the wrong pixels."""
        seg = tmp_path / "transposed.csv"
        np.savetxt(seg, [[0, 0], [0, 0], [1, 1], [1, 1]], fmt="%d", delimiter=",")
        config = self.label_config(tmp_path, small_label, segmentation=seg)
        out = tmp_path / "out"
        assert run(["label", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"error: malformed segmentation {seg}: grid is 4x2, not the map's 2x4\n"
        assert not (out / "labels.csv").exists()

    def test_one_labelling_and_one_sigma_per_map(self, tmp_path, monkeypatch, small_label):
        """``label`` labels every group in one ``label_groups`` call, which
        reads the map's sigma once; it used to label each group twice, and
        read sigma once per labelling."""
        counts = {"sigma": 0, "label_groups": 0}
        sigma, label_groups = structures.IntensityMap.sigma, structures.label_groups

        def counted_sigma(imap):
            counts["sigma"] += 1
            return sigma.fget(imap)

        def counted_label_groups(*args):
            counts["label_groups"] += 1
            return label_groups(*args)

        monkeypatch.setattr(structures.IntensityMap, "sigma", property(counted_sigma))
        monkeypatch.setattr(structures, "label_groups", counted_label_groups)
        config = self.label_config(tmp_path, small_label)
        assert run(["label", "--config", config, "--out", tmp_path / "out"]) == 0
        assert counts == {"sigma": 1, "label_groups": 1}

    def test_a_bug_is_not_an_input_error(self, tmp_path, monkeypatch, small_label):
        """Only a ValueError is an input error (exit 2); a KeyError from a
        bug propagates, rather than printing ``error: 'x'``."""
        def broken(*args):
            raise KeyError("x")

        monkeypatch.setattr(structures, "label_groups", broken)
        config = self.label_config(tmp_path, small_label)
        with pytest.raises(KeyError):
            run(["label", "--config", config, "--out", tmp_path / "out"])


class TestReportSchema:
    def test_schema_is_pinned(self):
        """``REPORT_SCHEMA`` is built from ``faithfulness.METRICS``; it stays
        this literal, key order included, since the benchmark validates
        ``eval`` reports against it."""
        block = {
            "type": "object",
            "required": ["mean", "per_case"],
            "properties": {
                "mean": {"type": "number"},
                "per_case": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        }
        literal = {
            "type": "object",
            "required": ["metadata"],
            "properties": {
                "metadata": {
                    "type": "object",
                    "required": ["checkpoint", "dataset", "classes", "step", "probability"],
                },
                "accuracy": {"type": "number"},
                "insertion": block,
                "deletion": block,
                "grouped_insertion": block,
                "grouped_deletion": block,
                "sparsity": block,
                "comprehensiveness": block,
                "sufficiency": block,
            },
            "additionalProperties": False,
        }
        assert json.dumps(REPORT_SCHEMA) == json.dumps(literal)
        assert list(cli.EVAL_METRICS) == ALL_METRICS
        assert cli.EVAL_METRICS[1:] == faithfulness.METRICS


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

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, out):
        """``--out`` below a regular file ended in a ``NotADirectoryError``
        traceback with exit 1, the code of a failed gate."""
        (tmp_path / "afile").write_text("")
        config = write_config(tmp_path / "c.json", {"family": "lemma", "dimensions": [3]})
        done = run_process(["certify", "--config", config, "--out", tmp_path / out])
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: cannot create output directory {tmp_path / out}: ")
        assert done.stderr.count("\n") == 1 and done.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json"]
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("blocked", ["results.json", "curves.csv"])
    def test_artifact_that_cannot_be_written(self, tmp_path, blocked):
        """A directory where an artifact goes ended in an ``IsADirectoryError``
        traceback from the atomic rename, with exit 1.  The artifacts written
        before it stay, and its temporary file is removed."""
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        config = write_config(tmp_path / "c.json", {"family": "lemma", "dimensions": [3]})
        done = run_process(["certify", "--config", config, "--out", out])
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: cannot write {out / blocked}: ")
        assert done.stderr.count("\n") == 1 and done.stdout == ""
        written = ["results.json"] if blocked == "curves.csv" else []
        assert sorted(p.name for p in out.iterdir()) == sorted([blocked, *written])
        assert not any((out / blocked).iterdir())

    @pytest.mark.parametrize("command, fields", [
        ("certify", {"family": "corollary", "kind": "nope", "dimensions": [3]}),
        ("train", {"dataset": "blobs.csv", "learning_rate": 0, "seed": 1}),
        ("eval", {"checkpoint": "checkpoint.json", "dataset": "blobs.csv", "metrics": 5}),
        ("label", {"map": "map.csv", "segmentation": "seg.csv",
                   "checkpoint": "checkpoint.json", "cluster_sigma": -1}),
    ], ids=["certify", "train", "eval", "label"])
    def test_refused_config_creates_no_output_directory(self, tmp_path, capsys, command,
                                                        fields):
        """``main`` made ``--out`` before the command read its config, so
        every refused config left an empty directory behind."""
        config = write_config(tmp_path / "c.json", fields)
        assert run([command, "--config", config, "--out", tmp_path / "out" / "sub"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_commands_return_their_artifacts(self, tmp_path, monkeypatch):
        """A command takes its config alone and writes nothing; ``main``
        writes the artifacts it returns."""
        for command in cli._COMMANDS.values():
            assert list(inspect.signature(command).parameters) == ["config"]
        monkeypatch.chdir(tmp_path)
        code, artifacts = cli.cmd_certify({"family": "lemma", "dimensions": [1, 2]})
        assert list(tmp_path.iterdir()) == []
        assert (code, artifacts) == (0, {
            "results.json": {"family": "lemma", "points": [[1, 1.0], [2, 1.0]],
                             "gates": {"total_is_one": True}},
            "curves.csv": (["d", "value", "fitted"], [(1, 1.0, 1.0), (2, 1.0, 1.0)]),
        })

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
            ("train", {"steps": -1}, "steps"),
            ("train", {"heads": 0}, "heads"),
            ("train", {"segments": 0}, "segments"),
            ("train", {"segments": 9}, "segments"),
            ("certify", {"family": "monomial", "d_min": 2.0}, "d_min"),
            ("certify", {"family": "monomial", "d_max": True}, "d_max"),
            ("certify", {"family": "binomial", "dimensions": [3, 6.5]}, "dimensions"),
            ("certify", {"family": "lemma", "dimensions": [False]}, "dimensions"),
            ("certify", {"family": "corollary", "dimensions": 6}, "dimensions"),
            ("label", {"seed": True}, "seed"),
            ("label", {"map_format": "png"}, "map_format"),
        ]
    ])
    def test_integer_fields_reject_other_values(self, tmp_path, capsys, command,
                                                fields, key):
        """Integer fields take JSON integers in their range only: ``int()``
        would truncate a float and read a bool as 0 or 1, and ``segments``
        above the dataset's 8 features, ``heads: 0`` and a bad
        ``map_format`` were refused in words that did not name the field."""
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
        assert not out.exists()

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
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])
    assert not loaded, (name, loaded)
"""


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        """No command imports scipy or ``numpy.ma`` (15 ms and 1.6 MB on its
        first import), every ``certify`` family included, and the monomial
        and binomial families still find the exact optima."""
        rng = np.random.default_rng(0)
        maps = rng.normal(size=(12, 16))
        labels = (maps[:, :4].sum(axis=1) > 0).astype(int)
        dataset = tmp_path / "maps.csv"
        np.savetxt(dataset, np.column_stack([maps, labels]), delimiter=",")
        np.savetxt(tmp_path / "map.csv", rng.normal(size=(4, 4)), delimiter=",")
        # the map's rows: train's 4 contiguous segments of the 16 pixels
        np.savetxt(tmp_path / "seg.csv", np.repeat(np.arange(4), 4).reshape(4, 4),
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
