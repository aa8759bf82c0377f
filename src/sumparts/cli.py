"""Experiment runner: ``certify``, ``train``, ``eval``, and ``label``.

Every command reads a strict JSON config (unknown keys rejected), lets
flags override scalar config fields, and returns its exit code and its
artifacts.  ``main`` creates ``--out`` and writes them there only when the
command exits 0 or 1, atomically, with sorted keys and fixed float
formatting, so a rerun of the same config is byte-identical.  Diagnostics
go to stderr.  Exit codes:

- 0: the command ran and every internal tolerance gate passed;
- 1: a gate failed;
- 2: a config, usage or input error (bad JSON, unknown keys, an unreadable
  or malformed config, dataset, checkpoint, map or segmentation file, an
  ``--out`` directory that cannot be created or an artifact that cannot be
  written there);
- 3: a numerical failure, such as a training run whose loss diverges.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import certificates, faithfulness, structures
from .model import (
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    explain,
    predict,
    sop_forward,
)
from .ops import softmax
from .serialize import write_csv_atomic, write_json_atomic
from .training import TrainConfig, train, training_accuracy

MONOMIAL_SLOPE = 0.664
BINOMIAL_SLOPE = 0.198
SLOPE_TOLERANCE = 0.05
ANCHOR_TOLERANCE = 1e-6

_METRIC_BLOCK = {
    "type": "object",
    "required": ["mean", "per_case"],
    "properties": {
        "mean": {"type": "number"},
        "per_case": {"type": "array", "items": {"type": "number"}},
    },
    "additionalProperties": False,
}

# published schema for the eval report (results.json)
REPORT_SCHEMA = {
    "type": "object",
    "required": ["metadata"],
    "properties": {
        "metadata": {
            "type": "object",
            "required": ["checkpoint", "dataset", "classes", "step", "probability"],
        },
        "accuracy": {"type": "number"},
        **dict.fromkeys(faithfulness.METRICS, _METRIC_BLOCK),
    },
    "additionalProperties": False,
}
EVAL_METRICS = ("accuracy",) + faithfulness.METRICS

# the keys each certify family reads, besides "family" and "seed"
_CERTIFY_KEYS = {
    "monomial": {"d_min", "d_max"},
    "binomial": {"dimensions"},
    "lemma": {"dimensions"},
    "corollary": {"dimensions", "kind"},
}
# per fitted certify family: the reference window its published slope is
# calibrated on, that slope, whether the fit has an offset, and exact anchors
_FITTED = {
    "monomial": (set(range(2, 15)), MONOMIAL_SLOPE, False, {2: 1.0, 3: 2.0}),
    "binomial": ({3, 6, 9, 12, 15}, BINOMIAL_SLOPE, True, {}),
}
_CONFIG_KEYS = {
    "certify": {"seed", "family"}.union(*_CERTIFY_KEYS.values()),
    "train": {"seed", "dataset", "steps", "learning_rate", "heads", "segments"},
    "eval": {"seed", "checkpoint", "dataset", "metrics", "step", "classes"},
    "label": {"seed", "map", "map_format", "segmentation", "checkpoint",
              "cluster_sigma"},
}


class ConfigError(ValueError):
    pass


def _field(config: dict, key: str, default=None, *rules):
    """The value at ``key``, or ``default``, checked against ``(test,
    words)`` rules in order: the first test that fails is a ConfigError
    ``config field '<key>' <words>, got <value>``, with the value as read."""
    value = config.get(key, default)
    for test, words in rules:
        if not test(value):
            raise ConfigError(f"config field {key!r} {words}, got {value!r}")
    return value


def _is_integer(value) -> bool:
    # int() would truncate 1.7 to 1 and read ``true`` as 1
    return isinstance(value, int) and not isinstance(value, bool)


def _at_least(least):
    return (lambda value: value >= least), f"must be at least {least}"


_INTEGER = _is_integer, "must be an integer"
_INTEGER_LIST = ((lambda value: isinstance(value, list) and all(map(_is_integer, value))),
                 "must be a list of integers")
# an int or a float, but no bool; the range test is false for NaN, and exact
# for an int too large for ``float``, which would overflow there
_NUMBER = ((lambda value: not isinstance(value, bool) and isinstance(value, (int, float))
            and -sys.float_info.max <= value <= sys.float_info.max), "must be a finite number")
# ``open(7)`` would take over file descriptor 7
_PATH = (lambda value: isinstance(value, str)), "must be a path string"


def _dimensions(family: str, limit: int, step: int = 1, fewest: int = 1) -> tuple:
    """The rules of a certify family's ``dimensions``: a list of integers, at
    least ``fewest`` long and with no entry repeated (an empty list passes
    every gate on nothing, a fit needs three points, and a repeated d fits a
    curve through fewer points than it shows), each a positive multiple of
    ``step`` up to ``limit``, so that no entry fails after the others have
    been worked out."""
    what = "integers" if step == 1 else f"multiples of {step}"
    return (_INTEGER_LIST,
            ((lambda dims: len(dims) >= fewest and len(set(dims)) == len(dims)),
             f"must be a list of {fewest} or more distinct integers"),
            ((lambda dims: all(0 < d <= limit and d % step == 0 for d in dims)),
             f"of the {family} must hold {what} from {step} to {limit - limit % step}"))


def _read(what: str, path: str, load):
    """``load(path)``, with an unreadable file (an ``OSError``) or malformed
    contents as a ConfigError naming the file.  Malformed contents raise a
    ``ValueError``, a ``RecursionError`` (JSON nested too deep) or numpy's
    ``UserWarning`` that a file holds no data."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            return load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError, UserWarning) as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_config(command: str, path: str, overrides: dict) -> dict:
    config = _read("config", path, _load_json)
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    if command == "train" and "seed" not in config:
        raise ConfigError("train requires a seed")
    if "seed" in config:
        _field(config, "seed", None, _INTEGER)
    return config


def cmd_certify(config: dict) -> tuple[int, dict]:
    # in a tuple, not the dict, which cannot hash a list value
    family = _field(config, "family", None,
                    ((lambda name: name in tuple(_CERTIFY_KEYS)),
                     "must be one of monomial/binomial/lemma/corollary"))
    unread = sorted(set(config) - {"family", "seed"} - _CERTIFY_KEYS[family])
    if unread:
        raise ConfigError(f"certify family {family!r} does not read config keys {unread}")
    gates: dict[str, bool] = {}
    result: dict = {"family": family}

    if family in _FITTED:
        window, target, with_offset, anchors = _FITTED[family]
        if family == "monomial":
            limit = certificates.SCAN_DIMENSION_LIMIT
            d_min = _field(config, "d_min", 2, _INTEGER, _at_least(2))
            d_max = _field(config, "d_max", 14, _INTEGER,
                           ((lambda d: d <= limit),
                            f"must be at most {limit} for the monomial family"))
            if d_max - d_min < 2:
                raise ConfigError(
                    "config fields 'd_min' and 'd_max' must span 3 or more dimensions to "
                    f"fit, got d_min={d_min} and d_max={d_max}")
            dims, minimum = list(range(d_min, d_max + 1)), certificates.monomial_scan_minimum
        else:
            dims = _field(config, "dimensions", sorted(window), *_dimensions(
                "binomial family", certificates.BINOMIAL_DIMENSION_LIMIT, step=3, fewest=3))
            minimum = certificates.binomial_scan_minimum
        points = [(d, minimum(d)) for d in dims]
        fit = certificates.fit_exponential(points, with_offset=with_offset)
        result["points"] = [[d, v] for d, v in points]
        result["fit"] = dataclasses.asdict(fit)
        curves = ["d", "value", "fitted"], [(d, v, float(fit.predict(d))) for d, v in points]
        # the published slope tolerance is calibrated on the reference
        # window; narrower runs report the fit without gating on it
        if window <= set(dims):
            gates["slope_within_tolerance"] = abs(fit.slope - target) <= SLOPE_TOLERANCE
        values = dict(points)
        for d, exact in anchors.items():
            if d in values:
                gates[f"anchor_d{d}"] = abs(values[d] - exact) <= ANCHOR_TOLERANCE
    elif family == "lemma":
        dims = _field(config, "dimensions", list(range(1, 17)),
                      *_dimensions("lemma family", faithfulness.POWERSET_LIMIT))
        points = [(d, certificates.verify_lemma_monomial_insertion(d)) for d in dims]
        result["points"] = [[d, v] for d, v in points]
        gates["total_is_one"] = all(v == 1.0 for _, v in points)
        curves = ["d", "value", "fitted"], [(d, v, 1.0) for d, v in points]
    else:
        kind = _field(config, "kind", "binomial",
                      ((lambda kind: kind in ("monomial", "binomial")),
                       "of the corollary family must be 'monomial' or 'binomial'"))
        dims = _field(config, "dimensions", [6], *_dimensions(
            f"corollary family (kind {kind!r})", faithfulness.POWERSET_LIMIT,
            step=3 if kind == "binomial" else 1))
        specs = [certificates.PolynomialSpec(kind, d) for d in dims]
        rows = [(spec.d, *certificates.verify_corollary_grouped(spec)) for spec in specs]
        result["kind"] = kind
        result["points"] = [[d, md, mi] for d, md, mi in rows]
        gates["grouped_errors_zero"] = all(
            md == 0.0 and mi == 0.0 for _, md, mi in rows
        )
        curves = ["d", "max_deletion", "max_insertion"], rows

    result["gates"] = gates
    return 0 if all(gates.values()) else 1, {"results.json": result, "curves.csv": curves}


def _dataset_line(path, bad) -> int:
    """The file line of the first data row where the boolean ``bad`` holds;
    as np.loadtxt does, count the lines with text before any # comment."""
    with open(path) as fh:
        rows = [n for n, line in enumerate(fh, 1) if line.split("#", 1)[0].strip()]
    return rows[np.argmax(bad)]


def _load_dataset(path):
    data = _read("dataset", path, lambda p: np.loadtxt(p, delimiter=",", ndmin=2))
    if data.shape[1] < 2:
        raise ConfigError("dataset rows need at least one feature and a label")
    features = data[:, :-1]
    labels = data[:, -1]
    # false for NaN too, so the int64 cast below sees only integers it holds
    integral = (labels == np.trunc(labels)) & (0 <= labels) & (labels < 2.0 ** 63)
    for bad, problem in ((~np.isfinite(features).all(axis=1), "a feature is not finite"),
                         (~integral, "label is not an integer in [0, 2^63)")):
        if bad.any():
            raise ConfigError(f"dataset {path} line {_dataset_line(path, bad)}: {problem}")
    return features, labels.astype(np.int64)


def _class_mean_backbone(features, labels, path):
    """The (n_classes, d) backbone classifier whose rows are the per-class
    feature means (a linear stand-in for a pretrained classifier); every
    class up to the largest label needs an example."""
    ordered = np.sort(labels)
    # np.unique would import numpy.ma (15 ms, 1 MB), which train needs nowhere else
    classes = ordered[np.diff(ordered, prepend=-1) > 0]
    # the first class missing is the first k with classes[k] != k
    missing = np.flatnonzero(classes != np.arange(classes.size))
    if missing.size:
        raise ConfigError(f"dataset {path} has no example of class {missing[0]} "
                          f"(its largest label is {classes[-1]})")
    return np.vstack([features[labels == k].mean(axis=0) for k in classes])


def _checkpoint_dict(seg, gen, sel, class_means, config):
    return {
        "d": seg.n_features,
        "h": class_means.shape[1],
        "heads": gen.heads,
        "n_segments": seg.n_segments,
        "n_classes": sel.n_classes,
        "seed": config["seed"],
        "segment_assignment": seg.assignment.tolist(),
        "w_q": [w.ravel().tolist() for w in gen.w_q],
        "w_k": [w.ravel().tolist() for w in gen.w_k],
        "sel_w_q": sel.w_q.ravel().tolist(),
        "sel_w_k": sel.w_k.ravel().tolist(),
        "classifier": sel.classifier.ravel().tolist(),
        "backbone": {
            "kind": "identity",
            "classifier": class_means.ravel().tolist(),
        },
    }


def _checkpoint_field(ckpt, path, key):
    """The value at a dotted checkpoint key, or a ConfigError naming the key."""
    value = ckpt
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise ConfigError(f"checkpoint {path}: missing field {key!r}")
        value = value[part]
    return value


def _restore_checkpoint(path):
    ckpt = _read("checkpoint", path, _load_json)
    sizes = {}
    for key in ("d", "h", "n_segments", "n_classes", "heads"):
        value = _checkpoint_field(ckpt, path, key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(
                f"checkpoint {path}: field {key!r} must be a positive integer, "
                f"got {value!r}"
            )
        sizes[key] = value

    def array(key, dims, dtype=np.float64):
        """The field at ``key`` as an array of ``dims``; with ``dtype=None``
        one of integers, inferred, not cast (int64 would truncate 0.9 to 0
        and read true as 1), with no JSON boolean among them, else one of
        finite floats (``json`` reads ``NaN`` and ``Infinity``)."""
        shape = tuple(sizes[dim] for dim in dims)
        try:
            raw = _checkpoint_field(ckpt, path, key)
            value = np.array(raw, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"checkpoint {path}: field {key!r} is not a numeric array: {exc}"
            ) from exc
        if dtype is None:
            # booleans among integers are inferred as int64, True as 1
            mixed = value.dtype.kind == "i" and any(
                isinstance(entry, bool) for entry in np.array(raw, dtype=object).flat)
            if value.dtype.kind != "i" or mixed:
                raise ConfigError(f"checkpoint {path}: field {key!r} must hold integers, "
                                  f"got {'bool' if mixed else value.dtype} entries")
        if dtype is not None and not np.isfinite(value).all():
            raise ConfigError(f"checkpoint {path}: field {key!r} holds a non-finite entry")
        # math.prod, since np.prod wraps around in int64: (2^32, 2^16, 2^16) gives 0
        if value.size != math.prod(shape):
            raise ConfigError(
                f"checkpoint {path}: field {key!r} has {value.size} entries, expected "
                f"{math.prod(shape)} for shape ({', '.join(dims)}) = {shape}"
            )
        return value.reshape(shape)

    kind = _checkpoint_field(ckpt, path, "backbone.kind")
    if kind != "identity":
        raise ConfigError(f"checkpoint {path}: unsupported backbone kind {kind!r}")
    if sizes["h"] != sizes["d"]:
        raise ConfigError(f"checkpoint {path}: an identity backbone needs h == d, "
                          f"got h={sizes['h']} and d={sizes['d']}")
    assignment = array("segment_assignment", ("d",), None)
    gen_shape = ("heads", "n_segments", "n_segments")
    w_q, w_k = array("w_q", gen_shape), array("w_k", gen_shape)
    sel_w_q, sel_w_k = array("sel_w_q", ("h", "h")), array("sel_w_k", ("h", "h"))
    classifier = array("classifier", ("n_classes", "h"))
    # eval computes nothing from it, and label's sop_forward checks its width
    backbone = array("backbone.classifier", ("n_classes", "d"))
    try:
        seg = Segmentation(assignment=assignment, n_segments=sizes["n_segments"])
        gen = GroupGenParams(w_q=w_q, w_k=w_k)
        sel = GroupSelectParams(w_q=sel_w_q, w_k=sel_w_k, classifier=classifier)
    except ValueError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return seg, gen, sel, backbone


@contextlib.contextmanager
def _model_calls(checkpoint, what: str, path):
    """Run a checkpoint's model on an input file, numpy raising where a step
    overflows, divides by zero or makes a NaN; that failure, naming the input
    too, and the model's refusal of a value are ConfigErrors naming the checkpoint."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(f"checkpoint {checkpoint}: floating-point failure on "
                          f"{what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"checkpoint {checkpoint}: {exc}") from exc


def cmd_train(config: dict) -> tuple[int, dict]:
    seed = _field(config, "seed", None, _INTEGER, _at_least(0))
    learning_rate = float(_field(config, "learning_rate", 0.1, _NUMBER,
                                 ((lambda rate: rate > 0), "must be positive")))
    dataset = _field(config, "dataset", None, _PATH)
    features, labels = _load_dataset(dataset)
    n_features = features.shape[1]
    segments = _field(config, "segments", 2, _INTEGER, _at_least(1), (
        (lambda m: m <= n_features), f"must be at most the dataset's {n_features} features"))
    seg = Segmentation.contiguous(n_features, segments)
    class_means = _class_mean_backbone(features, labels, dataset)
    train_config = TrainConfig(
        steps=_field(config, "steps", 200, _INTEGER, _at_least(0)),
        learning_rate=learning_rate,
        seed=seed,
        heads=_field(config, "heads", 2, _INTEGER, _at_least(1)),
    )
    result = train(features, labels, seg, class_means, train_config)
    history = result.loss_history
    return 0, {
        "checkpoint.json": _checkpoint_dict(seg, result.gen_params, result.sel_params,
                                            class_means, config),
        "loss_history.csv": (["step", "loss"], list(enumerate(history))),
        "results.json": {"training_accuracy": result.training_accuracy,
                         "steps": train_config.steps,
                         "final_loss": history[-1] if history else None},
    }


def cmd_eval(config: dict) -> tuple[int, dict]:
    checkpoint = _field(config, "checkpoint", None, _PATH)
    dataset = _field(config, "dataset", None, _PATH)
    metrics = _field(
        config, "metrics",
        ["accuracy", "insertion", "deletion", "grouped_insertion",
         "grouped_deletion", "sparsity"],
        ((lambda names: isinstance(names, list) and all(isinstance(m, str) for m in names)),
         "must be a list of metric names"),
        ((lambda names: set(names) <= set(EVAL_METRICS)),
         f"must name metrics from {list(EVAL_METRICS)}"),
        ((lambda names: len(names) > 0), "must name at least one metric"),
        ((lambda names: len(set(names)) == len(names)), "must not repeat a metric"))
    step = _field(config, "step", 1, _INTEGER, _at_least(1))
    classes = _field(config, "classes", [0], _INTEGER_LIST,
                     ((lambda ks: len(ks) > 0), "must name at least one class"),
                     ((lambda ks: len(set(ks)) == len(ks)), "must not repeat a class"))
    seg, gen, sel, _ = _restore_checkpoint(checkpoint)
    features, labels = _load_dataset(dataset)
    if features.shape[1] != seg.n_features:
        raise ConfigError(
            f"dataset has {features.shape[1]} features, checkpoint expects {seg.n_features}"
        )
    # the classes once more, now that the checkpoint's class count is known
    _field(config, "classes", [0],
           ((lambda ks: all(0 <= k < sel.n_classes for k in ks)),
            f"must name classes of checkpoint {checkpoint} ({sel.n_classes} classes)"))
    # only the accuracy reads the labels
    unknown = labels >= sel.n_classes
    if "accuracy" in metrics and unknown.any():
        raise ConfigError(
            f"dataset {dataset} line {_dataset_line(dataset, unknown)}: label "
            f"{labels[np.argmax(unknown)]} is not a class of checkpoint {checkpoint} "
            f"({sel.n_classes} classes)")

    report: dict = {"metadata": {
        "checkpoint": checkpoint,
        "dataset": dataset,
        "classes": classes,
        "step": step,
        "probability": "raw class probability (softmax of the prediction)",
    }}
    curve_rows = []
    aggregates: dict[str, list[float]] = {m: [] for m in metrics if m != "accuracy"}

    def model(rows):
        return softmax(predict(rows, seg, gen, sel))

    with _model_calls(checkpoint, "dataset", dataset):
        if "accuracy" in metrics:
            report["accuracy"] = training_accuracy(features, labels, seg, gen, sel)
        groups, scores = explain(features, seg, gen, sel)
        results = faithfulness.evaluate_examples(model, features, groups, scores, classes,
                                                 list(aggregates), step)
    for index, example in enumerate(results):
        for k, result in zip(classes, example):
            for name, value in result.items():
                if isinstance(value, faithfulness.PerturbationReport):
                    # one row per curve, one line per point
                    curve_rows.append((name, index, k, value.fractions, value.probabilities))
                    value = value.auc
                aggregates[name].append(value)

    for name, values in aggregates.items():
        if values:
            report[name] = {"mean": float(np.mean(values)), "per_case": values}

    return 0, {"results.json": report,
               "curves.csv": (["metric", "example", "class", "fraction", "probability"],
                              curve_rows)}


def cmd_label(config: dict) -> tuple[int, dict]:
    map_path = _field(config, "map", None, _PATH)
    seg_path = _field(config, "segmentation", None, _PATH)
    checkpoint = _field(config, "checkpoint", None, _PATH)
    cluster_sigma = float(_field(config, "cluster_sigma", 3.0, _NUMBER,
                                 ((lambda sigma: sigma >= 0), "must be non-negative")))
    map_format = _field(config, "map_format", "csv",
                        ((lambda fmt: fmt in ("csv", "binary")), "must be 'csv' or 'binary'"))
    imap = _read("map", map_path, structures.load_map_csv if map_format == "csv"
                 else structures.load_map_binary)
    grid = _read("segmentation", seg_path,
                 lambda p: structures.load_segmentation_csv(p, imap.values.shape))
    seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
    if not np.array_equal(grid.assignment, seg.assignment):
        raise ConfigError(f"segmentation {seg_path} does not give the segment "
                          f"assignment of checkpoint {checkpoint}")

    with _model_calls(checkpoint, "map", map_path):
        attribution = sop_forward(imap.flat, seg, gen, sel, backbone)
        intensities, kinds = structures.label_groups(imap, attribution.groups, cluster_sigma)
    rows = [(g, intensities[g], kinds[g], *map(float, scores))
            for g, scores in enumerate(attribution.scores)]
    masses = structures.score_mass_by_label(kinds, attribution)
    # the artifact keeps its per-map list, which holds this one map
    histogram = {"cluster_sigma": cluster_sigma,
                 "targets": {k: {kind: {"per_map": [mass], "mean": mass}
                                 for kind, mass in per_kind.items()}
                             for k, per_kind in masses.items()}}

    header = ["group", "intensity", "label"] + [f"score_class_{k}"
                                                for k in range(attribution.n_classes)]
    return 0, {"labels.csv": (header, rows), "results.json": histogram}


_COMMANDS = {
    "certify": cmd_certify,
    "train": cmd_train,
    "eval": cmd_eval,
    "label": cmd_label,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sumparts",
        description="Grouped-attribution experiments: certificates, training, "
                    "faithfulness metrics, and structure labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="strict JSON config file")
        cmd.add_argument("--out", required=True, help="artifact output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    try:
        config = _load_config(args.command, args.config, {"seed": args.seed})
        code, artifacts = _COMMANDS[args.command](config)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's refusal of an array larger than memory, such as a "heads"
        # of 10**15: the config asks for more than the machine has
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    for name, content in artifacts.items():
        try:
            if name.endswith(".csv"):
                write_csv_atomic(out_dir / name, *content)
            else:
                write_json_atomic(out_dir / name, content)
        except OSError as exc:
            # the artifacts written before this one stay
            print(f"error: cannot write {out_dir / name}: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
