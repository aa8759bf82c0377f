"""Experiment runner: ``certify``, ``train``, ``eval``, and ``label``.

Every command reads a strict JSON config (unknown keys rejected), takes
``--out`` for the artifact directory, and lets flags override scalar
config fields.  Artifacts are written atomically with sorted keys and
fixed float formatting, so a rerun of the same config is byte-identical.
Diagnostics go to stderr.  Exit codes:

- 0: the command ran and every internal tolerance gate passed;
- 1: a gate failed;
- 2: a config, usage or input error (bad JSON, unknown keys, unreadable or
  malformed dataset or checkpoint);
- 3: a numerical failure, such as a training run whose loss diverges.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import certificates, faithfulness, structures
from .model import (
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    identity_backbone,
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
        "insertion": _METRIC_BLOCK,
        "deletion": _METRIC_BLOCK,
        "grouped_insertion": _METRIC_BLOCK,
        "grouped_deletion": _METRIC_BLOCK,
        "sparsity": _METRIC_BLOCK,
        "comprehensiveness": _METRIC_BLOCK,
        "sufficiency": _METRIC_BLOCK,
    },
    "additionalProperties": False,
}
EVAL_METRICS = tuple(name for name in REPORT_SCHEMA["properties"] if name != "metadata")

_CONFIG_KEYS = {
    "certify": {"seed", "family", "d_min", "d_max", "dimensions", "kind"},
    "train": {"seed", "dataset", "steps", "learning_rate", "heads", "segments"},
    "eval": {"seed", "checkpoint", "dataset", "metrics", "step", "classes"},
    "label": {"seed", "map", "map_format", "segmentation", "checkpoint",
              "cluster_sigma"},
}


class ConfigError(ValueError):
    pass


def _is_integer(value) -> bool:
    # int() would truncate 1.7 to 1 and read ``true`` as 1
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(config: dict, key: str, default=None) -> int:
    """The JSON integer at ``key``; a float, a bool or anything else is a
    ConfigError naming the key and the value."""
    value = config.get(key, default)
    if not _is_integer(value):
        raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
    return value


def _number(config: dict, key: str, default: float) -> float:
    """The finite JSON number at ``key``, as a float; a bool, a string,
    anything else, NaN or an infinity is a ConfigError naming the key and
    the value."""
    value = config.get(key, default)
    # the range test is false for NaN, and exact for an int too large for
    # ``float``, which would overflow there
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"config field {key!r} must be a finite number, got {value!r}")
    return float(value)


def _path(config: dict, key: str) -> str:
    """The file path at ``key``; anything but a string is a ConfigError
    naming the key (``open(7)`` would take over file descriptor 7)."""
    value = config.get(key)
    if not isinstance(value, str):
        raise ConfigError(f"config field {key!r} must be a path string, got {value!r}")
    return value


def _integer_list(config: dict, key: str, default: list) -> list[int]:
    """The list of JSON integers at ``key``, checked as in ``_integer``."""
    value = config.get(key, default)
    if not isinstance(value, list) or not all(map(_is_integer, value)):
        raise ConfigError(
            f"config field {key!r} must be a list of integers, got {value!r}")
    return value


def _dimensions(config: dict, default: list, fewest: int = 1) -> list[int]:
    """A certify family's ``dimensions``: a list of integers as in
    ``_integer_list``, at least ``fewest`` long and with no entry repeated
    (an empty list passes every gate on nothing, a fit needs three points,
    and a repeated d fits a curve through fewer points than it shows)."""
    dims = _integer_list(config, "dimensions", default)
    if len(dims) < fewest or len(set(dims)) < len(dims):
        raise ConfigError(f"config field 'dimensions' must be a list of {fewest} or more "
                          f"distinct integers, got {dims!r}")
    return dims


def _load_config(command: str, path: str, overrides: dict) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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
        _integer(config, "seed")
    return config


def _fit_points(points, with_offset: bool, result: dict, out_dir: Path):
    """Fit an exponential to certified ``(d, value)`` points, record both in
    ``result`` and write the points with their fitted values to curves.csv."""
    fit = certificates.fit_exponential(points, with_offset=with_offset)
    result["points"] = [[d, v] for d, v in points]
    result["fit"] = dataclasses.asdict(fit)
    write_csv_atomic(out_dir / "curves.csv", ["d", "value", "fitted"],
                     [(d, v, float(fit.predict(d))) for d, v in points])
    return fit


def cmd_certify(config: dict, out_dir: Path) -> int:
    family = config.get("family")
    gates: dict[str, bool] = {}
    result: dict = {"family": family}

    if family == "monomial":
        d_min = _integer(config, "d_min", 2)
        d_max = _integer(config, "d_max", 14)
        if d_max - d_min < 2:
            raise ConfigError(
                "config fields 'd_min' and 'd_max' must span 3 or more dimensions to "
                f"fit, got d_min={d_min} and d_max={d_max}")
        dims = list(range(d_min, d_max + 1))
        points = [(d, certificates.min_deletion_error_monomial(d)) for d in dims]
        fit = _fit_points(points, False, result, out_dir)
        # the published slope tolerance is calibrated on the d=2..14 window;
        # narrower runs report the fit without gating on it
        if d_min <= 2 and d_max >= 14:
            gates["slope_within_tolerance"] = (
                abs(fit.slope - MONOMIAL_SLOPE) <= SLOPE_TOLERANCE
            )
        anchors = dict(points)
        if 2 in anchors:
            gates["anchor_d2"] = abs(anchors[2] - 1.0) <= ANCHOR_TOLERANCE
        if 3 in anchors:
            gates["anchor_d3"] = abs(anchors[3] - 2.0) <= ANCHOR_TOLERANCE
    elif family == "binomial":
        dims = _dimensions(config, [3, 6, 9, 12, 15], fewest=3)
        points = [(d, certificates.min_insertion_error_binomial(d)) for d in dims]
        fit = _fit_points(points, True, result, out_dir)
        if {3, 6, 9, 12, 15} <= set(dims):
            gates["slope_within_tolerance"] = (
                abs(fit.slope - BINOMIAL_SLOPE) <= SLOPE_TOLERANCE
            )
    elif family == "lemma":
        dims = _dimensions(config, list(range(1, 17)))
        points = [(d, certificates.verify_lemma_monomial_insertion(d)) for d in dims]
        result["points"] = [[d, v] for d, v in points]
        gates["total_is_one"] = all(v == 1.0 for _, v in points)
        write_csv_atomic(
            out_dir / "curves.csv", ["d", "value", "fitted"],
            [(d, v, 1.0) for d, v in points],
        )
    elif family == "corollary":
        kind = config.get("kind", "binomial")
        if kind not in ("monomial", "binomial"):
            raise ConfigError(
                f"corollary kind must be 'monomial' or 'binomial', got {kind!r}"
            )
        dims = _dimensions(config, [6])
        rows = []
        for d in dims:
            spec = (certificates.PolynomialSpec.monomial(d) if kind == "monomial"
                    else certificates.PolynomialSpec.binomial(d))
            max_del, max_ins = certificates.verify_corollary_grouped(spec)
            rows.append((d, max_del, max_ins))
        result["kind"] = kind
        result["points"] = [[d, md, mi] for d, md, mi in rows]
        gates["grouped_errors_zero"] = all(
            md == 0.0 and mi == 0.0 for _, md, mi in rows
        )
        write_csv_atomic(
            out_dir / "curves.csv", ["d", "max_deletion", "max_insertion"],
            rows,
        )
    else:
        raise ConfigError(
            "certify family must be one of monomial/binomial/lemma/corollary"
        )

    result["gates"] = gates
    write_json_atomic(out_dir / "results.json", result)
    return 0 if all(gates.values()) else 1


def _load_dataset(path):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed dataset {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ConfigError("dataset rows need at least one feature and a label")
    features = data[:, :-1]
    labels = data[:, -1]
    # false for NaN too, so the int64 cast below sees only integers it holds
    integral = (labels == np.trunc(labels)) & (0 <= labels) & (labels < 2.0 ** 63)
    for bad, problem in ((~np.isfinite(features).all(axis=1), "a feature is not finite"),
                         (~integral, "label is not an integer in [0, 2^63)")):
        if bad.any():
            # as np.loadtxt does, count the lines with text before any # comment
            with open(path) as fh:
                rows = [n for n, line in enumerate(fh, 1) if line.split("#", 1)[0].strip()]
            raise ConfigError(f"dataset {path} line {rows[np.argmax(bad)]}: {problem}")
    return features, labels.astype(np.int64)


def _class_mean_backbone(features, labels, path):
    """Identity-embedding backbone whose classifier rows are the per-class
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
    return identity_backbone(np.vstack([features[labels == k].mean(axis=0) for k in classes]))


def _checkpoint_dict(seg, gen, sel, backbone, config):
    return {
        "d": seg.n_features,
        "h": backbone.h,
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
            "classifier": backbone.classifier.ravel().tolist(),
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
    try:
        with open(path) as fh:
            ckpt = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint {path} is not valid JSON: {exc}") from exc

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
        shape = tuple(sizes[dim] for dim in dims)
        try:
            value = np.array(_checkpoint_field(ckpt, path, key), dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"checkpoint {path}: field {key!r} is not a numeric array: {exc}"
            ) from exc
        if value.size != int(np.prod(shape)):
            raise ConfigError(
                f"checkpoint {path}: field {key!r} has {value.size} entries, expected "
                f"{int(np.prod(shape))} for shape ({', '.join(dims)}) = {shape}"
            )
        return value.reshape(shape)

    kind = _checkpoint_field(ckpt, path, "backbone.kind")
    if kind != "identity":
        raise ConfigError(f"checkpoint {path}: unsupported backbone kind {kind!r}")
    if sizes["h"] != sizes["d"]:
        raise ConfigError(f"checkpoint {path}: an identity backbone needs h == d, "
                          f"got h={sizes['h']} and d={sizes['d']}")
    # inferred, not cast: int64 would truncate 0.9 to 0 and read true as 1
    assignment = array("segment_assignment", ("d",), None)
    if assignment.dtype.kind != "i":
        raise ConfigError(f"checkpoint {path}: field 'segment_assignment' must hold "
                          f"integers, got {assignment.dtype} entries")
    gen_shape = ("heads", "n_segments", "n_segments")
    w_q, w_k = array("w_q", gen_shape), array("w_k", gen_shape)
    sel_w_q, sel_w_k = array("sel_w_q", ("h", "h")), array("sel_w_k", ("h", "h"))
    classifier = array("classifier", ("n_classes", "h"))
    backbone_classifier = array("backbone.classifier", ("n_classes", "d"))
    try:
        seg = Segmentation(assignment=assignment, n_segments=sizes["n_segments"])
        gen = GroupGenParams(w_q=w_q, w_k=w_k)
        sel = GroupSelectParams(w_q=sel_w_q, w_k=sel_w_k, classifier=classifier)
        backbone = identity_backbone(backbone_classifier)
    except ValueError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return seg, gen, sel, backbone


def cmd_train(config: dict, out_dir: Path) -> int:
    learning_rate = _number(config, "learning_rate", 0.1)
    if learning_rate <= 0:
        raise ConfigError(
            f"config field 'learning_rate' must be positive, got {config['learning_rate']!r}")
    dataset = _path(config, "dataset")
    features, labels = _load_dataset(dataset)
    seg = Segmentation.contiguous(features.shape[1], _integer(config, "segments", 2))
    backbone = _class_mean_backbone(features, labels, dataset)
    train_config = TrainConfig(
        steps=_integer(config, "steps", 200),
        learning_rate=learning_rate,
        seed=config["seed"],
        heads=_integer(config, "heads", 2),
    )
    result = train(features, labels, seg, backbone, train_config)
    accuracy = training_accuracy(
        features, labels, seg, result.gen_params, result.sel_params, backbone
    )
    write_json_atomic(
        out_dir / "checkpoint.json",
        _checkpoint_dict(seg, result.gen_params, result.sel_params, backbone, config),
    )
    write_csv_atomic(
        out_dir / "loss_history.csv", ["step", "loss"],
        list(enumerate(result.loss_history)),
    )
    write_json_atomic(
        out_dir / "results.json",
        {"training_accuracy": accuracy, "steps": train_config.steps,
         "final_loss": result.loss_history[-1] if result.loss_history else None},
    )
    return 0


def cmd_eval(config: dict, out_dir: Path) -> int:
    checkpoint, dataset = _path(config, "checkpoint"), _path(config, "dataset")
    metrics = config.get(
        "metrics",
        ["accuracy", "insertion", "deletion", "grouped_insertion",
         "grouped_deletion", "sparsity"],
    )
    if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
        raise ConfigError(
            f"config field 'metrics' must be a list of metric names, got {metrics!r}")
    unknown = [m for m in metrics if m not in EVAL_METRICS]
    if unknown:
        raise ConfigError(f"unknown eval metrics {unknown}; known: {list(EVAL_METRICS)}")
    step = _integer(config, "step", 1)
    if step < 1:
        raise ConfigError(f"config field 'step' must be at least 1, got {step!r}")
    classes = _integer_list(config, "classes", [0])
    if not classes:
        raise ConfigError("config field 'classes' must name at least one class, got []")
    seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
    features, labels = _load_dataset(dataset)
    if features.shape[1] != seg.n_features:
        raise ConfigError(
            f"dataset has {features.shape[1]} features, checkpoint expects {seg.n_features}"
        )
    for k in classes:
        if not 0 <= k < sel.n_classes:
            raise ConfigError(
                f"eval class index {k} is out of range for a checkpoint with "
                f"{sel.n_classes} classes"
            )

    report: dict = {"metadata": {
        "checkpoint": checkpoint,
        "dataset": dataset,
        "classes": classes,
        "step": step,
        "probability": "raw class probability (softmax of the prediction)",
    }}
    curve_rows = []
    aggregates: dict[str, list[float]] = {m: [] for m in metrics if m != "accuracy"}

    if "accuracy" in metrics:
        report["accuracy"] = training_accuracy(features, labels, seg, gen, sel, backbone)

    def model(rows):
        return softmax(predict(rows, seg, gen, sel, backbone))

    for index, x in enumerate(features):
        attribution = sop_forward(x, seg, gen, sel, backbone)
        results = faithfulness.evaluate(model, x, attribution.groups, attribution.scores,
                                        classes, list(aggregates), step)
        for k, result in zip(classes, results):
            for name, value in result.items():
                if isinstance(value, faithfulness.PerturbationReport):
                    curve_rows.extend(
                        (name, index, k, float(f), float(p))
                        for f, p in zip(value.fractions, value.probabilities)
                    )
                    value = value.auc
                aggregates[name].append(value)

    for name, values in aggregates.items():
        if values:
            report[name] = {"mean": float(np.mean(values)), "per_case": values}

    write_json_atomic(out_dir / "results.json", report)
    write_csv_atomic(
        out_dir / "curves.csv",
        ["metric", "example", "class", "fraction", "probability"],
        curve_rows,
    )
    return 0


def cmd_label(config: dict, out_dir: Path) -> int:
    map_path, seg_path = _path(config, "map"), _path(config, "segmentation")
    checkpoint = _path(config, "checkpoint")
    cluster_sigma = _number(config, "cluster_sigma", 3.0)
    if cluster_sigma < 0:
        raise ConfigError(
            f"config field 'cluster_sigma' must be non-negative, got {config['cluster_sigma']!r}")
    map_format = config.get("map_format", "csv")
    if map_format == "csv":
        imap = structures.load_map_csv(map_path)
    elif map_format == "binary":
        imap = structures.load_map_binary(map_path)
    else:
        raise ConfigError("map_format must be 'csv' or 'binary'")
    seg = structures.load_segmentation_csv(seg_path)
    if seg.n_features != imap.height * imap.width:
        raise ConfigError(
            f"segmentation covers {seg.n_features} pixels, map has "
            f"{imap.height * imap.width}"
        )
    ckpt_seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
    if ckpt_seg.n_features != seg.n_features or ckpt_seg.n_segments != seg.n_segments:
        raise ConfigError(
            "checkpoint was trained for a different map/segmentation shape"
        )

    attribution = sop_forward(imap.flat, seg, gen, sel, backbone)
    rows = []
    for g, mask in enumerate(attribution.groups):
        intensity = structures.group_intensity(imap, mask)
        label = structures.label_group(imap, mask, cluster_sigma)
        rows.append(
            (g, intensity, label.kind)
            + tuple(float(s) for s in attribution.scores[g])
        )
    histogram = structures.score_mass_by_label([imap], [attribution], cluster_sigma)

    score_headers = [f"score_class_{k}" for k in range(attribution.n_classes)]
    write_csv_atomic(
        out_dir / "labels.csv",
        ["group", "intensity", "label"] + score_headers,
        rows,
    )
    write_json_atomic(out_dir / "results.json", histogram)
    return 0


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

    try:
        config = _load_config(args.command, args.config, {"seed": args.seed})
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir)
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
