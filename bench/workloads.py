"""Benchmark workloads: seeded input generators, CLI invocations and output checks.

Each workload is a function ``make(inputs, seed, small)`` that writes its
inputs under ``inputs`` and returns a :class:`Plan`: the CLI invocations of
one pass, the work one pass does (in a unit fixed by the problem, not by the
implementation), and the checks on each invocation's artifacts.  The program
only ever sees the generated files.  ``small=True`` gives a pass of the same
shape at toy sizes; it is the warm-up call of the set-up and the input of the
benchmark's own tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ALL_METRICS = ["accuracy", "insertion", "deletion", "grouped_insertion",
               "grouped_deletion", "sparsity", "comprehensiveness", "sufficiency"]
AUC_METRICS = ["insertion", "deletion", "grouped_insertion", "grouped_deletion"]


class InputDrift(RuntimeError):
    """An input property a workload depends on no longer holds."""


@dataclass
class Invocation:
    """One CLI call: ``sumparts <command> --config <config> --out <out>``.

    ``check`` reads the artifacts in the output directory and returns the
    problems it found (empty when the output is correct).
    """

    name: str
    command: str
    config: Path
    check: Callable[[Path], list[str]]
    expected_exit: int = 0

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out)]


@dataclass
class Plan:
    invocations: list[Invocation]
    work: int
    work_unit: str
    # raises InputDrift when an input property the workload relies on is gone;
    # receives the output directory of every invocation, by name.  The toy
    # sizes of the warm-up are not held to these properties.
    check_properties: Callable[[dict[str, Path]], None]


def _no_check(outs: dict[str, Path]) -> None:
    pass


def _write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _fmt(values) -> str:
    """Comma-separated numbers, each an integer mantissa with exponent -12
    (rounded to 1e-12, and valid JSON).  This formats about four times faster
    than repr, which keeps the label checkpoint's 2M numbers from dominating
    the set-up time."""
    mantissas = np.rint(np.asarray(values, dtype=np.float64).ravel() * 1e12)
    return "e-12,".join(map(str, mantissas.astype(np.int64).tolist())) + "e-12"


def _write_dataset(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        for x, label in zip(features, labels):
            fh.write(f"{_fmt(x)},{int(label)}\n")


def _blobs(rng: np.random.Generator, n: int, d: int, n_classes: int):
    """Gaussian blobs: one random centre per class, unit-variance centres,
    noise 0.5, labels cycling through the classes."""
    centres = rng.normal(0.0, 1.0, (n_classes, d))
    labels = np.arange(n) % n_classes
    return centres[labels] + 0.5 * rng.normal(size=(n, d)), labels


def _write_checkpoint(path: Path, *, seed: int, assignment, w_q, w_k, sel_w_q,
                      sel_w_k, classifier) -> None:
    """Write a checkpoint in the CLI's JSON format with an identity backbone
    whose classifier equals the selector's value weights.

    Large matrices are written row by row, so generating the label
    checkpoint does not raise the process's peak memory above the program's.
    """
    heads, m, _ = w_q.shape
    n_classes, h = classifier.shape

    def matrix(fh, rows):
        fh.write("[")
        for i, row in enumerate(rows):
            fh.write(("," if i else "") + _fmt(row))
        fh.write("]")

    with open(path, "w") as fh:
        fh.write(json.dumps({
            "d": len(assignment), "h": h, "heads": heads, "n_segments": m,
            "n_classes": n_classes, "seed": seed,
            "segment_assignment": [int(a) for a in assignment],
        })[:-1])
        for key, stack in (("w_q", w_q), ("w_k", w_k)):
            fh.write(f', "{key}": [' + ",".join(f"[{_fmt(w)}]" for w in stack) + "]")
        for key, mat in (("sel_w_q", sel_w_q), ("sel_w_k", sel_w_k),
                         ("classifier", classifier)):
            fh.write(f', "{key}": ')
            matrix(fh, mat)
        fh.write(', "backbone": {"kind": "identity", "classifier": ')
        matrix(fh, classifier)
        fh.write("}}\n")


def load_checkpoint(path: Path):
    """Rebuild the model objects from a checkpoint through the public API,
    independently of the CLI's own loader."""
    from sumparts.model import (GroupGenParams, GroupSelectParams, Segmentation,
                                identity_backbone)

    ckpt = _read_json(path)
    d, h, m, k, heads = (ckpt[key] for key in ("d", "h", "n_segments", "n_classes",
                                               "heads"))
    seg = Segmentation(assignment=np.array(ckpt["segment_assignment"]), n_segments=m)
    gen = GroupGenParams(w_q=np.reshape(ckpt["w_q"], (heads, m, m)),
                         w_k=np.reshape(ckpt["w_k"], (heads, m, m)))
    sel = GroupSelectParams(w_q=np.reshape(ckpt["sel_w_q"], (h, h)),
                            w_k=np.reshape(ckpt["sel_w_k"], (h, h)),
                            classifier=np.reshape(ckpt["classifier"], (k, h)))
    backbone = identity_backbone(np.reshape(ckpt["backbone"]["classifier"], (k, d)))
    return seg, gen, sel, backbone


# --------------------------------------------------------------------------
# certify-sweep
#
# Why: the only workload that reaches `certificates`.  Its time goes to HiGHS
# solves (monomial d up to 13, binomial up to 15) and to the exhaustive
# powerset probes of `faithfulness` (lemma up to d=16, corollary up to 12).
# It never touches `model` or `training`.  Monomial d=14 stays out: its one
# solve takes about 30 s and would triple the pass, while d=13 already makes
# LP solving dominate.  The dimensions are the paper's reference windows, so
# the seed only fills the configs' seed field; the work is fixed.
# --------------------------------------------------------------------------

def monomial_minimum(d: int) -> float:
    """Least total deletion error for the d-variable monomial: the uniform
    attribution is optimal and the reduced objective is piecewise linear
    with kinks at 1/k, so the minimum over the kinks is exact."""
    return min(sum(math.comb(d, k) * abs(1.0 - k * a) for k in range(1, d + 1))
               for a in [0.0] + [1.0 / k for k in range(1, d + 1)])


def binomial_minimum(d: int) -> float:
    """Certified insertion-error optimum of the equal-thirds binomial:
    2 at d=3 and 2 * 2^(d/3) from d=6 on (README, criterion 02)."""
    return 2.0 if d == 3 else 2.0 * 2.0 ** (d // 3)


def _points_check(expected: Callable[[int], float], tol: float):
    def check(out: Path) -> list[str]:
        points = _read_json(out / "results.json")["points"]
        return [f"d={d}: {v} != {expected(d)}" for d, v in points
                if not abs(v - expected(d)) <= tol]
    return check


def _corollary_check(out: Path) -> list[str]:
    points = _read_json(out / "results.json")["points"]
    return [f"d={d}: grouped maxima {md}, {mi} are not 0"
            for d, md, mi in points if md != 0.0 or mi != 0.0]


def certify_sweep(inputs: Path, seed: int, small: bool = False) -> Plan:
    inputs.mkdir(parents=True, exist_ok=True)
    monomial = range(2, 6) if small else range(2, 14)
    binomial = [3, 6, 9] if small else [3, 6, 9, 12, 15]
    lemma = range(1, 7) if small else range(1, 17)
    corollary_monomial = range(1, 5) if small else range(1, 13)
    corollary_binomial = [3, 6] if small else [3, 6, 9, 12]
    specs = [
        ("monomial", {"family": "monomial", "d_min": monomial[0], "d_max": monomial[-1]},
         _points_check(monomial_minimum, 1e-6), 0),
        # exit 1 on the reference window is the documented criterion-02 gate
        # result; the run counts as correct when the optima are right
        ("binomial", {"family": "binomial", "dimensions": binomial},
         _points_check(binomial_minimum, 1e-6), 0 if small else 1),
        ("lemma", {"family": "lemma", "dimensions": list(lemma)},
         _points_check(lambda d: 1.0, 0.0), 0),
        ("corollary-monomial", {"family": "corollary", "kind": "monomial",
                                "dimensions": list(corollary_monomial)},
         _corollary_check, 0),
        ("corollary-binomial", {"family": "corollary", "kind": "binomial",
                                "dimensions": corollary_binomial},
         _corollary_check, 0),
    ]
    invocations = [
        Invocation(name, "certify",
                   _write_config(inputs / f"{name}.json", dict(config, seed=seed)),
                   check, exit_code)
        for name, config, check, exit_code in specs
    ]
    dims = [*monomial, *binomial, *lemma, *corollary_monomial, *corollary_binomial]
    return Plan(invocations, work=sum(2 ** d for d in dims),
                work_unit="powerset subsets certified or verified",
                check_properties=_no_check)


# --------------------------------------------------------------------------
# train-blobs
#
# Why: per-example forward and backward through both sparsemax blocks plus
# the identity backbone's vjp, 20 full-batch steps.  No LP solves and no
# perturbation probes; `training` and `ops` carry the time.
# --------------------------------------------------------------------------

def _train_check(dataset: Path):
    def check(out: Path) -> list[str]:
        return _train_problems(out, np.loadtxt(dataset, delimiter=",", ndmin=2))
    return check


def _train_problems(out: Path, dataset: np.ndarray) -> list[str]:
    problems = []
    losses = [float(line.split(",")[1])
              for line in (out / "loss_history.csv").read_text().splitlines()[1:]]
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append(f"loss history is empty or not finite: {losses[:3]}")
    elif not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: {losses[0]} -> {losses[-1]}")
    accuracy = _read_json(out / "results.json")["training_accuracy"]
    if not 0.0 <= accuracy <= 1.0:
        problems.append(f"training accuracy {accuracy} outside [0, 1]")
    from sumparts.model import sop_forward

    seg, gen, sel, backbone = load_checkpoint(out / "checkpoint.json")
    for i, x in enumerate(dataset[:, :-1]):
        att = sop_forward(x, seg, gen, sel, backbone)
        if not np.array_equal(att.prediction, (att.scores * att.partial_logits).sum(0)):
            problems.append(f"example {i}: reloaded checkpoint does not reconstruct")
    return problems


def train_blobs(inputs: Path, seed: int, small: bool = False) -> Plan:
    inputs.mkdir(parents=True, exist_ok=True)
    n, steps = (12, 2) if small else (120, 20)
    rng = np.random.default_rng([seed, 1])
    features, labels = _blobs(rng, n, 64, 3)
    _write_dataset(inputs / "train.csv", features, labels)
    config = _write_config(inputs / "train.json", {
        "dataset": str(inputs / "train.csv"), "steps": steps, "learning_rate": 0.1,
        "segments": 8, "heads": 2, "seed": seed,
    })
    return Plan([Invocation("train", "train", config,
                            _train_check(inputs / "train.csv"))],
                work=n * steps, work_unit="example-gradient evaluations",
                check_properties=_no_check)


# --------------------------------------------------------------------------
# eval-blobs
#
# Why: forward only.  Every metric on 30 examples x 3 classes at step 1 makes
# about 150 small `sop_forward` probes per (example, class), so
# `faithfulness` and `model` carry the time and nothing runs backward.  The
# checkpoint is generated with generator weights of std 2.0 so that the
# sparsemax groups are sparse (mean sparsity about 0.37 over seeds 0..9;
# std 1.0 gives about 0.7); a briefly trained checkpoint has groups that
# cover every feature, and its grouped curves collapse to two points.
# --------------------------------------------------------------------------

def _eval_check(out: Path) -> list[str]:
    import jsonschema
    from sumparts.cli import REPORT_SCHEMA

    report = _read_json(out / "results.json")
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"results.json does not match REPORT_SCHEMA: {exc.message}"]
    problems = [f"{name} has no results" for name in ALL_METRICS if name not in report]
    for name in AUC_METRICS:
        problems += [f"{name} AUC {v} outside [0, 1]"
                     for v in report.get(name, {}).get("per_case", [])
                     if not 0.0 <= v <= 1.0]
    return problems


def _eval_properties(outs: dict[str, Path]) -> None:
    sparsity = _read_json(outs["eval"] / "results.json")["sparsity"]["mean"]
    if not sparsity < 1.0:
        raise InputDrift(f"eval groups are not sparse (mean sparsity {sparsity}); "
                         "grouped curves would collapse to two points")


def eval_blobs(inputs: Path, seed: int, small: bool = False) -> Plan:
    inputs.mkdir(parents=True, exist_ok=True)
    n, classes = (3, [0]) if small else (30, [0, 1, 2])
    d, m, heads = 64, 8, 2
    rng = np.random.default_rng([seed, 2])
    features, labels = _blobs(rng, n, d, 3)
    _write_dataset(inputs / "eval.csv", features, labels)
    class_means = np.vstack([features[labels == k].mean(axis=0) for k in range(3)])
    _write_checkpoint(
        inputs / "eval-checkpoint.json", seed=seed,
        assignment=np.arange(d) * m // d,
        w_q=rng.normal(0.0, 2.0, (heads, m, m)), w_k=rng.normal(0.0, 2.0, (heads, m, m)),
        sel_w_q=rng.normal(0.0, 0.02, (d, d)), sel_w_k=rng.normal(0.0, 0.02, (d, d)),
        classifier=class_means,
    )
    config = _write_config(inputs / "eval.json", {
        "checkpoint": str(inputs / "eval-checkpoint.json"),
        "dataset": str(inputs / "eval.csv"), "metrics": ALL_METRICS, "step": 1,
        "classes": classes, "seed": seed,
    })
    return Plan([Invocation("eval", "eval", config, _eval_check)],
                work=n * len(classes), work_unit="(example, class) pairs",
                check_properties=_no_check if small else _eval_properties)


# --------------------------------------------------------------------------
# label-map
#
# Why: the only workload that reaches `structures`.  It uses `model`
# differently from eval: one large forward (32 masks x 1024 features through
# an identity backbone with h = d = 1024) instead of many small ones, and the
# O(d^2) checkpoint parse in `cli` (about 34 MB of JSON) dominates.  The map
# is labelled once from CSV and once from the SOPM binary format.
# --------------------------------------------------------------------------

LABEL_KINDS = ("void", "cluster", "other")


def _label_check(out: Path) -> list[str]:
    problems = []
    for k, per_label in _read_json(out / "results.json")["targets"].items():
        total = sum(per_label[kind]["per_map"][0] for kind in LABEL_KINDS)
        if not abs(total - 1.0) <= 1e-9:
            problems.append(f"class {k}: label masses sum to {total!r}, not 1")
    return problems


def _label_properties(outs: dict[str, Path]) -> None:
    for name, out in outs.items():
        kinds = {line.split(",")[2]
                 for line in (out / "labels.csv").read_text().splitlines()[1:]}
        if len(kinds) < 2:
            raise InputDrift(f"{name}: the map yields one label kind only ({kinds})")


def label_arrays(seed: int, small: bool = False):
    """The label workload's map, per-pixel tile ids and generator weights,
    plus the generator that draws the rest of the checkpoint.

    The map is faint noise on a left-to-right gradient, a compact bright spot
    in one tile and a void in another.  Groups of a few tiles each (generator
    weights of std 1.0) then average to different signs: those on the left or
    over the void are voids, those on the right are other, and one that is
    mostly spot is a cluster.  Over seeds 0..499 every map yields at least two
    label kinds from either map format; without the gradient 1 in 100 did not.
    """
    size, tile, heads = (8, 4, 2) if small else (32, 8, 2)
    per_side = size // tile
    m = per_side ** 2
    rng = np.random.default_rng([seed, 3])
    rows, cols = np.mgrid[0:size, 0:size]
    values = rng.normal(0.0, 0.05, (size, size)) + 0.6 * (cols / (size - 1) - 0.5)
    spot, void = rng.choice(m, size=2, replace=False)
    cy, cx = (np.array(divmod(spot, per_side)) + 0.5) * tile
    values += 8.0 * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * (tile / 5) ** 2))
    vy, vx = divmod(void, per_side)
    values[vy * tile:(vy + 1) * tile, vx * tile:(vx + 1) * tile] -= 1.0
    segment_ids = (rows // tile) * per_side + cols // tile
    w_q, w_k = rng.normal(0.0, 1.0, (2, heads, m, m))
    return rng, values, segment_ids, w_q, w_k


def label_map(inputs: Path, seed: int, small: bool = False) -> Plan:
    inputs.mkdir(parents=True, exist_ok=True)
    rng, values, segment_ids, w_q, w_k = label_arrays(seed, small)
    size, n_classes = values.shape[0], 2
    d = size * size
    with open(inputs / "map.csv", "w") as fh:
        fh.writelines(_fmt(row) + "\n" for row in values)
    header = b"SOPM" + np.array([size, size, 0], dtype="<u4").tobytes()
    (inputs / "map.sopm").write_bytes(header + values.astype("<f4").tobytes())
    with open(inputs / "segments.csv", "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in segment_ids)
    _write_checkpoint(
        inputs / "label-checkpoint.json", seed=seed, assignment=segment_ids.ravel(),
        w_q=w_q, w_k=w_k,
        sel_w_q=rng.normal(0.0, 0.02, (d, d)), sel_w_k=rng.normal(0.0, 0.02, (d, d)),
        classifier=rng.normal(0.0, 1.0, (n_classes, d)),
    )
    invocations = []
    for fmt, map_file in (("csv", "map.csv"), ("binary", "map.sopm")):
        config = _write_config(inputs / f"label-{fmt}.json", {
            "map": str(inputs / map_file), "map_format": fmt,
            "segmentation": str(inputs / "segments.csv"),
            "checkpoint": str(inputs / "label-checkpoint.json"),
            "cluster_sigma": 2.0, "seed": seed,
        })
        invocations.append(Invocation(f"label-{fmt}", "label", config, _label_check))
    return Plan(invocations, work=len(invocations) * d, work_unit="map pixels labelled",
                check_properties=_no_check if small else _label_properties)


WORKLOADS: dict[str, Callable[[Path, int, bool], Plan]] = {
    "certify-sweep": certify_sweep,
    "train-blobs": train_blobs,
    "eval-blobs": eval_blobs,
    "label-map": label_map,
}
