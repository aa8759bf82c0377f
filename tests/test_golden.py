"""Golden CLI artifacts: small runs of every command, compared with the files
under ``tests/data/golden/<invocation>/``.

The test writes its inputs to a temporary directory at fixed seeds and runs
each invocation through ``sumparts.cli.main``.  Numbers in JSON and CSV pass
when ``|a - b| <= 1e-9 * |b| + 1e-12``: the relative 1e-9 is the golden
forward trace's tolerance, and the 1e-12 floor absorbs cancellation noise,
such as ``eval``'s ``comprehensiveness`` and ``sufficiency`` means near
1e-17.  Keys, strings and every other cell compare exactly, after the
temporary directory in ``eval``'s metadata paths is replaced by ``$TMP``.  A
missing or extra artifact, or an exit code other than 0, fails the test.

To regenerate the golden files after a change that moves their numbers on
purpose, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root: it reruns every invocation and rewrites
``tests/data/golden``.  The diff of those files is the record of what moved.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sumparts import structures
from sumparts.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
RTOL, ATOL = 1e-9, 1e-12
TMP_TOKEN = "$TMP"
ALL_METRICS = ["accuracy", "insertion", "deletion", "grouped_insertion",
               "grouped_deletion", "sparsity", "comprehensiveness", "sufficiency"]


def write_inputs(work: Path) -> None:
    """The seeded inputs: 12 two-class blobs of 8 features, 16 rows of 64
    features with the signal in the first 16, and an 8x8 map (CSV and
    ``SOPM``) with its segmentation into 4 contiguous runs of 16 pixels,
    the segments ``train`` gives the 64-feature rows."""
    rng = np.random.default_rng(2024)
    labels = np.arange(12) % 2
    blobs = rng.normal(scale=0.5, size=(12, 8)) + np.where(labels[:, None] == 0, 1.0, -1.0)
    np.savetxt(work / "blobs.csv", np.column_stack([blobs, labels]), delimiter=",")
    labels = np.arange(16) % 2
    rows = rng.normal(size=(16, 64))
    rows[:, :16] += np.where(labels[:, None] == 1, 1.0, -1.0)
    np.savetxt(work / "maps.csv", np.column_stack([rows, labels]), delimiter=",")
    values = rng.normal(size=(8, 8))
    np.savetxt(work / "map.csv", values, delimiter=",")
    structures.write_map_binary(work / "map.sopm", values)
    np.savetxt(work / "seg.csv", np.repeat(np.arange(4), 16).reshape(8, 8), fmt="%d",
               delimiter=",")


def invocations(work: Path) -> list[tuple[str, str, dict]]:
    """Each invocation's name, command and config, in run order; each
    exits 0."""
    label = {"segmentation": str(work / "seg.csv"),
             "checkpoint": str(work / "train-maps" / "checkpoint.json")}
    return [
        ("certify-monomial", "certify", {"family": "monomial", "d_min": 2, "d_max": 6}),
        ("certify-binomial", "certify", {"family": "binomial", "dimensions": [3, 6, 9]}),
        # the README's ungated window: an exact exponential, so the fit's
        # relative error is rounding noise under the 1e-12 floor
        ("certify-binomial-wide", "certify",
         {"family": "binomial", "dimensions": list(range(6, 31, 3))}),
        ("certify-lemma", "certify", {"family": "lemma", "dimensions": [1, 2, 3, 4, 5]}),
        ("certify-corollary-monomial", "certify",
         {"family": "corollary", "kind": "monomial", "dimensions": [1, 2, 3, 4]}),
        ("certify-corollary-binomial", "certify",
         {"family": "corollary", "kind": "binomial", "dimensions": [3, 6]}),
        ("train-blobs", "train", {"dataset": str(work / "blobs.csv"), "steps": 10,
                                  "learning_rate": 0.1, "segments": 2, "seed": 7}),
        ("eval-blobs", "eval", {"checkpoint": str(work / "train-blobs" / "checkpoint.json"),
                                "dataset": str(work / "blobs.csv"), "metrics": ALL_METRICS,
                                "classes": [0, 1], "seed": 3}),
        ("train-maps", "train", {"dataset": str(work / "maps.csv"), "steps": 5,
                                 "segments": 4, "seed": 11}),
        ("label-csv", "label", {"map": str(work / "map.csv"), **label}),
        ("label-binary", "label", {"map": str(work / "map.sopm"), "map_format": "binary",
                                   **label}),
    ]


def run_all(work: Path) -> dict[str, tuple[int, dict[str, str]]]:
    """Run every invocation in ``work``; by name, its exit code and its
    artifacts' text, with ``work`` replaced by ``$TMP``."""
    write_inputs(work)
    runs = {}
    for name, command, config in invocations(work):
        (work / f"{name}.json").write_text(json.dumps(config))
        code = main([command, "--config", str(work / f"{name}.json"),
                     "--out", str(work / name)])
        runs[name] = code, {path.name: path.read_text().replace(str(work), TMP_TOKEN)
                            for path in sorted((work / name).iterdir())}
    return runs


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def differences(fresh, golden, where: str) -> list[str]:
    """Where two parsed JSON values differ: numbers beyond the tolerance, and
    any difference of keys, lengths, types or other values."""
    if is_number(fresh) and is_number(golden):
        close = abs(fresh - golden) <= RTOL * abs(golden) + ATOL
        return [] if close else [f"{where}: {fresh!r} != {golden!r}"]
    if isinstance(fresh, dict) and isinstance(golden, dict):
        if sorted(fresh) != sorted(golden):
            return [f"{where}: keys {sorted(fresh)} != {sorted(golden)}"]
        return [d for key in golden for d in differences(fresh[key], golden[key],
                                                        f"{where}.{key}")]
    if isinstance(fresh, list) and isinstance(golden, list):
        if len(fresh) != len(golden):
            return [f"{where}: {len(fresh)} entries != {len(golden)}"]
        return [d for i, (a, b) in enumerate(zip(fresh, golden))
                for d in differences(a, b, f"{where}[{i}]")]
    if type(fresh) is not type(golden) or fresh != golden:
        return [f"{where}: {fresh!r} != {golden!r}"]
    return []


def csv_cells(text: str) -> list:
    """The CSV text as rows of cells, each a float where it reads as one."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(c) for c in line.split(",")] for line in text.splitlines()]


def artifact_differences(name: str, fresh: str, golden: str) -> list[str]:
    if name.endswith(".csv"):
        return differences(csv_cells(fresh), csv_cells(golden), name)
    return differences(json.loads(fresh), json.loads(golden), name)


def test_artifacts_match_the_golden_files(tmp_path):
    runs = run_all(tmp_path)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(runs)
    problems = []
    for name, (code, artifacts) in runs.items():
        if code != 0:
            problems.append(f"{name}: exit {code}")
        golden = {path.name: path.read_text() for path in sorted((GOLDEN / name).iterdir())}
        if sorted(artifacts) != sorted(golden):
            problems.append(f"{name}: artifacts {sorted(artifacts)} != {sorted(golden)}")
        problems += [f"{name}/{d}" for artifact in sorted(set(artifacts) & set(golden))
                     for d in artifact_differences(artifact, artifacts[artifact],
                                                   golden[artifact])]
    assert not problems, "\n".join(problems[:20])


def test_eval_and_label_ignore_the_backbone_classifier_values(tmp_path):
    """Every ``backbone.classifier`` entry of both trained checkpoints set to
    7.5 leaves the ``eval`` and ``label`` artifacts byte-identical: both
    commands check the field and compute nothing from its values.  Each
    checkpoint is rewritten at its own path, so ``eval``'s metadata does not
    move."""
    run_all(tmp_path)
    for trained in ("train-blobs", "train-maps"):
        path = tmp_path / trained / "checkpoint.json"
        ckpt = json.loads(path.read_text())
        ckpt["backbone"]["classifier"] = [7.5] * len(ckpt["backbone"]["classifier"])
        path.write_text(json.dumps(ckpt))
    ran = []
    for name, command, _ in invocations(tmp_path):
        if command not in ("eval", "label"):
            continue
        out = tmp_path / "constant-backbone" / name
        assert main([command, "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(out)]) == 0
        original = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == original, name
        ran.append(name)
    assert ran == ["eval-blobs", "label-csv", "label-binary"]


@pytest.mark.parametrize("fresh, golden, close", [
    (1.0 + 0.9e-9, 1.0, True), (1.0 + 1.1e-9, 1.0, False),
    (1.6e-18, 9.9e-13, True), (0.0, 1.1e-12, False), (1, True, False), ("a", "b", False),
])
def test_tolerance(fresh, golden, close):
    assert (differences(fresh, golden, "x") == []) is close


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as work:
        for name, (code, artifacts) in run_all(Path(work)).items():
            (GOLDEN / name).mkdir(parents=True)
            for artifact, text in artifacts.items():
                (GOLDEN / name / artifact).write_text(text)
            print(name, code, sorted(artifacts), file=sys.stderr)
