"""Smoke runs of the demos that reach code with no other non-test caller,
or that drive a whole layer end to end: ``sparsemax_vjp`` and sparsemax
attention rows (demo 01), training and the exact reconstruction
(demo 02), ``total_powerset_error``, the curves and the rationale
metrics on stack models, beside ``faithfulness.evaluate_examples``
(demo 03),
every certificate family with its exponential fit, beside the
Shapley and occlusion baselines (demo 04), and
structure labeling (demo 05).  Each demo runs with numpy's
``RuntimeWarning`` raised as an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_sparse_attention.py",
    "02_grouped_attribution_model.py",
    "03_faithfulness_metrics.py",
    "04_error_certificates.py",
    "05_lensing_structures.py",
])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
