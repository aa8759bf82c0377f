"""Smoke runs of the demos that reach code with no other non-test caller,
or that drive a whole layer end to end: ``attention_weights`` and
``sparsemax_vjp`` (demo 01), training and the exact reconstruction
(demo 02), the per-subset ``total_powerset_error`` (demo 03), the
full-powerset ``build_program``/``solve_l1`` (demo 04), and structure
labeling (demo 05)."""

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
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
