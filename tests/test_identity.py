"""``tools/identity.py``: the checkout against itself at the benchmark's
warm-up sizes shows no difference, and a copy that writes other floats
shows the artifacts that moved."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_identity(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"),
                           *map(str, args)], capture_output=True, text=True, timeout=600)


def test_checkout_against_itself(tmp_path):
    done = run_identity(ROOT, ROOT, "--seeds", "7", "--small", "--work", tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "9 invocations per tree at seeds 7: no difference\n"
    assert list(tmp_path.iterdir()) == []


def test_reports_every_moved_artifact(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    serialize = changed / "src" / "sumparts" / "serialize.py"
    serialize.write_text(serialize.read_text().replace('_FLOAT_FORMAT = ".9g"',
                                                       '_FLOAT_FORMAT = ".3g"'))
    done = run_identity(ROOT, changed, "--seeds", "7", "--small",
                        "--workloads", "train-blobs", "--work", tmp_path / "work")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        f"train-blobs seed 7 train: {name} differs"
        for name in ("checkpoint.json", "loss_history.csv", "results.json")
    ] + ["1 invocations per tree at seeds 7: 1 of 1 differ"]
