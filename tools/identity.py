"""Compare two checkouts' CLI artifacts, exit codes and stderr on the
benchmark's invocations.

Usage, from any directory:

    python3 tools/identity.py TREE_A TREE_B [--seeds 7 53 1 2718]
        [--workloads eval-blobs ...] [--small] [--work DIR]

For each seed and workload of ``bench/workloads.py`` (of the checkout that
holds this script, imported and never written), the workload's inputs are
written once, at ``WORK/<workload>/inputs``, the same path for every seed.
Every invocation then runs once per tree, each as a fresh
``python -m sumparts`` with that tree's ``src`` on ``PYTHONPATH``, writing
to the same output directory, so that no path in an artifact or a message
tells the trees apart.  ``--small`` runs the warm-up sizes of the
benchmark's set-up instead of the full ones.

Prints every exit code, stderr line and artifact that differs between the
trees, then one summary line.  Exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


def _workloads():
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads.WORKLOADS


def _run(tree: Path, invocation, out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "sumparts", *invocation.argv(out)],
                          env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def _artifacts(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def compare(invocation, trees, work: Path) -> list[str]:
    """The differences between the trees' runs of one invocation."""
    out = work / "out"
    runs = []
    for tree in trees:
        shutil.rmtree(out, ignore_errors=True)
        done = _run(tree, invocation, out)
        runs.append((done.returncode, done.stderr.splitlines(), _artifacts(out)))
    shutil.rmtree(out, ignore_errors=True)
    (code_a, err_a, files_a), (code_b, err_b, files_b) = runs
    problems = []
    if code_a != code_b:
        problems.append(f"exit code {code_a} != {code_b}")
    problems += [f"stderr {line}" for line in
                 difflib.unified_diff(err_a, err_b, "A", "B", lineterm="", n=0)
                 if not line.startswith(("---", "+++", "@@"))]
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b:
            problems.append(f"{name} written by A only")
        elif name not in files_a:
            problems.append(f"{name} written by B only")
        elif files_a[name] != files_b[name]:
            problems.append(f"{name} differs")
    return problems


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE",
                        help="checkout whose src/ holds the sumparts package")
    parser.add_argument("--seeds", nargs="+", type=int, default=[7, 53, 1, 2718])
    parser.add_argument("--workloads", nargs="+", choices=list(workloads),
                        default=list(workloads))
    parser.add_argument("--small", action="store_true",
                        help="run the benchmark's warm-up sizes")
    parser.add_argument("--work", type=Path, default=ROOT / "tools" / "_identity",
                        help="directory whose <workload> subdirectories take the "
                             "inputs and outputs; they are replaced, then removed")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "sumparts" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/sumparts package")

    runs = differing = 0
    for seed in args.seeds:
        for name in args.workloads:
            work = args.work.resolve() / name
            shutil.rmtree(work, ignore_errors=True)
            plan = workloads[name](work / "inputs", seed, args.small)
            for invocation in plan.invocations:
                runs += 1
                problems = compare(invocation, trees, work)
                differing += bool(problems)
                for problem in problems:
                    print(f"{name} seed {seed} {invocation.name}: {problem}")
            shutil.rmtree(work)
    print(f"{runs} invocations per tree at seeds {' '.join(map(str, args.seeds))}: "
          + (f"{differing} of {runs} differ" if differing else "no difference"))
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
