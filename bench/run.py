"""End-to-end benchmark of the sumparts CLI, with per-layer spans on request.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py`` for why each exists): ``certify-sweep``,
``train-blobs``, ``eval-blobs``, ``label-map``.  One process runs one
workload: it generates the inputs from the seed, then drives the workload's
CLI invocations in-process through ``sumparts.cli.main``, one full pass at a
time, until ``--seconds`` have passed (at least one pass).  Every pass's
artifacts are checked and hashed.

``--trace 0`` prints the end-to-end metrics, measured untraced:

- ``setup_s``: import ``sumparts``, generate the inputs, run a warm-up pass
  at toy size; the median of three set-ups (this process and two fresh ones).
- ``wall_s``, ``cpu_s``: median wall time and user+sys CPU time of a pass.
- ``work_per_s``: work of one pass over ``wall_s``, in the workload's unit
  (powerset subsets, example-gradient evaluations, (example, class) pairs,
  map pixels).
- ``peak_rss_mb``: peak resident memory of the process through the set-up
  and its first pass.

``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, and prints the per-layer metrics of ``tracer.py`` plus the
tracing overhead.  It also checks that traced artifacts are byte-identical
to untraced ones and that every wrapper was restored.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (CLI invocations whose exit status or output check
failed) and ``metrics``.  A full report with machine facts, every pass and
the artifact digests goes to ``bench/_results/``; a traced run also writes
its spans there, to ``<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "_results"
WORKLOADS = ("certify-sweep", "train-blobs", "eval-blobs", "label-map")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# per-call figures measured at the ROADMAP re-anchor (d=64, 8 segments,
# 2 heads, 3 classes), set beside the traced means of the workloads with that
# configuration, for comparison only
REFERENCE_MS = {
    "train-blobs": {"model.forward_ms_per_call": 0.76,
                    "training.grad_ms_per_example": 2.0},
    "eval-blobs": {"model.forward_ms_per_call": 0.76,
                   "faithfulness.curve_ms_per_pair": 103.0},
}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    exit_codes: list
    problems: dict[str, list[str]]
    digests: dict[str, str] = field(default_factory=dict)


def import_program():
    """Import ``sumparts`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "sumparts" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'sumparts'} is missing")
    sys.path.insert(0, str(SRC))
    import sumparts.cli

    where = Path(sumparts.cli.__file__).resolve().parent
    if where != (SRC / "sumparts").resolve():
        raise SystemExit(f"error: imported sumparts from {where}, not from {SRC}")
    return sumparts.cli


def run_pass(cli, plan, out_root: Path, tracer=None) -> Pass:
    """Run every invocation of the plan once, timed, then check and hash the
    artifacts outside the timed region."""
    outs = {inv.name: out_root / inv.name for inv in plan.invocations}
    gc.collect()
    codes = []
    if tracer is not None:
        tracer.install()
    try:
        usage0, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        for inv in plan.invocations:
            try:
                codes.append(cli.main(inv.argv(outs[inv.name])))
            except Exception:  # a crash is a failed invocation, not a crashed benchmark
                codes.append(traceback.format_exc(limit=3))
        wall, usage1 = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.restore()
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)

    problems = {}
    for inv, code in zip(plan.invocations, codes):
        found = [] if code == inv.expected_exit else [
            f"exit {code!r}, expected {inv.expected_exit}"]
        try:
            found += inv.check(outs[inv.name])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found.append(f"artifacts unreadable: {exc!r}")
        problems[inv.name] = found
    plan.check_properties(outs)
    digests = {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for name, out in outs.items() if out.is_dir() for path in sorted(out.iterdir())
    }
    shutil.rmtree(out_root, ignore_errors=True)
    return Pass(wall, cpu, codes, problems, digests)


def set_up(workload: str, seed: int, work: Path):
    """Import the program, generate the inputs and run one warm-up pass at toy
    size.  Returns the time taken, the CLI module and the full-size plan."""
    start = time.perf_counter()
    cli = import_program()
    import workloads

    make = workloads.WORKLOADS[workload]
    plan = make(work / "inputs", seed, False)
    warm = run_pass(cli, make(work / "warmup-inputs", seed, True), work / "warmup-out")
    broken = {name: found for name, found in warm.problems.items() if found}
    if broken:
        raise RuntimeError(f"warm-up pass failed its checks: {broken}")
    return time.perf_counter() - start, cli, plan


def set_up_in_child(args) -> float:
    """Time one more complete set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """Machine and environment facts recorded with every result."""
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        # the benchmark unsets it, so certify uses the program's default
        # pool of at most nproc threads
        "SOP_THREADS": os.environ.get("SOP_THREADS", "unset"),
    }


def _median_metrics(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(args, work: Path) -> tuple[dict, dict]:
    from tracer import PER_LAYER_UNITS, Tracer

    first_setup, cli, plan = set_up(args.workload, args.seed, work)
    setups = [first_setup] + [set_up_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < budget:
        untraced.append(run_pass(cli, plan, work / f"pass-{len(untraced)}"))
        if len(untraced) == 1:
            # later passes can raise the high-water mark further only through
            # allocator fragmentation across the CLI's worker threads
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < budget:
            tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
                            f"-traced{len(traced)}")
            traced.append(run_pass(cli, plan, work / f"traced-{len(traced)}", tracer))
            tracers.append(tracer)

    # every pass must reproduce the first one's artifacts byte for byte; for a
    # traced pass this is the check that tracing did not change behaviour
    reference = untraced[0].digests
    for p in untraced[1:] + traced:
        for key in sorted(set(reference) | set(p.digests)):
            if reference.get(key) != p.digests.get(key):
                p.problems[key.split("/")[0]].append(f"{key} differs from the first pass")
    leftovers = sorted({name for t in tracers for name in t.leftover_wrappers()})

    passes = untraced + traced
    attempted = sum(len(p.problems) for p in passes)
    failed = sum(1 for p in passes for found in p.problems.values() if found)
    wall = statistics.median(p.wall_s for p in untraced)
    if args.trace:
        metrics = _median_metrics([t.layer_metrics() for t in tracers])
        metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "work_per_s": plan.work / wall,
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not leftovers,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "work_per_pass": plan.work, "work_unit": plan.work_unit,
        "setup_samples_s": setups, "failed_frac": failed / attempted,
        "leftover_wrappers": leftovers,
        "passes": [dict(vars(p), traced=False) for p in untraced]
        + [dict(vars(p), traced=True) for p in traced],
        "result": result,
    }
    if args.trace:
        report["reference_ms"] = {
            k: {"reference": ref, "measured": metrics[k], "ratio": metrics[k] / ref}
            for k, ref in REFERENCE_MS.get(args.workload, {}).items()
        }
        RESULTS.mkdir(exist_ok=True)
        # one spans file per workload, overwritten by its latest traced run
        with open(RESULTS / f"{args.workload}.spans.json", "w") as fh:
            json.dump([t.to_json() for t in tracers], fh)
    return result, report


def print_summary(report: dict) -> None:
    result = report["result"]
    n_untraced = sum(1 for p in report["passes"] if not p["traced"])
    print(f"{report['workload']} seed {report['seed']}: {len(report['passes'])} passes "
          f"({n_untraced} untraced); {report['work_per_pass']} {report['work_unit']} "
          "per pass")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {report['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    for name, ref in report.get("reference_ms", {}).items():
        print(f"  {name} {ref['measured']:.4g} ms against {ref['reference']} ms "
              f"at the ROADMAP re-anchor (x{ref['ratio']:.2f})")
    for p in report["passes"]:
        for name, found in p["problems"].items():
            for problem in found:
                print(f"  FAILED {name}: {problem}")
    if report["leftover_wrappers"]:
        print(f"  FAILED wrappers left installed: {report['leftover_wrappers']}")
    print(f"  environment {json.dumps(report['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.pop("SOP_THREADS", None)

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, work)[0])
            return 0
        result, report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_summary(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
