"""Every name the benchmark binds in ``sumparts`` is bound there.

The tracer looks up each name a module lists in ``__all__``, plus its own
``EXTRA_NAMES`` (``cli.main`` and ``certificates.linprog``), with
``getattr``, so a name left there after its definition is gone breaks it.
The workloads' checks call ``sop_forward`` and ``identity_backbone`` and
read the artifacts, so each workload runs here at its warm-up size."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import sumparts
from sumparts import cli

MODULES = sorted(f"sumparts.{info.name}" for info in pkgutil.iter_modules(sumparts.__path__))
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name, monkeypatch):
    """``bench/<name>.py``, loaded by path without writing a ``__pycache__``
    there, and registered while the test runs (``dataclass`` looks its
    module up)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sumparts", *MODULES])
def test_all_names_are_bound(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists unbound names {missing}"


def test_tracer_extra_names_are_bound(monkeypatch):
    for layer, names in _bench_module("tracer", monkeypatch).EXTRA_NAMES.items():
        module = importlib.import_module(f"sumparts.{layer}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"sumparts.{layer} lacks the traced names {missing}"


def test_bench_invocations_exit_as_expected_and_pass_their_checks(tmp_path, monkeypatch):
    for name, plan_of in _bench_module("workloads", monkeypatch).WORKLOADS.items():
        plan = plan_of(tmp_path / name / "inputs", 7, True)
        for invocation in plan.invocations:
            out = tmp_path / name / invocation.name
            assert cli.main(invocation.argv(out)) == invocation.expected_exit, \
                f"{name} {invocation.name}"
            assert invocation.check(out) == [], f"{name} {invocation.name}"
