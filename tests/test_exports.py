"""Every name the benchmark's tracer looks up in a ``sumparts`` module is
bound there.

The tracer looks up each name a module lists in ``__all__``, plus its own
``EXTRA_NAMES`` (``cli.main`` and ``certificates.linprog``), with
``getattr``, so a name left there after its definition is gone breaks it."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sumparts

MODULES = sorted(f"sumparts.{info.name}" for info in pkgutil.iter_modules(sumparts.__path__))


def _tracer_extra_names():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.EXTRA_NAMES


@pytest.mark.parametrize("name", ["sumparts", *MODULES])
def test_all_names_are_bound(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists unbound names {missing}"


def test_tracer_extra_names_are_bound():
    for layer, names in _tracer_extra_names().items():
        module = importlib.import_module(f"sumparts.{layer}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"sumparts.{layer} lacks the traced names {missing}"
