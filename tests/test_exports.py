"""Every name a ``sumparts`` module lists in ``__all__`` is bound there.

The benchmark's tracer looks up each of those names with ``getattr``, so a
name left in ``__all__`` after its definition is gone breaks it."""

import importlib
import pkgutil

import pytest

import sumparts

MODULES = sorted(f"sumparts.{info.name}" for info in pkgutil.iter_modules(sumparts.__path__))


@pytest.mark.parametrize("name", ["sumparts", *MODULES])
def test_all_names_are_bound(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists unbound names {missing}"
