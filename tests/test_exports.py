"""Every name a module of the package exports resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import ivoleq

MODULES = ["ivoleq"] + [f"ivoleq.{m.name}" for m in pkgutil.iter_modules(ivoleq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
