"""Every name a module exports resolves, so no deletion leaves a stale export."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import restapprox

MODULE_NAMES = ["restapprox"] + [
    f"restapprox.{info.name}"
    for info in pkgutil.iter_modules(restapprox.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
