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


def test_space_norms_is_exported_from_the_package_root():
    from restapprox import spaces

    assert "space_norms" in restapprox.__all__ and "space_norms" in spaces.__all__
    assert restapprox.space_norms is spaces.space_norms
