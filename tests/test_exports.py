"""Every name in the package's and each submodule's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import dearest

MODULES = ["dearest"] + [
    f"dearest.{info.name}" for info in pkgutil.iter_modules(dearest.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    stale = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not stale, f"{name}.__all__ names missing attributes: {stale}"
