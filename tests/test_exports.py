from __future__ import annotations

import importlib
import pkgutil

import pytest

import willis_homog

MODULES = ["willis_homog"] + [
    f"willis_homog.{m.name}" for m in pkgutil.iter_modules(willis_homog.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name: str) -> None:
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
