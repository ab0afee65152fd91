"""Every module under ``repro`` imports, and every ``__all__`` name resolves."""
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [a for a in getattr(mod, "__all__", []) if not hasattr(mod, a)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
