"""Every name a gfekit module exports in `__all__` resolves, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import gfekit

# gfekit.__main__ runs the CLI on import.
MODULES = sorted(m.name for m in pkgutil.iter_modules(gfekit.__path__, "gfekit.")
                 if m.name != "gfekit.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
