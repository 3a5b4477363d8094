import importlib
import pkgutil

import pytest

import ringspin

MODULES = ["ringspin"] + [f"ringspin.{m.name}" for m in pkgutil.iter_modules(ringspin.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    """Each name in `__all__` exists: `from ringspin import *` and the
    benchmark's tracer (`getattr` over each layer's `__all__`) need it."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
