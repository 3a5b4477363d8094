import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ringspin

MODULES = ["ringspin"] + [f"ringspin.{m.name}" for m in pkgutil.iter_modules(ringspin.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    """Each name in `__all__` exists: `from ringspin import *` and the
    benchmark's tracer (`getattr` over each layer's `__all__`) need it."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_cli_import_leaves_the_oracles_unloaded():
    """Only `ringspin validate` uses the brute-force routes, so importing the
    CLI neither compiles nor loads `ringspin.oracle`."""
    src = str(Path(ringspin.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import ringspin.cli; "
            "assert 'ringspin.oracle' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
