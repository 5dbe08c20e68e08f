import importlib
import pkgutil

import pytest

import qwalk

MODULES = sorted(info.name for info in pkgutil.iter_modules(qwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from qwalk.<module> import *`
    module = importlib.import_module(f"qwalk.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing
