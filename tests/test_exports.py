import importlib
import pkgutil

import pytest

import dropuq

MODULES = ["dropuq"] + [
    f"dropuq.{m.name}" for m in pkgutil.iter_modules(dropuq.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing
