import importlib
import pkgutil

import pytest

import aimpart

MODULES = ["aimpart"] + sorted(f"aimpart.{info.name}"
                               for info in pkgutil.iter_modules(aimpart.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from module import *` and misleads readers of the export list
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
