import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # scipy.integrate alone lifts the peak RSS after `import aimpart.cli` from
    # about 55 to 79 MB; the CLI needs none of these
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse",
             "scipy.interpolate", "scipy.spatial"]
    code = f"import sys, aimpart.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(aimpart.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    # no linter runs on src/; a name kept only for patching carries "# noqa: F401"
    module = importlib.import_module(name)
    source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", []))
    assert {n: line for n, line in imported.items() if n not in used} == {}
