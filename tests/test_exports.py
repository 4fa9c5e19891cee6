import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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
    # a whole run needs numpy alone: scipy.special, once behind the
    # Gauss-Legendre rule, lifted the peak RSS of `import aimpart.cli` from
    # about 27 to 52 MB, and the rule's first call loaded scipy.linalg too
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import aimpart.cli
        from aimpart import density, dma, grids, partition
        prims = [density.PrimitiveGaussian(center=(0, 0, z), l=0, m=0, exponent=e)
                 for z, e in ((0.0, 0.9), (1.4, 0.6))]
        gto = density.GtoDensity(primitives=prims, P=[[1.0, 0.2], [0.2, 0.8]])
        positions = np.array([[0, 0, 0], [0, 0, 1.4]])
        axial = grids.AtomicGridSet(positions, grids.build_radial(40, 12.0),
                                    grids.build_angular(12, "axial"))
        lebedev = grids.AtomicGridSet(positions, grids.build_radial(40, 12.0, "log"),
                                      grids.build_angular(26))
        partition.run_partition("isa", gto, axial,
                                options=partition.PartitionOptions(max_iter=3))
        sites = dma.SiteSet(positions=positions, labels=["a", "b"])
        dma.run_dma(gto, sites, lmax=4)
        dma.esp_exact(gto, np.array([0.0, 0.0, 30.0]), lebedev)
        print(*sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
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
