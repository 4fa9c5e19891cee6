import math

import numpy as np
import pytest

from aimpart import density, grids, partition


@pytest.fixture
def appendix_density():
    """Two normalized Gaussians (0.1 / 0.5) separated by 1.131 bohr on z."""
    r1, r2 = np.zeros(3), np.array([0.0, 0.0, 1.131])
    rho = density.AnalyticDensity(terms=[
        ("gaussian_s", r1, 0.1, 1.0),
        ("gaussian_s", r2, 0.5, 1.0),
    ])
    return rho, np.vstack([r1, r2])


@pytest.fixture
def diatomic_grids():
    def build(positions, nr=300, rmax=15.0, ns=120, angular="axial", radial="gauss_legendre"):
        return grids.AtomicGridSet(positions,
                                   grids.build_radial(nr, rmax, radial),
                                   grids.build_angular(ns, angular))
    return build


@pytest.fixture
def mbisa_map():
    """One explicit MB-ISA step: allocate, average each share, refit each atom.

    Returns (models, messages) like one iteration of run_partition's step 2.
    """
    def step(models, gs):
        shares, _ = partition.StockholderEngine(gs).allocate(models)
        new, messages = [], []
        for a, model in enumerate(models):
            w = grids.spherical_average(shares[a], gs.angular[a])
            model, msgs = partition.mbisa_update(w, gs.radial[a], model)
            new.append(model)
            messages.extend(msgs)
        return new, messages
    return step


@pytest.fixture(scope="session")
def lisa_subproblem():
    """Builds the radial grid, share profile and mass of one fixed L-ISA step 2."""
    def build():
        radial = grids.build_radial(200, 12.0)
        r, weights = radial.nodes, radial.weights
        zeta = lambda a: (a / math.pi) ** 1.5 * np.exp(-a * r**2)
        w = (1.2 * zeta(0.5) + 0.003 * zeta(2.0)) * (1.0 + 0.02 * np.cos(r))
        return radial, w, 4.0 * math.pi * float(np.sum(weights * r**2 * w))
    return build
