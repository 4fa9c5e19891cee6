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


@pytest.fixture(scope="session")
def random_molecule():
    """Seeded random 2-4-atom H/C/O molecules with bent3-like Slater densities.

    Each atom sits 1.8-2.8 bohr from the previous one and at least 1.6 bohr
    from every other. H carries one Slater term of exponent about 2 and
    charge 1; C and O a core term of exponent about 2Z and charge 2 plus a
    valence term of exponent about 3 and charge Z - 2. Returns
    (Z, positions, terms), the terms as AnalyticDensity takes them.
    """
    def build(seed):
        rng = np.random.default_rng(seed)
        Z = rng.choice([1, 6, 8], size=rng.integers(2, 5)).tolist()
        positions = [np.zeros(3)]
        while len(positions) < len(Z):
            step = rng.normal(size=3)
            trial = positions[-1] + rng.uniform(1.8, 2.8) * step / np.linalg.norm(step)
            if min(np.linalg.norm(trial - p) for p in positions) >= 1.6:
                positions.append(trial)
        terms = []
        for z, pos in zip(Z, positions):
            if z == 1:
                terms.append(("slater_s", pos, rng.uniform(1.9, 2.1), 1.0))
            else:
                terms += [("slater_s", pos, 2.0 * z * rng.uniform(0.95, 1.05), 2.0),
                          ("slater_s", pos, rng.uniform(2.8, 3.2), z - 2.0)]
        return Z, np.array(positions), terms
    return build
