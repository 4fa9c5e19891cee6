"""Relabelling the atoms or rotating the molecule leaves every atom's numbers
as they were: charges permute with the atoms and dipoles rotate with them."""

import numpy as np
import pytest

from aimpart import density, grids, partition

# bent3's shell ladders (bench/workloads.py): the diffuse six-shell one for
# heavy atoms, the four-shell one for H
LADDERS = {1: [0.1, 0.4, 1.6, 6.4], 6: [0.2, 0.8, 3.0, 12.0, 48.0, 190.0],
           8: [0.2, 0.8, 3.0, 12.0, 48.0, 190.0]}
TOL = 1e-12


def _run(method, Z, positions, terms, angular_points):
    angular = grids.AngularGrid(points=angular_points,
                                weights=grids.build_angular(50).weights, kind="lebedev")
    gs = grids.AtomicGridSet(positions, grids.build_radial(60, 14.0, "log"), angular)
    options = partition.PartitionOptions(tol=0.0, tol_l2=0.0, max_iter=8)
    if method in ("gisa", "lisa"):
        options.exponents = [LADDERS[z] for z in Z]
    res = partition.run_partition(method, density.AnalyticDensity(terms=terms), gs,
                                  options, Z=Z)
    return res, gs.folded()[0] is not gs


# a molecule in the xz plane, a mirror plane of the grid: its runs fold the
# repeated angular columns, and are compared against its rotated run, which does not
@pytest.mark.parametrize("seed, planar", [(0, False), (1, False), (2, False), (5, True)],
                         ids=["0", "1", "2", "planar-5"])
@pytest.mark.parametrize("method", ["isa", "gisa", "lisa", "mbisa"])
def test_partition_is_equivariant_under_permutation_and_rotation(random_molecule, method,
                                                                 seed, planar):
    Z, positions, terms = random_molecule(seed, planar)
    sphere = grids.build_angular(50).points
    base, folded = _run(method, Z, positions, terms, sphere)
    assert folded == planar

    rng = np.random.default_rng(100 + seed)
    order = rng.permutation(len(Z))
    owner = [int(np.argmin(np.linalg.norm(positions - t[1], axis=1))) for t in terms]
    permuted, folded = _run(method, [Z[a] for a in order], positions[order],
                            [t for a in order for t, o in zip(terms, owner) if o == a], sphere)
    assert folded == planar
    assert permuted.iterations == base.iterations
    assert np.max(np.abs(permuted.charges - base.charges[order])) <= TOL
    assert np.max(np.abs(permuted.dipoles - base.dipoles[order])) <= TOL

    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated, folded = _run(method, Z, positions @ R.T,
                           [(kind, c @ R.T, a, q) for kind, c, a, q in terms], sphere @ R.T)
    assert not folded
    assert rotated.iterations == base.iterations
    assert np.max(np.abs(rotated.charges - base.charges)) <= TOL
    assert np.max(np.abs(rotated.dipoles @ R - base.dipoles)) <= TOL
