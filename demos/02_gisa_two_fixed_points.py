#!/usr/bin/env python3
"""GISA can converge to different answers from different initial guesses.

A sum of two unit Gaussians (exponents 0.1 and 0.5, separation 1.131 bohr)
has the obvious decomposition: each center keeps its own Gaussian, charges
(1, 1). GISA finds it when started with all weight on one compact shell per
atom. Starting from the balanced guess instead lands on a second fixed point
with visibly shifted charges and nonzero dipoles. The first fixed point has
a degenerate quadratic subproblem (all dual multipliers zero), so pushing
the iteration far beyond three-decimal convergence eventually drifts off it
toward the second one; the stopping tolerance below matches the precision at
which the two answers are quoted.
"""

import numpy as np

from aimpart import density, grids, partition

positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.131]])
rho = density.AnalyticDensity(terms=[
    ("gaussian_s", positions[0], 0.1, 1.0),
    ("gaussian_s", positions[1], 0.5, 1.0),
])
gs = grids.AtomicGridSet(positions, grids.build_radial(300, 15.0),
                         grids.build_angular(200, "axial"))
gs.sample_density(rho.eval)

exponents = [[0.01, 0.1, 1, 2, 5, 10], [0.05, 0.5, 2, 4, 10, 50]]
guesses = {
    "compact-shell guess": [np.array([0, 0, 0, 1, 0, 0.0]),
                            np.array([0, 0, 0, 0, 1, 0.0])],
    "balanced guess     ": "balanced",
}

for name, init in guesses.items():
    opts = partition.PartitionOptions(tol=1e-5, tol_l2=1e-5, max_iter=2000,
                                      exponents=exponents,
                                      init_coefficients=init)
    res = partition.run_partition("gisa", rho, gs, options=opts, Z=[1, 1])
    print(f"{name}: q = ({res.charges[0]:.3f}, {res.charges[1]:.3f})  "
          f"d_z = ({res.dipoles[0, 2]:+.3f}, {res.dipoles[1, 2]:+.3f})  "
          f"[{res.iterations} iterations]")
    for a in range(2):
        c = np.round(res.pro_models[a].coefficients, 4)
        print(f"    atom {a + 1} shell weights: {c}")
print("\nTwo distinct fixed points from two admissible guesses; contrast "
      "with L-ISA, whose strictly convex objective makes the answer unique.")
