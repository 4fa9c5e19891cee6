#!/usr/bin/env python3
"""The relative entropy is a Lyapunov function of the ISA and L-ISA loops.

Each iteration first reallocates the density (stockholder step) and then
refits the radial pro-atoms; the total Kullback-Leibler divergence between
the atomic pieces and their pro-atoms can only go down, by at least the
squared L2 size of the reallocation over twice the density's sup-norm.
Both the trace and the bound are printed here for a mixed Slater/Gaussian
diatomic, for ISA (free radial pro-atoms) and L-ISA (Gaussian-shell fits).
"""

import numpy as np

from aimpart import density, grids, partition

positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
rho = density.AnalyticDensity(terms=[
    ("slater_s", positions[0], 2.0, 1.0),
    ("gaussian_s", positions[1], 0.6, 1.0),
])

for method, extra in [("isa", {}),
                      ("lisa", {"exponents": [[0.2, 0.8, 3.0, 12.0]] * 2})]:
    gs = grids.AtomicGridSet(positions, grids.build_radial(500, 14.0),
                             grids.build_angular(100, "axial"))
    gs.sample_density(rho.eval)
    opts = partition.PartitionOptions(max_iter=60, **extra)
    res = partition.run_partition(method, rho, gs, options=opts, Z=[1, 1])
    S = np.array(res.entropy_trace)
    bound = np.array(res.l2_step_sq_history) / (2 * res.density_sup)
    print(f"\n{method.upper()} (converged={res.converged}, "
          f"{res.iterations} iterations)")
    print(f"{'m':>3s} {'S(m)':>14s} {'S(m-1)-S(m)':>13s} {'lower bound':>13s}")
    for m in range(1, min(len(S), 12)):
        print(f"{m + 1:3d} {S[m]:14.9f} {S[m - 1] - S[m]:13.3e} {bound[m]:13.3e}")
    drops = S[:-1] - S[1:]
    print(f"... monotone: {bool(np.all(drops >= -1e-8))}, "
          f"bound satisfied: {bool(np.all(drops - bound[1:len(S)] >= -1e-10))}")
