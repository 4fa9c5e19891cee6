#!/usr/bin/env python3
"""Partition one asymmetric diatomic density with all six stockholder schemes.

The density is a sum of two normalized s-Gaussians with different widths, so
the "atoms" are the two centers with one unit of charge each. Every method
splits the same density; the table shows how the schemes differ in the
charge they move between the centers.
"""

import numpy as np

from aimpart import density, grids, partition, proatoms

positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.2]])
rho = density.AnalyticDensity(terms=[
    ("gaussian_s", positions[0], 0.5, 1.2),
    ("gaussian_s", positions[1], 1.1, 0.8),
])
N = density.total_charge(rho)
print(f"density: two s-Gaussians, charges 1.2/0.8, separation 2.2 bohr (N = {N})\n")


def fresh_grids(nr=300):
    gs = grids.AtomicGridSet(positions, grids.build_radial(nr, 14.0),
                             grids.build_angular(100, "axial"))
    return gs.sample_density(rho.eval)


exponents = [proatoms.default_exponents(1, 4), proatoms.default_exponents(1, 4)]

rows = []
for method in partition.METHODS:
    gs = fresh_grids(nr=2000 if method in ("hirshfeld", "hirshfeld-i", "isa") else 300)
    opts = partition.PartitionOptions(max_iter=400, exponents=exponents)
    if method == "hirshfeld":
        nodes = gs.radial[0].nodes
        opts.proatom_tables = {a: proatoms.synthetic_proatom_table(1, 1, nodes, 14.0)
                               for a in range(2)}
    if method == "hirshfeld-i":
        nodes = gs.radial[0].nodes
        opts.proatom_tables = {
            a: proatoms.HirshfeldITable(1, {
                n: proatoms.synthetic_proatom_table(1, n, nodes, 14.0)
                for n in range(0, 4)})
            for a in range(2)}
    res = partition.run_partition(method, rho, gs, options=opts, Z=[1, 1])
    rows.append((method, res))

print(f"{'method':12s} {'conv':5s} {'iters':>5s} {'N_1':>10s} {'N_2':>10s} "
      f"{'d_z(1)':>9s} {'d_z(2)':>9s} {'sum N - N':>10s}")
for method, res in rows:
    defect = res.charges.sum() - N
    print(f"{method:12s} {str(res.converged):5s} {res.iterations:5d} "
          f"{res.charges[0]:10.6f} {res.charges[1]:10.6f} "
          f"{res.dipoles[0, 2]:9.5f} {res.dipoles[1, 2]:9.5f} {defect:10.2e}")

print("\nHirshfeld keeps the neutral pro-atom split; the iterative schemes "
      "find self-consistent pro-atoms, here nearly the exact radial parts "
      "of the separable density.")
