#!/usr/bin/env python3
"""Multipolar electrostatic potential versus the exact Coulomb integral.

Far from the molecule the truncated site expansion converges rapidly to the
exact potential as the maximum order grows; inside the density it is a poor
approximation (the penetration regime) and the comparison says so rather
than hiding it.
"""

import warnings

import numpy as np

from aimpart import density, dma, grids

prims = [
    density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=0.9),
    density.PrimitiveGaussian(center=(0, 0, 1.8), l=0, m=0, exponent=1.3),
    density.PrimitiveGaussian(center=(0, 0, 1.8), l=1, m=0, exponent=0.7),
]
P = np.array([[1.0, 0.15, 0.1], [0.15, 0.8, 0.05], [0.1, 0.05, 0.4]])
gto = density.GtoDensity(primitives=prims, P=P)
gs = grids.AtomicGridSet(np.array([[0, 0, 0], [0, 0, 1.8]]),
                         grids.build_radial(200, 12.0), grids.build_angular(110))

sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0, 0, 1.8]]), labels=["A", "B"])
# both ESP functions take one point or an (N, 3) array; each call below
# serves all far points at once
far = np.array([[8.0, 5.0, 12.0], [-10.0, 3.0, -6.0], [0.0, 0.0, 20.0]])
v_exact = dma.esp_exact(gto, far, gs)
for point, v in zip(far, v_exact):
    print(f"far point {point}: exact V = {v:.10f}")
print(f"{'lmax':>4s} {'V_multipole at the first point':>30s} {'max rel error':>14s}")
for lmax in range(0, 7):
    series, _ = dma.run_dma(gto, sites, lmax=lmax)
    v = dma.esp_multipole(series, far)
    print(f"{lmax:4d} {v[0]:30.10f} {np.max(np.abs(v - v_exact) / np.abs(v_exact)):14.2e}")

near = np.array([0.0, 0.5, 0.9])
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    v_near = dma.esp_exact(gto, near, gs)
series, _ = dma.run_dma(gto, sites, lmax=4)
v_near_m = dma.esp_multipole(series, near)
print(f"\nnear point {near}: exact {v_near:.4f} vs multipole {v_near_m:.4f} "
      f"(rel error {abs(v_near_m - v_near) / abs(v_near):.1%})")
print(f"quadrature warning raised: {any('penetration' in str(w.message) for w in caught)}")
