"""Spherical/solid harmonics and multipole descriptors of atomic densities.

Conventions (see docs/conventions.md):

* Complex spherical harmonics are L2(S2)-orthonormal and carry the
  Condon-Shortley phase.
* Real spherical harmonics are L2(S2)-orthonormal and do NOT carry the
  Condon-Shortley phase, so Y(1,1) ~ +x, Y(1,-1) ~ +y, Y(1,0) ~ +z.
* Solid harmonics are R(l,m)(r) = |r|^l Y(l,m)(r/|r|), harmonic polynomials
  of degree l, finite at the origin.
* Multipole normalization K(l) = sqrt(4*pi/(2l+1)), the same for all m, so
  that K(l)*R(l,m) are Racah-normalized and the resulting moments are the
  charge for l=0 and the Cartesian dipole vector for l=1.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AtomicMoments",
    "multipole_norm",
    "real_solid_harmonic",
    "complex_solid_harmonic",
    "solid_harmonic_polynomial",
    "complex_real_transform",
    "atomic_moments",
    "traceless_quadrupole",
    "poly_product",
    "poly_shift",
    "gaussian_polynomial_integral",
]


def multipole_norm(l):
    """K(l) = sqrt(4*pi/(2l+1)), the multipole normalization coefficient."""
    return math.sqrt(4.0 * math.pi / (2 * l + 1))


# ---------------------------------------------------------------------------
# Polynomial representation: dict {(i, j, k): coefficient} for x^i y^j z^k.
# Degrees stay small (l <= ~8), so dicts are clear and fast enough.
# ---------------------------------------------------------------------------

def poly_product(pa, pb):
    """Product of two monomial-coefficient dicts."""
    out = {}
    for (i1, j1, k1), c1 in pa.items():
        for (i2, j2, k2), c2 in pb.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def poly_shift(poly, d):
    """Rewrite p(u - d) as a polynomial in u, for a displacement 3-vector d."""
    dx, dy, dz = float(d[0]), float(d[1]), float(d[2])
    out = {}
    for (i, j, k), c in poly.items():
        for a in range(i + 1):
            ca = math.comb(i, a) * (-dx) ** (i - a)
            for b in range(j + 1):
                cb = math.comb(j, b) * (-dy) ** (j - b)
                for g in range(k + 1):
                    cg = math.comb(k, g) * (-dz) ** (k - g)
                    key = (a, b, g)
                    out[key] = out.get(key, 0.0) + c * ca * cb * cg
    return out


def _poly_eval(poly, points):
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    val = None
    for (i, j, k), c in poly.items():
        term = c * x**i * y**j * z**k
        val = term if val is None else val + term
    if val is None:
        val = np.zeros(pts.shape[:-1])
    return val[0] if scalar else val


def _gamma_half(n2):
    """Gamma(n2/2) for positive integer n2, by the half-integer recursion."""
    if n2 <= 0:
        raise ValueError("argument must be positive")
    if n2 % 2 == 0:
        return float(math.factorial(n2 // 2 - 1))
    val = math.sqrt(math.pi)
    k = 1
    while k + 2 <= n2:
        val *= k / 2.0
        k += 2
    return val


def _gauss_1d(n, p):
    """integral over R of t^n exp(-p t^2) dt; zero for odd n."""
    if n % 2 == 1:
        return 0.0
    return _gamma_half(n + 1) / p ** ((n + 1) / 2.0)


def gaussian_polynomial_integral(poly, p):
    """integral over R^3 of poly(u) * exp(-p |u|^2) du, exact."""
    total = 0.0
    for (i, j, k), c in poly.items():
        if i % 2 or j % 2 or k % 2:
            continue
        total += c * _gauss_1d(i, p) * _gauss_1d(j, p) * _gauss_1d(k, p)
    return total


# ---------------------------------------------------------------------------
# Solid harmonic polynomials
# ---------------------------------------------------------------------------

_POLY_CACHE = {}


def _complex_solid_poly(l, m):
    """Monomial expansion of |r|^l Y(l,m) with complex orthonormal Y (m >= 0 here)."""
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi) * math.factorial(l + m) * math.factorial(l - m))
    poly = {}
    # (x + iy) and (x - iy) as polynomials
    plus = {(1, 0, 0): 1.0, (0, 1, 0): 1.0j}
    minus = {(1, 0, 0): 1.0, (0, 1, 0): -1.0j}
    k = 0
    while l - m - 2 * k >= 0:
        coeff = norm / (math.factorial(m + k) * math.factorial(k) * math.factorial(l - m - 2 * k))
        term = {(0, 0, l - m - 2 * k): coeff}
        for _ in range(m + k):
            term = poly_product(term, {key: -0.5 * v for key, v in plus.items()})
        for _ in range(k):
            term = poly_product(term, {key: 0.5 * v for key, v in minus.items()})
        for key, v in term.items():
            poly[key] = poly.get(key, 0.0) + v
        k += 1
    return poly


def solid_harmonic_polynomial(l, m, basis="real"):
    """Monomial-coefficient dict of the degree-l solid harmonic R(l,m).

    Real-basis coefficients are floats, complex-basis ones complex.
    """
    key = (l, m, basis)
    cached = _POLY_CACHE.get(key)
    if cached is not None:
        return cached
    if abs(m) > l or l < 0:
        raise ValueError(f"invalid (l, m) = ({l}, {m})")
    if basis == "complex":
        if m >= 0:
            poly = _complex_solid_poly(l, m)
        else:
            # Y(l,-m) = (-1)^m conj(Y(l,m)) for real arguments
            base = _complex_solid_poly(l, -m)
            poly = {k: (-1) ** (-m) * np.conj(v) for k, v in base.items()}
    elif basis == "real":
        if m == 0:
            poly = {k: v.real for k, v in _complex_solid_poly(l, 0).items()}
        else:
            mm = abs(m)
            cp = _complex_solid_poly(l, mm)
            cm = solid_harmonic_polynomial(l, -mm, basis="complex")
            poly = {}
            for k in set(cp) | set(cm):
                vp = cp.get(k, 0.0)
                vm = cm.get(k, 0.0)
                if m > 0:
                    v = ((-1) ** mm * vp + vm) / math.sqrt(2.0)
                else:
                    v = ((-1) ** mm * vp - vm) / (1j * math.sqrt(2.0))
                poly[k] = v.real
        poly = {k: v for k, v in poly.items() if abs(v) > 0.0}
    else:
        raise ValueError(f"unknown basis {basis!r}")
    _POLY_CACHE[key] = poly
    return poly


def real_solid_harmonic(lm, points):
    """Evaluate R(l,m)(r) = |r|^l Y(l,m)(r/|r|) with real orthonormal Y.

    `lm` is an (l, m) pair; `points` an (..., 3) array. The value at r = 0
    is delta(l,0)/sqrt(4*pi).
    """
    l, m = lm
    return _poly_eval(solid_harmonic_polynomial(l, m, "real"), points)


def complex_solid_harmonic(lm, points):
    """Same as real_solid_harmonic but with complex (Condon-Shortley) Y."""
    l, m = lm
    return _poly_eval(solid_harmonic_polynomial(l, m, "complex"), points)


# ---------------------------------------------------------------------------
# Real <-> complex multipole blocks
# ---------------------------------------------------------------------------

def complex_real_transform(table, direction):
    """Convert a multipole table between real and complex harmonic bases.

    `table` is an (lmax+1, 2*lmax+1) array with Q(l, m) at [l, m]; negative
    m wrap around to the end of each row, and entries with |m| > l must be
    zero (they stay zero). `direction` is "complex_to_real" (returns a float
    table) or "real_to_complex" (takes a real table, returns a complex one).
    The two directions are inverse unitary maps.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[1] != 2 * table.shape[0] - 1:
        raise ValueError(f"incomplete block: table shape {table.shape} is not "
                         "(lmax+1, 2*lmax+1)")
    m = np.arange(1, table.shape[0])
    sign = (-1.0) ** m
    qp, qm = table[:, m], table[:, -m]
    if direction == "complex_to_real":
        out = np.zeros(table.shape)
        out[:, 0] = table[:, 0].real
        out[:, m] = (qm.real + sign * qp.real) / math.sqrt(2.0)
        out[:, -m] = (sign * qp.imag - qm.imag) / math.sqrt(2.0)
    elif direction == "real_to_complex":
        if np.iscomplexobj(table):
            raise ValueError("real_to_complex needs a real table")
        out = np.zeros(table.shape, dtype=complex)
        out[:, 0] = table[:, 0]
        out[:, m] = sign * (qp + 1j * qm) / math.sqrt(2.0)
        out[:, -m] = (qp - 1j * qm) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return out


# ---------------------------------------------------------------------------
# Atomic moments from gridded densities
# ---------------------------------------------------------------------------

@dataclass
class AtomicMoments:
    """Charge, dipole and second-moment matrix of one atomic density.

    All moments are taken about the atom position, in e, e*bohr, e*bohr^2.
    """
    q: float
    p: np.ndarray        # (3,)
    Q: np.ndarray        # (3, 3), symmetric

    def shifted(self, d):
        """Moments about a new origin displaced by d from the current one.

        For a density rho(r) the moments about origin+d are q' = q and
        p' = p - d q; the second moment gains the corresponding dyadic terms.
        """
        d = np.asarray(d, dtype=float)
        q = self.q
        p = self.p - d * q
        Q = self.Q - np.outer(d, self.p) - np.outer(self.p, d) + np.outer(d, d) * q
        return AtomicMoments(q=q, p=p, Q=Q)


def atomic_moments(samples, grids, atom):
    """Moments of one atom's gridded density about its own center.

    Axial angular grids sample a single meridian; for those, the azimuthal
    average of the monomials is taken analytically, which is exact for the
    axially symmetric densities such grids are meant for.
    """
    radial = grids.radial[atom]
    angular = grids.angular[atom]
    f = np.asarray(samples, dtype=float)
    if f.shape != (radial.nodes.size, angular.points.shape[0]):
        raise ValueError(f"sample shape {f.shape} does not match grid")
    wr = 4.0 * math.pi * radial.weights * radial.nodes**2
    eta = angular.weights
    r = radial.nodes[:, None]
    q = float(wr @ (f @ eta))
    if angular.kind == "axial":
        cos_t = angular.points[:, 2]
        sin2 = 1.0 - cos_t**2
        pz = float(wr @ ((f * (r * cos_t)) @ eta))
        p = np.array([0.0, 0.0, pz])
        qzz = float(wr @ ((f * (r * cos_t) ** 2) @ eta))
        qperp = 0.5 * float(wr @ ((f * r**2 * sin2) @ eta))
        Q = np.diag([qperp, qperp, qzz])
    else:
        pts = grids.points_rel(atom)  # (nr, ns, 3)
        p = np.empty(3)
        Q = np.empty((3, 3))
        for i in range(3):
            p[i] = float(wr @ ((f * pts[..., i]) @ eta))
            for j in range(i, 3):
                Q[i, j] = Q[j, i] = float(wr @ ((f * pts[..., i] * pts[..., j]) @ eta))
    return AtomicMoments(q=q, p=p, Q=Q)


def traceless_quadrupole(Q):
    """Buckingham-convention traceless quadrupole Theta = (3Q - tr(Q) I)/2."""
    Q = np.asarray(Q, dtype=float)
    return 1.5 * Q - 0.5 * np.trace(Q) * np.eye(3)
