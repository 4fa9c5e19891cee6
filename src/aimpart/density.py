"""Molecular densities and their building blocks.

Two density representations are supported:

* AnalyticDensity: a sum of s-type normalized Gaussian or Slater terms, each
  scaled by a nonnegative charge coefficient. Nonnegative by construction.
* GtoDensity: a primitive Gaussian basis with a symmetric coefficient matrix
  P, rho(r) = sum_{mu,nu} P[mu,nu] chi_mu(r) chi_nu(r).

All positions and exponents are in atomic units (bohr).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import moments

__all__ = [
    "Atom",
    "PrimitiveGaussian",
    "GtoDensity",
    "AnalyticDensity",
    "ProductTerm",
    "eval_density",
    "total_charge",
    "to_primitive_matrix",
    "product_center",
    "primitive_norm",
    "primitive_overlap",
]

# Negative values of this magnitude or smaller are GTO round-off; anything
# larger would indicate a non-physical coefficient matrix and is not hidden.
NEGATIVE_CLAMP = 1e-14


@dataclass(frozen=True)
class Atom:
    symbol: str
    Z: int
    position: np.ndarray  # (3,), bohr

    def __post_init__(self):
        if self.Z < 1:
            raise ValueError(f"nuclear charge must be >= 1, got {self.Z}")
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)


def primitive_norm(l, exponent):
    """L2 normalization constant of R(l,m)(r) exp(-zeta r^2).

    Independent of m because the real spherical harmonics are orthonormal:
    the radial integral is int r^(2l+2) exp(-2 zeta r^2) dr.
    """
    radial = moments._gamma_half(2 * l + 3) / (2.0 * (2.0 * exponent) ** (l + 1.5))
    return 1.0 / math.sqrt(radial)


@dataclass(frozen=True)
class PrimitiveGaussian:
    """chi(r) = N * R(l,m)(r - C) * exp(-zeta |r - C|^2), L2-normalized."""
    center: np.ndarray
    l: int
    m: int
    exponent: float
    norm: float = None

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        if abs(self.m) > self.l or self.l < 0:
            raise ValueError(f"invalid angular momentum (l={self.l}, m={self.m})")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.norm is None:
            object.__setattr__(self, "norm", primitive_norm(self.l, self.exponent))
        elif self.norm <= 0:
            raise ValueError("norm must be positive")

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = pts - self.center
        r2 = np.einsum("...i,...i->...", rel, rel)
        val = self.norm * moments.real_solid_harmonic((self.l, self.m), rel) \
            * np.exp(-self.exponent * r2)
        return val


@dataclass(frozen=True)
class ProductTerm:
    """One Gaussian-product term chi_mu * chi_nu with its natural center."""
    pair: tuple            # (mu, nu) indices
    center: np.ndarray     # R_munu
    exponent: float        # zeta_mu + zeta_nu
    prefactor: float       # K_munu in (0, 1]
    mu: PrimitiveGaussian
    nu: PrimitiveGaussian

    def moments(self, lmax):
        """Racah multipoles K(l) int R(l,m)(u) chi_mu(C + u) chi_nu(C + u) du
        about the natural center C = R_munu, as an (lmax+1, 2*lmax+1) table
        in the MultipoleSeries layout.

        The integrand is exp(-p |u|^2) times a polynomial of degree at most
        l_mu + l_nu + l in each coordinate, so a tensor Gauss-Hermite rule
        with floor((l_mu + l_nu + l)/2) + 1 nodes per axis is exact. Rows
        with l > l_mu + l_nu vanish (R(l,m) is orthogonal to every
        lower-degree polynomial under a radial weight) and are exact zeros.
        """
        l_natural = self.mu.l + self.nu.l
        top = min(lmax, l_natural)
        nodes, weights = _hermite_cube((l_natural + top) // 2 + 1)
        u = nodes / math.sqrt(self.exponent)
        f = self.prefactor * self.exponent ** -1.5 * weights
        for g in (self.mu, self.nu):
            f = f * g.norm * moments.real_solid_harmonic((g.l, g.m), u + self.center - g.center)
        table = np.zeros((lmax + 1, 2 * lmax + 1))
        m = np.arange(-top, top + 1)
        racah = moments.multipole_norm(np.arange(top + 1))[:, None]
        table[:top + 1, m] = racah * (moments.solid_harmonics(top, u)[:, m] @ f)
        return table


@functools.lru_cache(maxsize=None)
def _hermite_cube(n):
    """Nodes (n^3, 3) and weights (n^3,) of the n-point Gauss-Hermite rule
    for exp(-|u|^2) on R^3, exact for degree 2n - 1 in each coordinate."""
    t, w = np.polynomial.hermite.hermgauss(n)
    nodes = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.einsum("i,j,k->ijk", w, w, w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def product_center(mu, nu, pair=(0, 0)):
    """Gaussian product theorem for two primitives.

    R_munu = (zeta_mu R_mu + zeta_nu R_nu)/(zeta_mu + zeta_nu) lies on the
    segment between the two centers, and the prefactor is
    K_munu = exp(-zeta_mu zeta_nu / (zeta_mu + zeta_nu) |R_mu - R_nu|^2).
    """
    p = mu.exponent + nu.exponent
    center = (mu.exponent * mu.center + nu.exponent * nu.center) / p
    d2 = float(np.sum((mu.center - nu.center) ** 2))
    k = math.exp(-mu.exponent * nu.exponent / p * d2)
    return ProductTerm(pair=tuple(pair), center=center, exponent=p, prefactor=k,
                       mu=mu, nu=nu)


@dataclass(frozen=True)
class GtoDensity:
    primitives: tuple
    P: np.ndarray

    def __post_init__(self):
        prims = tuple(self.primitives)
        object.__setattr__(self, "primitives", prims)
        P = np.asarray(self.P, dtype=float)
        n = len(prims)
        if P.shape != (n, n):
            raise ValueError(f"P has shape {P.shape}, expected ({n}, {n})")
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        object.__setattr__(self, "P", 0.5 * (P + P.T))

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        chi = np.stack([prim(pts) for prim in self.primitives])  # (nb, npts)
        rho = np.einsum("mp,mn,np->p", chi, self.P, chi)
        # tiny negative lobes are floating-point round-off of a nonnegative density
        rho[(rho < 0) & (rho > -NEGATIVE_CLAMP)] = 0.0
        return rho

    def pairs(self):
        """(i, j, population (2 - delta_ij) P[i, j]) for all i <= j with P[i, j] != 0."""
        n = len(self.primitives)
        return [(i, j, (1.0 if i == j else 2.0) * self.P[i, j])
                for i in range(n) for j in range(i, n) if self.P[i, j] != 0.0]

    def charge(self):
        """sum_{mu,nu} P[mu,nu] <chi_mu | chi_nu> with closed-form overlaps."""
        total = 0.0
        for i, j, population in self.pairs():
            total += population * primitive_overlap(self.primitives[i], self.primitives[j])
        return total


def primitive_overlap(mu, nu):
    """<chi_mu | chi_nu> from the Gaussian product theorem, exact."""
    return product_center(mu, nu).moments(0)[0, 0]


@dataclass(frozen=True)
class AnalyticDensity:
    """Sum of s-type terms c*(a/pi)^(3/2) exp(-a r^2) or c*(a^3/8 pi) exp(-a r).

    Each term integrates to its coefficient, so the total charge is the sum
    of coefficients. Coefficients must be nonnegative, which keeps the
    density nonnegative everywhere.
    """
    terms: tuple  # of (kind, center, exponent, coefficient)

    def __post_init__(self):
        cooked = []
        for kind, center, exponent, coefficient in self.terms:
            if kind not in ("gaussian_s", "slater_s"):
                raise ValueError(f"unknown term kind {kind!r}")
            if exponent <= 0:
                raise ValueError("term exponents must be positive")
            if coefficient < 0:
                raise ValueError("term coefficients must be nonnegative")
            cooked.append((kind, np.asarray(center, dtype=float),
                           float(exponent), float(coefficient)))
        object.__setattr__(self, "terms", tuple(cooked))

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rho = np.zeros(pts.shape[0])
        for kind, center, a, c in self.terms:
            if c == 0.0:
                continue
            rel = pts - center
            r2 = np.einsum("...i,...i->...", rel, rel)
            if kind == "gaussian_s":
                rho += c * (a / math.pi) ** 1.5 * np.exp(-a * r2)
            else:
                rho += c * a**3 / (8.0 * math.pi) * np.exp(-a * np.sqrt(r2))
        return rho

    def charge(self):
        return sum(c for _, _, _, c in self.terms)


def eval_density(model, points):
    """Evaluate a density model at one point or an (n, 3) array of points."""
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 1
    vals = model.eval(np.atleast_2d(pts))
    return float(vals[0]) if scalar else vals


def total_charge(model):
    """Exact integral of the model density over R^3."""
    return float(model.charge())


def to_primitive_matrix(shells, P_contracted):
    """Expand a contracted basis into primitives.

    Each shell is a (center, l, m, [(exponent, coefficient), ...]) tuple
    describing one contracted function as a fixed combination of normalized
    primitives. Returns the GtoDensity over all primitives with
    P_prim = C^T P_contracted C, where C[alpha, i] maps contracted function
    alpha to primitive i. The represented density is unchanged.
    """
    P_contracted = np.asarray(P_contracted, dtype=float)
    nc = len(shells)
    if P_contracted.shape != (nc, nc):
        raise ValueError(
            f"contracted matrix has shape {P_contracted.shape}, expected ({nc}, {nc})")
    primitives = []
    cols = []
    for center, l, m, contraction in shells:
        start = len(primitives)
        for exponent, coefficient in contraction:
            primitives.append(PrimitiveGaussian(center=center, l=l, m=m,
                                                exponent=exponent))
        cols.append((start, [c for _, c in contraction]))
    C = np.zeros((nc, len(primitives)))
    for alpha, (start, coeffs) in enumerate(cols):
        C[alpha, start:start + len(coeffs)] = coeffs
    P_prim = C.T @ P_contracted @ C
    return GtoDensity(primitives=tuple(primitives), P=P_prim)
