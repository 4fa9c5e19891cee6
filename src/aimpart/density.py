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
    "PairTable",
    "product_moments",
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

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite 3-vector")
        if not (self.exponent > 0 and math.isfinite(self.exponent)):
            raise ValueError("exponent must be finite and positive")
        if abs(self.m) > self.l or self.l < 0:
            raise ValueError(f"invalid angular momentum (l={self.l}, m={self.m})")
        try:
            norm = primitive_norm(self.l, self.exponent)
        except OverflowError:
            raise ValueError(f"exponent {self.exponent!r} is too large to normalise") from None
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "norm", norm)

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
    center: np.ndarray     # R_munu
    exponent: float        # zeta_mu + zeta_nu
    prefactor: float       # K_munu in (0, 1]
    mu: PrimitiveGaussian
    nu: PrimitiveGaussian

    def moments(self, lmax):
        """Racah multipoles K(l) int R(l,m)(u) chi_mu(C + u) chi_nu(C + u) du
        about the natural center C = R_munu, as an (lmax+1, 2*lmax+1) table
        in the MultipoleSeries layout: a one-pair call of `product_moments`.
        """
        pair = PairTable(i=np.array([0]), j=np.array([1]), population=np.ones(1),
                         center=self.center[None], exponent=np.array([self.exponent]),
                         prefactor=np.array([self.prefactor]), shell_pair=np.zeros(1, dtype=int))
        return product_moments((self.mu, self.nu), pair, lmax)[..., 0]


@dataclass(frozen=True)
class PairTable:
    """Primitive pairs as arrays, one entry per pair p.

    i[p] <= j[p] index the primitives, population[p] is the pair's weight in
    the density and center, exponent and prefactor are its Gaussian-product
    center R_ij (P, 3), p = zeta_i + zeta_j and K_ij (see product_center).
    shell_pair[p] numbers the unordered pair of shells of i and j (see
    GtoDensity.shell), so pairs with one number share center and exponent.
    """
    i: np.ndarray
    j: np.ndarray
    population: np.ndarray
    center: np.ndarray
    exponent: np.ndarray
    prefactor: np.ndarray
    shell_pair: np.ndarray

    def __len__(self):
        return self.i.size


# Pairs times nodes in one block of the batched Gauss-Hermite kernel. Each
# block holds a few (pairs, nodes) float arrays, so this bounds its memory
# at a few MB whatever the size of the basis.
HERMITE_BLOCK = 1 << 15


@functools.lru_cache(maxsize=None)
def _hermite_cube(n):
    """Nodes (n^3, 3) and weights (n^3,) of the n-point Gauss-Hermite rule
    for exp(-|u|^2) on R^3, exact for degree 2n - 1 in each coordinate."""
    t, w = np.polynomial.hermite.hermgauss(n)
    nodes = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.einsum("i,j,k->ijk", w, w, w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _node_harmonics(n, lmax):
    """K(l) R(l,m) on the bare n-point node cube, one row per (l, m) of
    moments.lm_index(lmax), as a read-only (rows, n^3) array."""
    l, m = moments.lm_index(lmax)
    table = (moments.multipole_norm(l)[:, None]
             * moments.solid_harmonics(lmax, _hermite_cube(n)[0])[l, m])
    table.flags.writeable = False
    return table


def product_moments(primitives, pairs, lmax):
    """Racah multipoles of every pair product about its natural center.

    Returns an (lmax+1, 2*lmax+1, P) stack in the MultipoleSeries layout with
    K(l) int R(l,m)(u) chi_i(C + u) chi_j(C + u) du for pair p of the
    PairTable `pairs` over `primitives` at [..., p]; the population is not
    applied.

    The integrand is K exp(-p |u|^2) times a polynomial of degree at most
    l_i + l_j + l in each coordinate, so a tensor Gauss-Hermite rule with
    n = floor((l_i + l_j + l)/2) + 1 nodes per axis, scaled by 1/sqrt(p), is
    exact. Rows with l > l_i + l_j vanish (R(l,m) is orthogonal to every
    lower-degree polynomial under a radial weight) and are exact zeros. As
    R(l,m)(t/sqrt(p)) = p^(-l/2) R(l,m)(t), every pair with the same
    (l_i, l_j), ordered so that l_i <= l_j, contracts its two primitives'
    values on its scaled nodes against one harmonic table of the bare node
    cube, one matrix product per block of HERMITE_BLOCK pair-nodes.
    """
    l = np.array([g.l for g in primitives], dtype=int)
    m = np.array([g.m for g in primitives], dtype=int)
    norm = np.array([g.norm for g in primitives])
    origin = np.array([g.center for g in primitives]).reshape(-1, 3)
    swap = l[pairs.i] > l[pairs.j]
    a = np.where(swap, pairs.j, pairs.i)
    b = np.where(swap, pairs.i, pairs.j)
    scale = pairs.prefactor * pairs.exponent ** -1.5 * norm[a] * norm[b]
    out = np.zeros((lmax + 1, 2 * lmax + 1, len(pairs)))
    groups = np.unique(np.stack([l[a], l[b]], axis=1), axis=0)
    for la, lb in groups.tolist():
        top = min(lmax, la + lb)
        n = (la + lb + top) // 2 + 1
        nodes, weights = _hermite_cube(n)
        harmonics = _node_harmonics(n, top)
        rows_l, rows_m = moments.lm_index(top)
        members = np.flatnonzero((l[a] == la) & (l[b] == lb))
        step = max(1, HERMITE_BLOCK // n**3)
        for start in range(0, members.size, step):
            g = members[start:start + step]
            u = nodes * pairs.exponent[g, None, None] ** -0.5     # (G, n^3, 3)
            f = weights * _harmonic(la, m[a[g]], u + (pairs.center[g] - origin[a[g]])[:, None])
            f *= _harmonic(lb, m[b[g]], u + (pairs.center[g] - origin[b[g]])[:, None])
            t = f @ harmonics.T                                    # (G, rows)
            t *= scale[g, None] * pairs.exponent[g, None] ** (-0.5 * rows_l)
            out[rows_l, rows_m, g[:, None]] = t
    return out


def _harmonic(l, m, points):
    """R(l, m[g])(points[g]) for (G, n, 3) points and one m per g."""
    out = np.empty(points.shape[:-1])
    for mm in np.unique(m).tolist():
        sel = m == mm
        out[sel] = moments.real_solid_harmonic((l, mm), points[sel])
    return out


def _product_rule(zeta_i, zeta_j, origin_i, origin_j):
    """Gaussian product theorem for arrays of primitive pairs: (center, p, K).

    R_ij = (zeta_i R_i + zeta_j R_j)/p with p = zeta_i + zeta_j lies on the
    segment between the two centers, and the prefactor is
    K_ij = exp(-zeta_i zeta_j / p |R_i - R_j|^2).
    """
    p = zeta_i + zeta_j
    d2 = np.sum((origin_i - origin_j) ** 2, axis=1)
    center = (zeta_i[:, None] * origin_i + zeta_j[:, None] * origin_j) / p[:, None]
    return center, p, np.exp(-zeta_i * zeta_j / p * d2)


def product_center(mu, nu):
    """Gaussian product theorem for two primitives (see _product_rule)."""
    center, p, k = _product_rule(np.array([mu.exponent]), np.array([nu.exponent]),
                                 mu.center[None], nu.center[None])
    return ProductTerm(center=center[0], exponent=float(p[0]), prefactor=float(k[0]),
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
        if not np.all(np.isfinite(P)):
            raise ValueError("P must be finite")
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        # halves first: P + P.T overflows for entries near the largest double
        object.__setattr__(self, "P", 0.5 * P + 0.5 * P.T)

    @functools.cached_property
    def shell(self):
        """Read-only shell number of each primitive, in order of first
        appearance: a shell is every primitive of one center and exponent,
        whatever its (l, m)."""
        index = {}
        shell = np.array([index.setdefault((*g.center.tolist(), g.exponent), len(index))
                          for g in self.primitives], dtype=int)
        shell.flags.writeable = False
        return shell

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        chi = np.stack([prim(pts) for prim in self.primitives])  # (nb, npts)
        # P chi by einsum, not by a BLAS product: this product is large
        # enough for BLAS to split it over threads, and on a loaded 2-core host
        # a tenth of such calls then stall for about 15 ms
        rho = np.einsum("mp,mp->p", chi, np.einsum("mn,np->mp", self.P, chi))
        # tiny negative lobes are floating-point round-off of a nonnegative density
        rho[(rho < 0) & (rho > -NEGATIVE_CLAMP)] = 0.0
        return rho

    def pairs(self):
        """PairTable of all i <= j with P[i, j] != 0; population (2 - delta_ij) P[i, j]."""
        i, j = np.triu_indices(len(self.primitives))
        keep = self.P[i, j] != 0.0
        i, j = i[keep], j[keep]
        zeta = np.array([g.exponent for g in self.primitives])
        origin = np.array([g.center for g in self.primitives]).reshape(-1, 3)
        center, p, k = _product_rule(zeta[i], zeta[j], origin[i], origin[j])
        # the product rule is symmetric in i and j to the bit, so one number
        # serves both orders of a shell pair
        a, b = self.shell[i], self.shell[j]
        return PairTable(i=i, j=j, population=np.where(i == j, 1.0, 2.0) * self.P[i, j],
                         center=center, exponent=p, prefactor=k,
                         shell_pair=np.minimum(a, b) * len(self.primitives) + np.maximum(a, b))

    def charge(self):
        """sum_{mu,nu} P[mu,nu] <chi_mu | chi_nu> with closed-form overlaps."""
        pairs = self.pairs()
        return float(pairs.population @ product_moments(self.primitives, pairs, 0)[0, 0])


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
            center = np.asarray(center, dtype=float)
            if center.shape != (3,) or not np.all(np.isfinite(center)):
                raise ValueError("term centers must be finite 3-vectors")
            if not (exponent > 0 and math.isfinite(exponent)):
                raise ValueError("term exponents must be finite and positive")
            try:   # the power in eval's normalisation; a float power raises on overflow
                (exponent / math.pi) ** 1.5 if kind == "gaussian_s" else exponent**3
            except OverflowError:
                raise ValueError(f"term exponent {exponent!r} is too large to normalise") from None
            if not (coefficient >= 0 and math.isfinite(coefficient)):
                raise ValueError("term coefficients must be finite and nonnegative")
            cooked.append((kind, center, float(exponent), float(coefficient)))
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
