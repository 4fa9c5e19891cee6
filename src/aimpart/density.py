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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import NumericalError, ValidationError
from .grids import checked_position
from .proatoms import GaussianExpansion, SlaterShells

__all__ = [
    "Atom",
    "PrimitiveGaussian",
    "primitive_values",
    "GtoDensity",
    "AnalyticDensity",
    "ProductTerm",
    "ShellTable",
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
# Highest multipole order: the M2M term lists grow as lmax^4 / 5 Python
# tuples, 210 001 of them at 32.
MAX_LMAX = 32


@dataclass(frozen=True)
class Atom:
    symbol: str
    Z: int
    position: np.ndarray  # (3,), bohr

    def __post_init__(self):
        if not 1 <= self.Z <= 118:
            raise ValueError(f"nuclear charge must be from 1 to 118, got {self.Z:g}")
        object.__setattr__(self, "position", checked_position(self.position, "position"))


def primitive_norm(l, exponent):
    """L2 normalization constant of R(l,m)(r) exp(-zeta r^2).

    Independent of m because the real spherical harmonics are orthonormal:
    the radial integral is int r^(2l+2) exp(-2 zeta r^2) dr. Raises
    ValueError when that integral is out of double range.
    """
    if l > 170:
        raise ValueError("l is too large to normalise: Gamma(l + 3/2) overflows "
                         "double precision for l > 170")
    try:
        return 1.0 / math.sqrt(math.gamma(l + 1.5) / (2.0 * math.pow(2.0 * exponent, l + 1.5)))
    except (OverflowError, ZeroDivisionError):
        size = "large" if exponent > 1.0 else "small"
        raise ValueError(f"exponent {exponent!r} is too {size} to normalise") from None


@dataclass(frozen=True)
class PrimitiveGaussian:
    """chi(r) = N * R(l,m)(r - C) * exp(-zeta |r - C|^2), L2-normalized."""
    center: np.ndarray
    l: int
    m: int
    exponent: float

    def __post_init__(self):
        center = checked_position(self.center, "center")
        if not (self.exponent > 0 and math.isfinite(self.exponent)):
            raise ValueError("exponent must be finite and positive")
        if abs(self.m) > self.l or self.l < 0:
            raise ValueError(f"invalid angular momentum (l={self.l}, m={self.m})")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "norm", primitive_norm(self.l, self.exponent))

    def __call__(self, points):
        """chi at one point or (N, 3) points: a one-primitive call of
        primitive_values."""
        return primitive_values((self,), np.zeros(1, dtype=int), points)[0]


def primitive_values(primitives, shell, points):
    """chi_k at one point or (N, 3) points for every primitive, as (nb, N).

    `shell` numbers the primitives' shells (see GtoDensity.shell): the
    components of one shell share r - C, |r - C|^2 and exp(-zeta |r - C|^2),
    computed once, and take their R(l, m) from one solid_harmonics call,
    which equals real_solid_harmonic to the last bit. Each value is
    (norm_k R(l_k, m_k)) exp(-zeta r^2), in that order, as for the primitive
    alone.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    l = np.array([g.l for g in primitives], dtype=int)
    m = np.array([g.m for g in primitives], dtype=int)
    norm = np.array([g.norm for g in primitives])
    chi = np.empty((len(primitives), pts.shape[0]))
    for s in np.unique(shell).tolist():
        members = np.flatnonzero(shell == s)
        g = primitives[members[0]]
        rel = pts - g.center
        r2 = np.einsum("...i,...i->...", rel, rel)
        lk, mk = l[members], m[members]
        vals = norm[members, None] * moments.solid_harmonics(int(lk.max()), rel)[lk, mk]
        vals *= np.exp(-g.exponent * r2)
        chi[members] = vals
    return chi


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
        in the MultipoleSeries layout: `product_moments` of the density
        chi_mu chi_nu. An lmax outside 0..MAX_LMAX raises ValidationError.
        """
        pair = GtoDensity(primitives=(self.mu, self.nu), P=[[0.0, 0.5], [0.5, 0.0]])
        return product_moments(pair, lmax)[..., 0]


# The shells of a GtoDensity (see GtoDensity.shell): center[s], exponent[s]
# and l[s], the largest l of shell s. A slot is a (shell, lm row) that some
# primitive holds: `order` lists the primitives by slot, slot u starts at
# first[u] in it, and slot[s, row] is the slot number, or the slot count if
# none. Live shell pairs a[q] <= b[q] (a nonzero entry in their block of P),
# in lexicographic order, with their product center, p and K.
ShellTable = namedtuple("ShellTable", "center exponent l order first slot a b "
                                      "pair_center pair_exponent prefactor")


# Shell pairs times nodes in one block of the batched Gauss-Hermite kernel.
# Each block holds a few (rows, shell pairs, nodes) float arrays, so this
# bounds its memory at a few MB whatever the size of the basis.
HERMITE_BLOCK = 1 << 12


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


def product_moments(dens, lmax):
    """Racah multipoles of every live shell pair's density about its natural center.

    Returns an (lmax+1, 2*lmax+1, G) stack in the MultipoleSeries layout, one
    table per live shell pair a <= b of dens.shells, in its order: the sum
    over i of shell a and j of shell b of (2 - delta_ab) P[i, j] K(l)
    int R(l,m)(u) chi_i(C + u) chi_j(C + u) du. An lmax outside 0..MAX_LMAX
    raises ValidationError.

    A shell pair's integrand is K exp(-p |u|^2) times a polynomial of degree
    at most L_a + L_b + l per coordinate, L_a and L_b the largest l of its
    shells, so one Gauss-Hermite rule with n = floor((L_a + L_b + top)/2) + 1
    nodes per axis, top = min(lmax, L_a + L_b), scaled by 1/sqrt(p), is
    exact; rows with l > L_a + L_b are exact zeros. P folded onto the slots
    (repeated primitives sum) holds each shell pair's populations as a block.
    Per (L_a, L_b) group and block of HERMITE_BLOCK shell-pair nodes, one
    solid_harmonics table per side holds every row on every scaled node, the
    populations are contracted on the nodes, and as R(l,m)(t/sqrt(p)) =
    p^(-l/2) R(l,m)(t), one product with the harmonic table of the bare node
    cube gives the rows.
    """
    if not 0 <= lmax <= MAX_LMAX:
        raise ValidationError([f"multipole lmax must be from 0 to {MAX_LMAX}, got {lmax}"])
    sh = dens.shells
    # the last row and column stand for the slots that no primitive holds
    pop = np.zeros((sh.first.size + 1,) * 2)
    pop[:-1, :-1] = np.add.reduceat(np.add.reduceat(
        dens.P[np.ix_(sh.order, sh.order)], sh.first, axis=0), sh.first, axis=1)
    norm = np.append([dens.primitives[k].norm for k in sh.order[sh.first]], 0.0)
    a, b, center, p = sh.a, sh.b, sh.pair_center, sh.pair_exponent
    out = np.zeros((lmax + 1, 2 * lmax + 1, a.size))
    for la, lb in sorted(set(zip(sh.l[a].tolist(), sh.l[b].tolist()))):
        top = min(lmax, la + lb)
        n = (la + lb + top) // 2 + 1
        nodes, weights = _hermite_cube(n)
        harmonics = _node_harmonics(n, top)
        rows_l, rows_m = moments.lm_index(top)
        members = np.flatnonzero((sh.l[a] == la) & (sh.l[b] == lb))
        # (shell pairs, rows of side a, rows of side b) weighted populations;
        # a power of two per shell pair, undone on its rows, keeps
        # N_i N_j pop in range wherever the table is (and is exact)
        sa = sh.slot[a[members], :(la + 1) ** 2]
        sb = sh.slot[b[members], :(lb + 1) ** 2]
        weight = pop[sa[:, :, None], sb[:, None, :]]
        weight *= np.where(a[members] == b[members], 1.0, 2.0)[:, None, None]
        shift = np.frexp(weight)[1].max(axis=(1, 2), initial=0)
        weight = np.ldexp(weight, -shift[:, None, None]) * norm[sa][:, :, None] * norm[sb][:, None]
        step = max(1, HERMITE_BLOCK // n**3)
        for start in range(0, members.size, step):
            g = members[start:start + step]
            u = nodes * p[g, None, None] ** -0.5                  # (G, n^3, 3)
            xa = moments.solid_harmonics(la, u + (center[g] - sh.center[a[g]])[:, None])
            xb = moments.solid_harmonics(lb, u + (center[g] - sh.center[b[g]])[:, None])
            f = weight[start:start + step] @ xb[moments.lm_index(lb)].transpose(1, 0, 2)
            f = np.einsum("agk,gak->gk", xa[moments.lm_index(la)], f) * weights
            t = f @ harmonics.T                                    # (G, rows)
            t *= sh.prefactor[g, None] * p[g, None] ** (-1.5 - 0.5 * rows_l)
            out[rows_l, rows_m, g[:, None]] = np.ldexp(t, shift[start:start + step, None])
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
        chi = primitive_values(self.primitives, self.shell, points)  # (nb, npts)
        # P chi by einsum, not by a BLAS product: this product is large
        # enough for BLAS to split it over threads, and on a loaded 2-core host
        # a tenth of such calls then stall for about 15 ms
        rho = np.einsum("mp,mp->p", chi, np.einsum("mn,np->mp", self.P, chi))
        # tiny negative lobes are floating-point round-off of a nonnegative density
        rho[(rho < 0) & (rho > -NEGATIVE_CLAMP)] = 0.0
        return rho

    @functools.cached_property
    def shells(self):
        """Read-only ShellTable of the shells and the live shell pairs."""
        prims = self.primitives
        l = np.array([g.l for g in prims], dtype=int)
        rows = (int(l.max(initial=0)) + 1) ** 2
        key = self.shell * rows + l * (l + 1) + np.array([g.m for g in prims], dtype=int)
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        start = np.flatnonzero(np.diff(self.shell[order], prepend=-1))   # of each shell
        slot = np.full((start.size, rows), first.size)
        slot[key[order[first]] // rows, key[order[first]] % rows] = np.arange(first.size)
        live = np.logical_or.reduceat(np.logical_or.reduceat(
            self.P[np.ix_(order, order)] != 0.0, start, axis=0), start, axis=1)
        a, b = np.nonzero(np.triu(live))
        center = np.array([prims[k].center for k in order[start]]).reshape(-1, 3)
        exponent = np.array([prims[k].exponent for k in order[start]])
        # the product rule is symmetric to the bit: one center, p and K per shell pair
        table = ShellTable(center, exponent, np.maximum.reduceat(l[order], start), order, first,
                           slot, a, b,
                           *_product_rule(exponent[a], exponent[b], center[a], center[b]))
        for array in table:
            array.flags.writeable = False
        return table

    def charge(self):
        """sum_{mu,nu} P[mu,nu] <chi_mu | chi_nu> with closed-form overlaps:
        the sum of the shell-pair charges of one lmax-0 product_moments call.

        Raises NumericalError when a pair population (2 - delta_ij) P_ij, or
        the charge they sum to, overflows double precision.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            q = float(np.sum(product_moments(self, 0)))
        if not math.isfinite(q):
            bad = np.argwhere(np.triu(np.abs(self.P) > np.finfo(float).max / 2, k=1))
            named = ", ".join(str(tuple(pair)) for pair in bad.tolist())
            cause = (f"the pair populations (2 - delta_ij) P_ij of pairs (i, j) = {named} "
                     "overflow" if named else "the sum over its pairs overflows")
            raise NumericalError(f"the charge of the GTO density is not finite: {cause} "
                                 "double precision")
        return q


def primitive_overlap(mu, nu):
    """<chi_mu | chi_nu> from the Gaussian product theorem, exact."""
    return product_center(mu, nu).moments(0)[0, 0]


_KERNELS = {"gaussian_s": GaussianExpansion, "slater_s": SlaterShells}


@dataclass(frozen=True)
class AnalyticDensity:
    """Sum of s-type terms c*(a/pi)^(3/2) exp(-a r^2) or c*(a^3/8 pi) exp(-a r).

    Each term is a one-shell GaussianExpansion or SlaterShells kernel of
    |r - C| and integrates to its coefficient, so the total charge is the sum
    of coefficients. Coefficients must be nonnegative, which keeps the
    density nonnegative everywhere.
    """
    terms: tuple  # of (kind, center, exponent, coefficient)

    def __post_init__(self):
        cooked = []
        for i, (kind, center, exponent, coefficient) in enumerate(self.terms):
            if kind not in _KERNELS:
                raise ValueError(f"unknown term kind {kind!r}")
            center = checked_position(center, f"term {i} center")
            if not (exponent > 0 and math.isfinite(exponent)):
                raise ValueError("term exponents must be finite and positive")
            try:
                _KERNELS[kind].check_exponent(float(exponent))
            except ValueError as exc:
                raise ValueError(f"term {exc}") from None
            if not (coefficient >= 0 and math.isfinite(coefficient)):
                raise ValueError("term coefficients must be finite and nonnegative")
            cooked.append((kind, center, float(exponent), float(coefficient)))
        object.__setattr__(self, "terms", tuple(cooked))

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rho = np.zeros(pts.shape[0])
        for kind, center, a, c in self.terms:
            rel = pts - center
            kernel = _KERNELS[kind]((a,), (c,))
            # |r - C| unnamed: one more live array made bent3's sampling 15 % slower
            rho += kernel.profile(np.sqrt(np.einsum("...i,...i->...", rel, rel)))
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
