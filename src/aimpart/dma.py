"""Distributed multipole analysis of Gaussian-basis densities.

Pipeline: every primitive pair carries a finite multipole series at its
Gaussian-product center (natural center); those series are translated
exactly (the FMM M2M operation) to user-chosen expansion sites with
nonnegative redistribution weights summing to one, and accumulated. The
resulting site multipoles generate the far-field electrostatic potential.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import AnalyticDensity, GtoDensity, product_center
from .errors import ValidationError
from .grids import integrate_atom
from .moments import complex_real_transform, multipole_norm, solid_harmonics
from .units import BOHR_PER_ANGSTROM

__all__ = [
    "SiteSet",
    "MultipoleSeries",
    "natural_multipoles",
    "m2m_translate",
    "redistribution_weights",
    "run_dma",
    "esp_multipole",
    "esp_exact",
    "load_site_file",
    "bond_midpoint_sites",
]

COINCIDENCE_TOL = 1e-10

# Covalent radii (bohr), Z = 1..36, for the bond-midpoint site convenience.
# Cordero et al. values, converted from angstrom.
_COVALENT_RADII_ANGSTROM = {
    1: 0.31, 2: 0.28, 3: 1.28, 4: 0.96, 5: 0.84, 6: 0.76, 7: 0.71, 8: 0.66,
    9: 0.57, 10: 0.58, 11: 1.66, 12: 1.41, 13: 1.21, 14: 1.11, 15: 1.07,
    16: 1.05, 17: 1.02, 18: 1.06, 19: 2.03, 20: 1.76, 21: 1.70, 22: 1.60,
    23: 1.53, 24: 1.39, 25: 1.39, 26: 1.32, 27: 1.26, 28: 1.24, 29: 1.32,
    30: 1.22, 31: 1.22, 32: 1.20, 33: 1.19, 34: 1.20, 35: 1.20, 36: 1.16,
}


@dataclass
class SiteSet:
    positions: np.ndarray  # (J, 3)
    labels: list

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            raise ValidationError(["site set must be nonempty"])
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValidationError([f"site positions must be a (J, 3) array, "
                                   f"got shape {pos.shape}"])
        for i in range(pos.shape[0]):
            for j in range(i + 1, pos.shape[0]):
                if np.linalg.norm(pos[i] - pos[j]) < COINCIDENCE_TOL:
                    raise ValidationError([f"sites {i} and {j} coincide"])
        self.positions = pos
        if len(self.labels) != pos.shape[0]:
            raise ValidationError(["one label per site required"])


@dataclass
class MultipoleSeries:
    """Multipole coefficients Q(l, m) for l <= lmax about one center.

    `coeffs` is an (lmax+1, 2*lmax+1) array with Q(l, m) at [l, m]: negative
    m wrap around to the end of each row through numpy's negative indexing,
    and entries with |m| > l are zero. Real-basis tables are float,
    complex-basis tables complex.
    """
    center: np.ndarray
    lmax: int
    coeffs: np.ndarray
    basis: str = "real"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)

    def to_basis(self, basis):
        if basis == self.basis:
            return self
        direction = "real_to_complex" if basis == "complex" else "complex_to_real"
        return MultipoleSeries(center=self.center.copy(), lmax=self.lmax,
                               coeffs=complex_real_transform(self.coeffs, direction),
                               basis=basis)

    def charge(self):
        q = self.coeffs[0, 0]
        return q.real if self.basis == "complex" else q

    def cartesian_dipole(self):
        """Dipole vector; requires lmax >= 1. Real Q(1, m) are (p_x, p_y, p_z)
        in the order m = 1, -1, 0 under the K(l) normalization."""
        return self.to_basis("real").coeffs[1, [1, -1, 0]]


def natural_multipoles(term, population, lmax=None):
    """Real multipole series of one primitive product about its natural center.

    Q(l, m) = population * K(l) int R(l,m)(u) chi_mu chi_nu du, which is
    population * term.moments(lmax): an exact tensor Gauss-Hermite rule.
    lmax defaults to l_mu + l_nu; coefficients with l > l_mu + l_nu vanish
    identically and are returned as exact zeros.
    """
    if lmax is None:
        lmax = term.mu.l + term.nu.l
    return MultipoleSeries(center=term.center.copy(), lmax=lmax,
                           coeffs=population * term.moments(lmax))


@functools.lru_cache(maxsize=None)
def _m2m_terms(lmax_in, lmax_out):
    """Nonzero terms of the M2M sum as read-only index and weight arrays.

    Each term (l, m, l', m', lam, mu, c) adds c * D(lam, mu) * Q(l', m') to
    the output Q(l, m), with lam = l - l', mu = m - m' and
    c = sqrt(binom(l+m, l'+m') * binom(l-m, l'-m')), which is nonzero exactly
    when |mu| <= lam. Terms keep the (l, m, l', m') order of the per-element sum.
    """
    rows = [(l, m, lp, mp, l - lp, m - mp,
             math.sqrt(math.comb(l + m, lp + mp) * math.comb(l - m, lp - mp)))
            for l in range(lmax_out + 1) for m in range(-l, l + 1)
            for lp in range(min(l, lmax_in) + 1) for mp in range(-lp, lp + 1)
            if abs(m - mp) <= l - lp]
    columns = tuple(np.array(col) for col in zip(*rows))
    for col in columns:
        col.flags.writeable = False
    return columns


def _m2m_sum(tables, offsets, weights, lmax_out):
    """Sum over p of weights[p] * M2M(tables[..., p]) for a complex (lmax_in+1,
    2*lmax_in+1, P) stack moved by the (P, 3) offsets old - new center."""
    disp = multipole_norm(np.arange(lmax_out + 1))[:, None, None] * complex_real_transform(
        solid_harmonics(lmax_out, offsets), "real_to_complex") * weights
    l, m, lp, mp, lam, mu, c = _m2m_terms(tables.shape[0] - 1, lmax_out)
    out = np.zeros((lmax_out + 1, 2 * lmax_out + 1), dtype=complex)
    np.add.at(out, (l, m), np.sum(c[:, None] * disp[lam, mu] * tables[lp, mp], axis=1))
    return out


def m2m_translate(series, new_center, lmax_out=None):
    """Exact re-expansion of a complex multipole series about a new center.

    Out-of-range truncation (lmax_out below the input lmax) loses
    information and triggers a warning. The displacement enters through
    Racah-normalized solid harmonics K(l) * R(l,m) evaluated at
    d = old_center - new_center; zero displacement is the identity and two
    successive translations compose exactly.
    """
    if series.basis != "complex":
        raise ValueError("m2m_translate expects a complex-basis series")
    new_center = np.asarray(new_center, dtype=float)
    if lmax_out is None:
        lmax_out = series.lmax
    if lmax_out < series.lmax:
        warnings.warn("M2M truncation below the input order loses information",
                      stacklevel=2)
    out = _m2m_sum(series.coeffs[..., None], (series.center - new_center)[None],
                   np.ones(1), lmax_out)
    return MultipoleSeries(center=new_center, lmax=lmax_out, coeffs=out, basis="complex")


def redistribution_weights(strategy, natural_center, sites):
    """Weights C_{munu->j} >= 0 with sum 1 assigning one natural center to sites.

    "stone": all weight on the nearest site, split 1/q over q equidistant
    nearest sites. "vigne_maeder": weights proportional to inverse distance.
    A site coinciding with the natural center receives everything.
    """
    center = np.asarray(natural_center, dtype=float)
    dists = np.linalg.norm(sites.positions - center, axis=1)
    w = np.zeros(len(dists))
    coincident = dists < COINCIDENCE_TOL
    if np.any(coincident):
        w[np.argmax(coincident)] = 1.0
        return w
    if strategy == "stone":
        nearest = np.min(dists)
        ties = dists <= nearest + COINCIDENCE_TOL
        w[ties] = 1.0 / np.count_nonzero(ties)
    elif strategy == "vigne_maeder":
        inv = 1.0 / dists
        w = inv / np.sum(inv)
    else:
        raise ValidationError([f"unknown redistribution strategy {strategy!r}"])
    return w


def run_dma(dens, sites, strategy="stone", lmax=4):
    """Per-site real multipole series of a Gaussian-basis density.

    Each site gets one M2M sum of the pairs' natural multipoles, weighted by
    the redistribution rule, over the pairs that give it positive weight; a
    pair on the site moves by zero, the identity. Returns (series_list,
    flags) where flags notes truncation of natural orders above lmax.
    """
    if not isinstance(dens, GtoDensity):
        raise ValidationError(["run_dma requires a GtoDensity"])
    if lmax < 0:
        raise ValidationError([f"dma lmax must be >= 0, got {lmax}"])
    prims = dens.primitives
    pairs = dens.pairs()
    centers = np.zeros((len(pairs), 3))
    tables = np.zeros((lmax + 1, 2 * lmax + 1, len(pairs)))
    weights = np.zeros((len(pairs), len(sites.labels)))
    for p, (i, j, population) in enumerate(pairs):
        term = product_center(prims[i], prims[j], pair=(i, j))
        centers[p] = term.center
        tables[..., p] = natural_multipoles(term, population, lmax=lmax).coeffs
        weights[p] = redistribution_weights(strategy, term.center, sites)
    tables = complex_real_transform(tables, "real_to_complex")
    series = []
    for jsite, site in enumerate(sites.positions):
        use = weights[:, jsite] > 0.0
        acc = _m2m_sum(tables[..., use], centers[use] - site, weights[use, jsite], lmax)
        series.append(MultipoleSeries(center=site.copy(), lmax=lmax, coeffs=acc,
                                      basis="complex").to_basis("real"))
    truncated = any(prims[i].l + prims[j].l > lmax for i, j, _ in pairs)
    flags = {"truncated": truncated, "lmax": lmax, "strategy": strategy}
    return series, flags


def esp_multipole(site_series, point):
    """Electrostatic potential of site multipoles at one field point.

    V = sum_j sum_{l<=lmax} K(l) sum_m Q(l,m) R(l,m)(u) / |r - S_j|^(l+1)
    for the unit vector u from site j to the point (one harmonic table per
    site); K(l) R(l,m) are the Racah-normalized solid harmonics.
    """
    point = np.asarray(point, dtype=float)
    total = 0.0
    for series in site_series:
        s = series.to_basis("real")
        rel = point - s.center
        dist = float(np.linalg.norm(rel))
        if dist < COINCIDENCE_TOL:
            raise ValueError("field point coincides with an expansion site")
        l = np.arange(s.lmax + 1)
        per_l = np.sum(s.coeffs * solid_harmonics(s.lmax, rel / dist), axis=1)
        total += float(per_l @ (multipole_norm(l) / dist ** (l + 1.0)))
    return total


def _owned_components(dens, grids):
    """Split the density into per-atom smooth components by nearest atom.

    Analytic terms are owned by the atom nearest their center; primitive
    pairs by the atom nearest their Gaussian-product center (lowest index on
    ties); a GTO component holds only the primitives of its own pairs. Each
    component is integrable on its owner's full tensor grid with no
    discontinuity.
    """
    def owner(center):
        return int(np.argmin(np.linalg.norm(grids.positions - center, axis=1)))

    if isinstance(dens, AnalyticDensity):
        per_atom = [[] for _ in range(grids.natom)]
        for term in dens.terms:
            per_atom[owner(term[1])].append(term)
        return [(AnalyticDensity(terms=terms).eval if terms else None)
                for terms in per_atom]
    if isinstance(dens, GtoDensity):
        masked = [np.zeros_like(dens.P) for _ in range(grids.natom)]
        for i, j, _ in dens.pairs():
            a = owner(product_center(dens.primitives[i], dens.primitives[j]).center)
            masked[a][i, j] = masked[a][j, i] = dens.P[i, j]

        def make_eval(P_mask):
            used = np.flatnonzero(np.any(P_mask, axis=0))
            return GtoDensity(primitives=[dens.primitives[k] for k in used],
                              P=P_mask[np.ix_(used, used)]).eval

        return [(make_eval(P) if np.any(P) else None) for P in masked]
    raise ValidationError(["esp_exact supports analytic and gto densities"])


def esp_exact(dens, point, grids):
    """Quadrature of rho(r')/|r - r'| over the molecular grids.

    The density is split into smooth components owned by their nearest atom
    (analytic terms by term center, primitive pairs by product center) and
    each component is integrated on its owner's full atomic grid, so every
    integrand stays smooth. Accuracy degrades when the field point carries
    the Coulomb singularity into the quadrature domain; that case is flagged
    with a warning, not hidden. An axial grid samples one meridian, so it
    serves only field points on its atom's z axis; any other point raises
    ValidationError.
    """
    point = np.asarray(point, dtype=float)
    for a, angular in enumerate(grids.angular):
        if angular.kind == "axial" and \
                np.hypot(*(point - grids.positions[a])[:2]) >= COINCIDENCE_TOL:
            raise ValidationError([
                f"esp_exact: field point {point.tolist()} lies off the z axis of "
                f"atom {a}, whose axial grid samples one meridian and cannot "
                "integrate 1/|r - p| there; use a Lebedev grid (grid.angular = lebedev)"])
    if float(np.min(np.linalg.norm(grids.positions - point, axis=1))) < \
            max(g.rmax for g in grids.radial):
        warnings.warn("field point lies inside the quadrature region; "
                      "the potential there carries a penetration error",
                      stacklevel=2)
    total = 0.0
    for a, component in enumerate(_owned_components(dens, grids)):
        if component is None:
            continue
        pts = grids.points_abs(a)
        rho = np.asarray(component(pts.reshape(-1, 3))).reshape(pts.shape[:2])
        coul = np.linalg.norm(pts - point, axis=-1)
        total += integrate_atom(grids, a, rho / coul)
    return total


def bond_midpoint_sites(atoms, factor=1.3):
    """Midpoints of atom pairs closer than factor * (sum of covalent radii)."""
    mids = []
    labels = []
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            ri = _COVALENT_RADII_ANGSTROM.get(atoms[i].Z)
            rj = _COVALENT_RADII_ANGSTROM.get(atoms[j].Z)
            if ri is None or rj is None:
                continue
            cutoff = factor * (ri + rj) * BOHR_PER_ANGSTROM
            if np.linalg.norm(atoms[i].position - atoms[j].position) <= cutoff:
                mids.append(0.5 * (atoms[i].position + atoms[j].position))
                labels.append(f"bond-{atoms[i].symbol}{i}-{atoms[j].symbol}{j}")
    return mids, labels


def load_site_file(path):
    """Parse '<label> <x> <y> <z>' lines; positions in bohr."""
    labels, positions = [], []
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 4:
                problems.append(f"{path}:{lineno}: expected '<label> <x> <y> <z>'")
                continue
            try:
                positions.append([float(x) for x in fields[1:]])
            except ValueError:
                problems.append(f"{path}:{lineno}: non-numeric coordinate")
                continue
            labels.append(fields[0])
    if problems:
        raise ValidationError(problems)
    return SiteSet(positions=np.array(positions), labels=labels)
