"""Distributed multipole analysis of Gaussian-basis densities.

Pipeline: every primitive pair carries a finite multipole series at its
Gaussian-product center (natural center); those series are translated
exactly (the FMM M2M operation) to user-chosen expansion sites with
nonnegative redistribution weights summing to one, and accumulated. The
resulting site multipoles generate the far-field electrostatic potential.
"""

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

# product_center is not called here, but bench/spans.py wraps it on this
# module, so it stays bound here
from .density import AnalyticDensity, GtoDensity, product_center, product_moments  # noqa: F401
from .errors import NumericalError, ValidationError
from .grids import integrate_atom
from .moments import complex_real_transform, lm_index, multipole_norm, solid_harmonics
from .textio import read_rows
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
STRATEGIES = ("stone", "vigne_maeder")
# (center, site) entries per block of an M2M sum: bounds its (terms,
# entries) complex temporaries (155 terms at lmax 4) at a few MB.
M2M_BLOCK = 2048
# Field points per block of esp_multipole: bounds its (lmax+1, 2*lmax+1,
# points, sites) harmonic table at a few MB.
ESP_BLOCK = 256
BOND_FACTOR = 1.3   # bonded: closer than this times the sum of covalent radii

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
        finite = np.isfinite(pos).all(axis=1)
        if not finite.all():
            raise ValidationError([f"site {j}: non-finite position {pos[j].tolist()}"
                                   for j in np.flatnonzero(~finite)])
        near = np.linalg.norm(pos[:, None] - pos[None], axis=-1) < COINCIDENCE_TOL
        pairs = np.argwhere(np.triu(near, k=1))
        if pairs.size:
            raise ValidationError([f"sites {i} and {j} coincide" for i, j in pairs])
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

    Each term (l', m', lam, mu, c) adds c * D(lam, mu) * Q(l', m') to one
    output Q(l, m), with lam = l - l', mu = m - m' and
    c = sqrt(binom(l+m, l'+m') * binom(l-m, l'-m')), which is nonzero exactly
    when |mu| <= lam. The outputs follow moments.lm_index(lmax_out), each
    with its terms contiguous in (l', m') order; the last array holds the
    index of each output's first term.
    """
    terms, first = [], []
    for l in range(lmax_out + 1):
        for m in range(-l, l + 1):
            first.append(len(terms))
            terms += [(lp, mp, l - lp, m - mp,
                       math.sqrt(math.comb(l + m, lp + mp) * math.comb(l - m, lp - mp)))
                      for lp in range(min(l, lmax_in) + 1) for mp in range(-lp, lp + 1)
                      if abs(m - mp) <= l - lp]
    columns = tuple(np.array(col) for col in zip(*terms)) + (np.array(first),)
    for col in columns:
        col.flags.writeable = False
    return columns


def _m2m_sum(out, tables, offsets, weights, target):
    """Add weights[e] * M2M(tables[..., e]) to out[target[e]] for every entry e.

    `out` is a complex (J, lmax_out+1, 2*lmax_out+1) array, `tables` a complex
    (lmax_in+1, 2*lmax_in+1, E) stack moved by the (E, 3) offsets old - new
    center, and `target` is nondecreasing. Runs in blocks of M2M_BLOCK entries;
    within a block each output sums its terms, then each target its entries.
    """
    lmax_out = out.shape[1] - 1
    lp, mp, lam, mu, c, first = _m2m_terms(tables.shape[0] - 1, lmax_out)
    l, m = lm_index(lmax_out)
    norm = multipole_norm(np.arange(lmax_out + 1))[:, None, None]
    for start in range(0, weights.size, M2M_BLOCK):
        block = slice(start, start + M2M_BLOCK)
        disp = norm * complex_real_transform(
            solid_harmonics(lmax_out, offsets[block]), "real_to_complex") * weights[block]
        rows = np.add.reduceat(c[:, None] * disp[lam, mu] * tables[lp, mp, block], first)
        runs = np.flatnonzero(np.diff(target[block], prepend=-1))
        out[target[block][runs, None], l, m] += np.add.reduceat(rows, runs, axis=1).T


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
    out = np.zeros((1, lmax_out + 1, 2 * lmax_out + 1), dtype=complex)
    _m2m_sum(out, series.coeffs[..., None], (series.center - new_center)[None],
             np.ones(1), np.zeros(1, dtype=int))
    return MultipoleSeries(center=new_center, lmax=lmax_out, coeffs=out[0], basis="complex")


def redistribution_weights(strategy, natural_center, sites):
    """Weights C_{munu->j} >= 0 with sum 1 assigning one natural center to sites.

    "stone": all weight on the nearest site, split 1/q over q equidistant
    nearest sites. "vigne_maeder": weights proportional to inverse distance.
    A site coinciding with the natural center receives everything. A one-row
    call of the (P, 3) -> (P, J) rule that run_dma applies to all pairs.
    """
    center = np.asarray(natural_center, dtype=float)
    return _weight_rule(strategy, center[None], sites.positions)[0]


def _weight_rule(strategy, centers, positions):
    """(P, J) redistribution weights of the (P, 3) centers over the (J, 3) sites."""
    if strategy not in STRATEGIES:
        raise ValidationError([f"unknown redistribution strategy {strategy!r}"])
    dists = np.linalg.norm(centers[:, None, :] - positions[None, :, :], axis=-1)
    coincident = dists < COINCIDENCE_TOL
    on_site = np.any(coincident, axis=1)
    if strategy == "stone":
        ties = dists <= np.min(dists, axis=1)[:, None] + COINCIDENCE_TOL
        w = np.where(ties, 1.0 / np.count_nonzero(ties, axis=1)[:, None], 0.0)
    else:
        # rows with a site on their center are overwritten below; a unit
        # distance keeps their division finite
        inv = 1.0 / np.where(on_site[:, None], 1.0, dists)
        w = inv / np.sum(inv, axis=1)[:, None]
    w[on_site] = 0.0
    w[on_site, np.argmax(coincident[on_site], axis=1)] = 1.0
    return w


@np.errstate(over="ignore", invalid="ignore")
def run_dma(dens, sites, strategy="stone", lmax=4):
    """Per-site real multipole series of a Gaussian-basis density.

    All pairs' natural multipoles come from one batched kernel call
    (density.product_moments). The pairs of one shell pair share their
    natural center, and the weights and M2M are linear, so their
    population-weighted tables are summed first, in pair order. One (G, J)
    rule weighs the G shell-pair centers, and one M2M sum moves every
    (center, site) entry of positive weight; a center on its site moves by
    zero, the identity. Returns (series_list, flags): flags notes truncation
    of natural orders above lmax and, under "phase_s", the wall time in
    seconds of each phase (pair table, natural multipoles summed per shell
    pair, redistribution weights, and M2M plus accumulation). Raises
    NumericalError when a site table is not finite, which happens only when
    the density's data overflow double precision.
    """
    if not isinstance(dens, GtoDensity):
        raise ValidationError(["run_dma requires a GtoDensity"])
    if lmax < 0:
        raise ValidationError([f"dma lmax must be >= 0, got {lmax}"])
    marks = [time.perf_counter()]
    pairs = dens.pairs()
    marks.append(time.perf_counter())
    order = np.argsort(pairs.shell_pair, kind="stable")
    first = np.flatnonzero(np.diff(pairs.shell_pair[order], prepend=-1))
    natural = np.add.reduceat((pairs.population * product_moments(
        dens.primitives, pairs, lmax))[..., order], first, axis=-1)
    marks.append(time.perf_counter())
    centers = pairs.center[order[first]]
    weights = _weight_rule(strategy, centers, sites.positions)
    marks.append(time.perf_counter())
    site, shell_pair = np.nonzero(weights.T > 0.0)
    out = np.zeros((len(sites.labels), lmax + 1, 2 * lmax + 1), dtype=complex)
    _m2m_sum(out, complex_real_transform(natural, "real_to_complex")[..., shell_pair],
             centers[shell_pair] - sites.positions[site], weights[shell_pair, site], site)
    real = np.ascontiguousarray(np.moveaxis(
        complex_real_transform(np.moveaxis(out, 0, -1), "complex_to_real"), -1, 0))
    bad = [str(label) for label, table in zip(sites.labels, real) if not np.isfinite(table).all()]
    if bad:
        raise NumericalError(f"site multipoles are not finite at {', '.join(bad)}; "
                             "the density's data overflow double precision")
    series = [MultipoleSeries(center=pos.copy(), lmax=lmax, coeffs=table, basis="real")
              for pos, table in zip(sites.positions, real)]
    marks.append(time.perf_counter())
    l = np.array([g.l for g in dens.primitives], dtype=int)
    truncated = bool(np.any(l[pairs.i] + l[pairs.j] > lmax))
    phases = ("pair_table", "natural_multipoles", "redistribution_weights", "m2m")
    flags = {"truncated": truncated, "lmax": lmax, "strategy": strategy,
             "phase_s": {name: marks[k + 1] - marks[k] for k, name in enumerate(phases)}}
    return series, flags


def _as_points(points):
    """(N, 3) float points and whether `points` was a single 3-vector."""
    pts = np.asarray(points, dtype=float)
    return pts.reshape(-1, 3), pts.ndim == 1


def esp_multipole(site_series, points):
    """Electrostatic potential of site multipoles at field points.

    V = sum_j sum_{l<=lmax} K(l) sum_m Q(l,m) R(l,m)(u) / |r - S_j|^(l+1)
    for the unit vector u from site j to the point; K(l) R(l,m) are the
    Racah-normalized solid harmonics. `points` is one 3-vector (returns a
    float) or an (N, 3) array (returns N values); the harmonics of all sites
    and points come from one call per block of ESP_BLOCK points.
    """
    pts, single = _as_points(points)
    real = [s.to_basis("real") for s in site_series]
    lmax = max(s.lmax for s in real)
    coeffs = np.zeros((len(real), lmax + 1, 2 * lmax + 1))
    for jsite, s in enumerate(real):
        coeffs[(jsite,) + lm_index(s.lmax)] = s.coeffs[lm_index(s.lmax)]
    centers = np.array([s.center for s in real])
    l = np.arange(lmax + 1)
    values = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], ESP_BLOCK):
        block = pts[start:start + ESP_BLOCK]
        rel = block[:, None, :] - centers[None, :, :]          # (N, J, 3)
        dist = np.linalg.norm(rel, axis=-1)
        if np.any(dist < COINCIDENCE_TOL):
            raise ValueError("field point coincides with an expansion site")
        per_l = np.einsum("jlm,lmnj->lnj", coeffs,
                          solid_harmonics(lmax, rel / dist[..., None]))
        radial = multipole_norm(l)[:, None, None] / dist ** (l[:, None, None] + 1.0)
        values[start:start + ESP_BLOCK] = np.sum(per_l * radial, axis=(0, 2))
    return float(values[0]) if single else values


def _owned_components(dens, grids):
    """Split the density into per-atom smooth components by nearest atom.

    Analytic terms are owned by the atom nearest their center; primitive
    pairs by the atom nearest their Gaussian-product center (lowest index on
    ties); a GTO component holds only the primitives of its own pairs. Each
    component is integrable on its owner's full tensor grid with no
    discontinuity.
    """
    def owners(centers):
        d = np.linalg.norm(np.reshape(centers, (-1, 1, 3)) - grids.positions, axis=-1)
        return np.argmin(d, axis=1)

    if isinstance(dens, AnalyticDensity):
        owner = owners([term[1] for term in dens.terms])
        return [(AnalyticDensity(terms=[t for t, o in zip(dens.terms, owner) if o == a]).eval
                 if np.any(owner == a) else None) for a in range(grids.natom)]
    if isinstance(dens, GtoDensity):
        pairs = dens.pairs()
        owner = owners(pairs.center)
        components = []
        for a in range(grids.natom):
            i, j = pairs.i[owner == a], pairs.j[owner == a]
            if i.size == 0:
                components.append(None)
                continue
            P = np.zeros_like(dens.P)
            P[i, j] = P[j, i] = dens.P[i, j]
            used = np.union1d(i, j)
            components.append(GtoDensity(primitives=[dens.primitives[k] for k in used],
                                         P=P[np.ix_(used, used)]).eval)
        return components
    raise ValidationError(["esp_exact supports analytic and gto densities"])


def esp_exact(dens, points, grids):
    """Quadrature of rho(r')/|r - r'| over the molecular grids.

    The density is split into smooth components owned by their nearest atom
    (analytic terms by term center, primitive pairs by product center) and
    each component is integrated on its owner's full atomic grid, so every
    integrand stays smooth. `points` is one 3-vector (returns a float) or an
    (N, 3) array (returns N values); each component is sampled once per grid
    for all of them. Accuracy degrades when a field point carries the
    Coulomb singularity into the quadrature domain; that case is flagged
    with a warning, not hidden. An axial grid samples one meridian, so it
    serves only field points on its atom's z axis; any other point raises
    ValidationError.
    """
    pts, single = _as_points(points)
    for a, angular in enumerate(grids.angular):
        if angular.kind != "axial":
            continue
        off = np.hypot(*(pts - grids.positions[a])[:, :2].T) >= COINCIDENCE_TOL
        if np.any(off):
            raise ValidationError([
                f"esp_exact: field point {pts[np.argmax(off)].tolist()} lies off the z "
                f"axis of atom {a}, whose axial grid samples one meridian and cannot "
                "integrate 1/|r - p| there; use a Lebedev grid (grid.angular = lebedev)"])
    nearest = np.min(np.linalg.norm(pts[:, None, :] - grids.positions, axis=-1), axis=1)
    if np.any(nearest < max(g.rmax for g in grids.radial)):
        warnings.warn("field point lies inside the quadrature region; "
                      "the potential there carries a penetration error",
                      stacklevel=2)
    values = np.zeros(pts.shape[0])
    for a, component in enumerate(_owned_components(dens, grids)):
        if component is None:
            continue
        grid = grids.points_abs(a)
        rho = np.asarray(component(grid.reshape(-1, 3))).reshape(grid.shape[:2])
        for k, point in enumerate(pts):
            values[k] += integrate_atom(grids, a, rho / np.linalg.norm(grid - point, axis=-1))
    return float(values[0]) if single else values


def bond_midpoint_sites(atoms):
    """Midpoints of atom pairs closer than BOND_FACTOR * (sum of covalent radii)."""
    mids = []
    labels = []
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            ri = _COVALENT_RADII_ANGSTROM.get(atoms[i].Z)
            rj = _COVALENT_RADII_ANGSTROM.get(atoms[j].Z)
            if ri is None or rj is None:
                continue
            cutoff = BOND_FACTOR * (ri + rj) * BOHR_PER_ANGSTROM
            if np.linalg.norm(atoms[i].position - atoms[j].position) <= cutoff:
                mids.append(0.5 * (atoms[i].position + atoms[j].position))
                labels.append(f"bond-{atoms[i].symbol}{i}-{atoms[j].symbol}{j}")
    return mids, labels


def load_site_file(path):
    """Parse '<label> <x> <y> <z>' lines; positions in bohr."""
    _, rows, problems = read_rows(path, ("label", "x", "y", "z"), "coordinate")
    if problems:
        raise ValidationError(problems)
    return SiteSet(positions=np.array([row[1:] for row in rows]),
                   labels=[row[0] for row in rows])
