"""Atom-centered quadrature grids, integration and radial interpolation.

Every atom carries a tensor product of a radial rule on (0, rmax) and an
angular rule on the unit sphere. Radial weights integrate int_0^rmax f(r) dr;
angular weights are normalized to the *mean* over the sphere, so a full
volume integral of samples f[i, j] reads

    4*pi * sum_i w_i r_i^2 * sum_j eta_j f[i, j].
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ValidationError
from .lebedev import lebedev_grid

__all__ = [
    "RadialGrid",
    "AngularGrid",
    "AtomicGridSet",
    "build_radial",
    "build_angular",
    "spherical_average",
    "integrate_atom",
    "integrate_radial",
    "interpolate_radial",
    "RadialStencil",
    "checked_position",
]

AXIS_TOL = 1e-10   # bohr; |x|, |y| below this count as on the z axis
# bohr; squared distances among points this far out stay below 1e302
COORDINATE_LIMIT = 1e150


def checked_position(position, what):
    """`position` as a float 3-vector in bohr, under the one rule for coordinates.

    A wrong shape or a non-finite coordinate raises ValueError("<what> must
    be a finite 3-vector"). A coordinate beyond COORDINATE_LIMIT in magnitude
    raises ValidationError naming `what`: squared distances between such
    points, or from them to the grid points around them, overflow double
    precision.
    """
    pos = np.asarray(position, dtype=float)
    if pos.shape != (3,) or not np.all(np.isfinite(pos)):
        raise ValueError(f"{what} must be a finite 3-vector")
    if np.max(np.abs(pos)) > COORDINATE_LIMIT:
        raise ValidationError([f"{what} {pos.tolist()} has a coordinate beyond "
                               f"{COORDINATE_LIMIT:g} bohr, where squared distances "
                               "overflow double precision"])
    return pos


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray    # strictly increasing, in (0, rmax)
    weights: np.ndarray  # for int_0^rmax f(r) dr
    rmax: float
    volume: np.ndarray = field(init=False, repr=False, compare=False)  # 4 pi w_i r_i^2

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two radial nodes")
        if weights.shape != nodes.shape:
            raise ValueError(f"{weights.size} radial weights for {nodes.size} nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
                and math.isfinite(self.rmax)):
            raise ValueError("radial nodes, weights and rmax must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        if nodes[0] <= 0 or nodes[-1] >= self.rmax:
            raise ValueError("radial nodes must lie inside (0, rmax)")
        with np.errstate(over="ignore", invalid="ignore"):
            volume = 4.0 * math.pi * weights * nodes**2
        if not (np.all(np.isfinite(volume)) and volume.any()):
            raise ValueError("radial volume weights 4*pi*w*r^2 must be finite and not "
                             f"all zero (rmax {self.rmax!r})")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "volume", volume)


@dataclass(frozen=True)
class AngularGrid:
    points: np.ndarray   # (n, 3) unit vectors
    weights: np.ndarray  # sum to 1 (mean over the sphere)
    kind: str            # "lebedev" | "axial"

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.kind not in ("lebedev", "axial"):
            raise ValueError(f"unknown angular kind {self.kind!r}")
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
            raise ValueError(f"angular points must be an (n, 3) array, got shape {points.shape}")
        if weights.shape != points.shape[:1]:
            raise ValueError(f"angular weights of shape {weights.shape} for "
                             f"{points.shape[0]} points")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise ValueError("angular points and weights must be finite")
        norms = np.linalg.norm(points, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("angular nodes must be unit vectors")
        if abs(float(np.sum(weights)) - 1.0) > 1e-13:
            raise ValueError("angular weights must sum to 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)


@lru_cache(maxsize=32)
def _gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1]: ascending nodes, weights.

    Newton's method on P_n, evaluated by the three-term recurrence, from
    Tricomi's estimates of the positive roots, until no node moves by more
    than 1e-15; the weights are 2 / ((1 - x)(1 + x) P_n'(x)^2) at the final
    nodes. The negative half mirrors the positive one, and for odd n the
    middle node is exactly 0.
    """
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(theta)   # largest root first
    if n % 2:
        x[-1] = 0.0

    def legendre(x):   # P_n(x) and P_n'(x)
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    dx = np.inf
    while np.max(np.abs(dx)) > 1e-15:
        p, dp = legendre(x)
        dx = p / dp
        x = x - dx
    w = 2.0 / ((1.0 - x) * (1.0 + x) * legendre(x)[1] ** 2)
    return (np.concatenate([-x[:n // 2], x[::-1]]),
            np.concatenate([w[:n // 2], w[::-1]]))


def build_radial(n, rmax, kind="gauss_legendre"):
    """Radial quadrature with n nodes on (0, rmax).

    "gauss_legendre" integrates polynomials of degree <= 2n-1 exactly on
    [0, rmax]. "log" maps Gauss-Legendre nodes t in [0, 1] through
    r = rmax*(e^t - 1)/(e - 1) with Jacobian-adjusted weights, clustering
    nodes near the origin.
    """
    if n < 2:
        raise ValueError("need n >= 2 radial nodes")
    if rmax <= 0:
        raise ValueError("rmax must be positive")
    x, w = _gauss_legendre(n)
    if kind == "gauss_legendre":
        nodes = 0.5 * rmax * (x + 1.0)
        weights = 0.5 * rmax * w
    elif kind == "log":
        t = 0.5 * (x + 1.0)
        wt = 0.5 * w
        e1 = math.e - 1.0
        nodes = rmax * (np.exp(t) - 1.0) / e1
        weights = wt * rmax * np.exp(t) / e1
    else:
        raise ValueError(f"unknown radial kind {kind!r}")
    return RadialGrid(nodes=nodes, weights=weights, rmax=float(rmax))


def build_angular(order, kind="lebedev"):
    """Angular quadrature on the unit sphere.

    "lebedev" requires `order` to be one of the embedded point counts and is
    exact for spherical harmonics up to the tabulated degree. "axial" puts
    `order` Gauss-Legendre nodes in cos(theta) on a single meridian; it is
    only valid for integrands that are symmetric about the z axis, for which
    it is exact up to degree 2*order - 1.
    """
    if kind == "lebedev":
        points, weights = lebedev_grid(order)
        return AngularGrid(points=points, weights=weights, kind=kind)
    if kind == "axial":
        if order < 1:
            raise ValueError("axial grid needs at least one node")
        u, w = _gauss_legendre(order)
        sin_t = np.sqrt(np.clip(1.0 - u**2, 0.0, None))
        points = np.column_stack([sin_t, np.zeros_like(u), u])
        return AngularGrid(points=points, weights=0.5 * w, kind=kind)
    raise ValueError(f"unknown angular kind {kind!r}")


def spherical_average(values, angular):
    """Mean over the sphere of one value per angular node."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != angular.weights.size:
        raise ValueError("one value per angular node required")
    return values @ angular.weights


class RadialStencil:
    """Fixed query radii for piecewise-linear reads of radial tables.

    Built once for strictly increasing `nodes`, query radii `r` and the tail
    rule's rmax (see `interpolate_radial`); it keeps, per query radius, the
    index of the bracketing interval and the offset from its left node.
    Reading a table of values on `nodes` is then two gathers and a
    multiply-add, slope[j] * offset + value[j]. That is numpy.interp's own
    arithmetic, so the result is bit-identical to numpy's
    interp(r, nodes, values, left=values[0], right=0.0) on the nodes
    extended by the tail rule (finite slopes assumed).

    Index 0 stands for r below the first node (slope 0, the first value),
    index n + 1 for r beyond the last of the n extended nodes (slope 0,
    value 0) and index n for r on that last node.
    """

    def __init__(self, nodes, r, rmax):
        self.nodes = nodes
        self.rmax = rmax
        xp = np.asarray(nodes, dtype=float)
        if rmax > xp[-1]:
            xp = np.append(xp, rmax)
        self._widths = np.diff(xp)
        r = np.asarray(r, dtype=float)
        n = xp.size
        index = np.searchsorted(xp, r, side="right")   # number of nodes <= r
        index = np.where(r > xp[-1], n + 1, index)
        inside = (index > 0) & (index <= n)
        self.offset = np.where(inside, r - xp[np.clip(index - 1, 0, n - 1)], 0.0)
        self.index = index

    def fits(self, nodes, rmax):
        """True when this stencil reads tables on `nodes` with this rmax."""
        return rmax == self.rmax and (nodes is self.nodes
                                      or np.array_equal(nodes, self.nodes))

    def __call__(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != np.shape(self.nodes):
            raise ValueError("nodes and values must have matching shapes")
        n = self._widths.size + 1
        # [first value, values, 0 at rmax when the nodes were extended, 0 beyond]
        base = np.zeros(n + 2)
        base[0] = values[0]
        base[1:values.size + 1] = values
        slope = np.zeros(n + 2)
        np.subtract(base[2:n + 1], base[1:n], out=slope[1:n])
        slope[1:n] /= self._widths
        out = np.take(slope, self.index)
        out *= self.offset
        out += np.take(base, self.index)
        return out


def interpolate_radial(nodes, values, r_query, rmax):
    """Piecewise-linear radial interpolation with the grid tail rule.

    Constant w(r_1) on [0, r_1); linear between nodes; linear decay to zero
    between the last node and rmax; identically zero beyond rmax. That is
    numpy.interp on the nodes extended by (rmax, 0); see AtomicGridSet.stencil
    for repeated reads at fixed radii.
    """
    xp = np.asarray(nodes, dtype=float)
    fp = np.asarray(values, dtype=float)
    if rmax > xp[-1]:
        xp, fp = np.append(xp, rmax), np.append(fp, 0.0)
    out = np.interp(r_query, xp, fp, left=fp[0], right=0.0)
    return float(out) if np.isscalar(r_query) else out


class AtomicGridSet:
    """Per-atom radial x angular grids with cached density samples.

    Also caches, lazily, the inter-atom distance tables
    |R_a - R_b + r_i sigma_j| needed by stockholder weights; one
    RadialStencil per atom pair for reading radial tables at those
    distances; and, until the density is sampled again, the set folded onto
    each atom's distinct angular columns (see `folded`). Every cache takes
    the positions and grids as immutable once built.
    """

    def __init__(self, positions, radial, angular):
        self.positions = np.array([checked_position(p, f"atom {a} position")
                                   for a, p in enumerate(np.atleast_2d(positions))])
        natom = self.positions.shape[0]
        self.radial = self._per_atom(radial, natom, RadialGrid)
        self.angular = self._per_atom(angular, natom, AngularGrid)
        self.samples = None
        self.sampled_from = None   # the callable sample_density last evaluated
        # dma.esp_exact's per-atom (grid points, owned component's samples) or
        # None, and the density they were taken of
        self.owned_samples = None
        self.owned_from = None
        self._dist = {}
        self._stencils = {}
        self._folded = None

    @staticmethod
    def _per_atom(obj, natom, cls):
        if isinstance(obj, cls):
            return [obj] * natom
        obj = list(obj)
        if len(obj) != natom:
            raise ValueError("need one grid per atom")
        return obj

    @property
    def natom(self):
        return self.positions.shape[0]

    def points_rel(self, atom):
        """Grid points of atom's grid relative to its center, shape (nr, ns, 3)."""
        return self.radial[atom].nodes[:, None, None] * self.angular[atom].points[None, :, :]

    def points_abs(self, atom):
        """Absolute grid points R_a + r_i sigma_j, shape (nr, ns, 3)."""
        return self.positions[atom][None, None, :] + self.points_rel(atom)

    def distances(self, a, b):
        """|R_a + r_i sigma_j - R_b| on atom a's grid, shape (nr, ns).

        For b == a this is the radial nodes as an (nr, 1) column, which
        broadcasts against (nr, ns) arrays.
        """
        key = (a, b)
        cached = self._dist.get(key)
        if cached is None:
            if a == b:
                cached = self.radial[a].nodes[:, None]
            else:
                diff = self.points_abs(a) - self.positions[b][None, None, :]
                cached = np.linalg.norm(diff, axis=-1)
            self._dist[key] = cached
        return cached

    def folded(self):
        """(grid set, inverse): this set on each atom's distinct angular columns.

        Columns fold together when their distances to every other atom and
        their density samples are bitwise equal, as mirror images of a
        Lebedev grid are when the molecule and its density lie in a mirror
        plane of the grid; every quantity of a stockholder iteration is then
        equal on them. Columns that differ on the outermost radial row differ
        as columns, so only those that repeat there are keyed whole. The
        first column of each set is kept, with the sum of the set's angular
        weights; np.take(x, inverse[a], axis=1) expands atom a's arrays to
        the full grid. (self, None) when no column repeats. Built on first
        use and kept until `sample_density`.
        """
        if self._folded is None:
            if self.samples is None:
                raise ValueError("grid set has no cached density samples")
            columns, inverse = [], []
            for a in range(self.natom):
                tables = [self.distances(a, b) for b in range(self.natom) if b != a]
                tables.append(self.samples[a])
                row = _column_keys([t[-1] for t in tables])
                counts = Counter(row)
                repeated = [j for j, key in enumerate(row) if counts[key] > 1]
                keys = list(range(len(row)))   # a column alone on the row is its own set
                if repeated:
                    for j, key in zip(repeated, _column_keys(tables, repeated)):
                        keys[j] = key
                sets = {}
                inverse.append(np.array([sets.setdefault(key, len(sets)) for key in keys]))
                columns.append(np.unique(inverse[a], return_index=True)[1])
            self._folded = (self, None)
            if any(c.size < i.size for c, i in zip(columns, inverse)):
                fold = AtomicGridSet(self.positions, self.radial, [
                    AngularGrid(points=g.points[c], weights=np.bincount(i, weights=g.weights),
                                kind=g.kind)
                    for g, c, i in zip(self.angular, columns, inverse)])
                fold.samples = [np.take(s, c, axis=1) for s, c in zip(self.samples, columns)]
                fold.sampled_from = self.sampled_from
                fold._dist = {(a, b): d if a == b else np.take(d, columns[a], axis=1)
                              for (a, b), d in self._dist.items()}
                self._folded = (fold, inverse)
        return self._folded

    def stencil(self, a, b, nodes, rmax):
        """RadialStencil that reads atom b's radial tables at distances(a, b).

        One stencil per pair is kept and rebuilt only for tables on other
        nodes or with another rmax than it was built for; the tables' node
        arrays are taken as immutable.
        """
        cached = self._stencils.get((a, b))
        if cached is None or not cached.fits(nodes, rmax):
            cached = RadialStencil(nodes, self.distances(a, b), rmax)
            self._stencils[(a, b)] = cached
        return cached

    def sample_density(self, rho):
        """Evaluate and cache rho at every grid point; rho maps (n,3) -> (n,).

        Raises NumericalError, naming the atom, when a sample or the charge
        they integrate to on the atom's grid is not finite: the density's
        data then overflow double precision. A negative sample raises
        ValidationError, naming the atom and its most negative sample.
        """
        samples = []
        for a in range(self.natom):
            pts = self.points_abs(a)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.asarray(rho(pts.reshape(-1, 3)), dtype=float).reshape(pts.shape[:2])
                # a non-finite sample makes the integral non-finite too
                charge = integrate_atom(self, a, vals)
            if not math.isfinite(charge):
                raise NumericalError(
                    f"the density on the grid of atom {a} has non-finite samples or "
                    "charge; its data overflow double precision")
            if np.any(vals < 0):
                raise ValidationError([f"the density is negative on the grid of atom {a}: "
                                       f"its most negative sample is {vals.min():.3e}"])
            samples.append(vals)
        self.samples = samples
        self.sampled_from = rho
        self._folded = None
        return self

    def check_axial(self):
        """Refuse axial angular grids unless all atoms lie on the z axis.

        An axial grid samples one meridian, so it integrates only densities
        symmetric about the z axis; an atom off that axis breaks the symmetry
        on every grid. Raises ValidationError.
        """
        if (any(angular.kind == "axial" for angular in self.angular)
                and np.any(np.abs(self.positions[:, :2]) >= AXIS_TOL)):
            raise ValidationError(["axial angular grids require all atoms on the z axis"])


def _column_keys(arrays, columns=None):
    """One bytes key per angular column (last axis) of equally shaped arrays,
    for the given column indices (default: every column)."""
    stacked = np.ascontiguousarray(np.moveaxis(np.stack(arrays), -1, 0))
    return [stacked[j].tobytes() for j in (range(len(stacked)) if columns is None else columns)]


def integrate_radial(radial, f):
    """4*pi sum_i w_i r_i^2 f_i: the volume integral of a radial profile."""
    return float(radial.volume @ f)


def integrate_atom(grids, atom, values):
    """4*pi sum_i w_i r_i^2 sum_j eta_j f[i, j] over one atom's grid."""
    radial = grids.radial[atom]
    angular = grids.angular[atom]
    f = np.asarray(values, dtype=float)
    if f.shape != (radial.nodes.size, angular.weights.size):
        raise ValueError(f"sample shape {f.shape} does not match grid")
    return integrate_radial(radial, f @ angular.weights)
