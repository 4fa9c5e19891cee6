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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AtomicMoments",
    "multipole_norm",
    "lm_index",
    "solid_harmonics",
    "real_solid_harmonic",
    "complex_solid_harmonic",
    "complex_real_transform",
    "atomic_moments",
    "traceless_quadrupole",
]


def multipole_norm(l):
    """K(l) = sqrt(4*pi/(2l+1)), the multipole normalization; l may be an array."""
    return np.sqrt(4.0 * math.pi / (2 * l + 1))


@functools.lru_cache(maxsize=None)
def lm_index(lmax):
    """Read-only row and column arrays (l, m) of every entry with |m| <= l <=
    lmax of an (lmax+1, 2*lmax+1) table, l-major with m = -l..l."""
    l, m = np.array([(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]).T
    l.flags.writeable = m.flags.writeable = False
    return l, m


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


# ---------------------------------------------------------------------------
# Solid harmonics by recurrence (Helgaker, Jorgensen and Olsen, section 6.4)
# ---------------------------------------------------------------------------

def _diagonal(x, y):
    """Yields (S(j, j), S(j, -j)) for j = 0, 1, 2, ...; S(0, -0) is None.

    S(j+1, +-(j+1)) = sqrt((2j+1)/(2j+2)) (x S(j,j) - y S(j,-j),
    y S(j,j) + x S(j,-j)) for j >= 1, from S(1, 1) = x and S(1, -1) = y.
    """
    yield np.ones_like(x), None
    c, s = x, y
    for j in itertools.count(1):
        yield c, s
        f = math.sqrt((2 * j + 1) / (2 * j + 2))
        c, s = f * (x * c - y * s), f * (y * c + x * s)


def _column(seed, m, z, r2):
    """Yields S(l, m) for l = |m|, |m|+1, ... from seed = S(|m|, m), holding
    two degrees at a time:
        S(j+1, m) = ((2j+1) z S(j, m) - sqrt(j^2 - m^2) r^2 S(j-1, m))
                    / sqrt((j+1)^2 - m^2)
    """
    prev, cur = None, seed
    for j in itertools.count(abs(m)):
        yield cur
        den = math.sqrt((j + 1) ** 2 - m * m)
        nxt = z * cur * ((2 * j + 1) / den)
        if prev is not None:
            nxt -= r2 * prev * (math.sqrt(j * j - m * m) / den)
        prev, cur = cur, nxt


def solid_harmonics(lmax, points):
    """Real solid harmonics R(l,m) for all l <= lmax, by the recurrence.

    Returns an (lmax+1, 2*lmax+1, ...) table in the MultipoleSeries layout
    (negative m wrap around, zeros where |m| > l), trailing axes those of
    `points` without its last. Entries equal real_solid_harmonic to the last
    bit, as both divide the Racah-normalized S(l,m) by K(l) last.
    """
    pts = np.asarray(points, dtype=float)
    x, y, z = (np.ascontiguousarray(pts[..., k]) for k in range(3))
    r2 = np.einsum("...i,...i->...", pts, pts)
    table = np.zeros((lmax + 1, 2 * lmax + 1) + x.shape)
    for a, (c, s) in zip(range(lmax + 1), _diagonal(x, y)):
        for l, value in enumerate(itertools.islice(_column(c, a, z, r2), lmax + 1 - a), a):
            table[l, a] = value
        if a:
            for l, value in enumerate(itertools.islice(_column(s, -a, z, r2), lmax + 1 - a), a):
                table[l, -a] = value
    table /= multipole_norm(np.arange(lmax + 1)).reshape((-1,) + (1,) * (table.ndim - 1))
    return table


def real_solid_harmonic(lm, points):
    """Evaluate R(l,m)(r) = |r|^l Y(l,m)(r/|r|) with real orthonormal Y.

    `lm` is an (l, m) pair; `points` an (..., 3) array. The value at r = 0
    is delta(l,0)/sqrt(4*pi). Only the diagonal up to |m| and the one
    column m are evaluated, a few array operations per degree.
    """
    l, m = lm
    if abs(m) > l:
        raise ValueError(f"invalid (l, m) = ({l}, {m})")
    pts = np.asarray(points, dtype=float)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    c, s = next(itertools.islice(_diagonal(x, y), abs(m), None))
    r2 = np.einsum("...i,...i->...", pts, pts) if l - abs(m) > 1 else None
    column = _column(c if m >= 0 else s, m, z, r2)
    return next(itertools.islice(column, l - abs(m), None)) / multipole_norm(l)


def complex_solid_harmonic(lm, points):
    """Same as real_solid_harmonic but with complex (Condon-Shortley) Y, built
    from the real pair: (R(l,|m|) + i sign(m) R(l,-|m|)) / sqrt(2), times
    (-1)^m for m > 0."""
    l, m = lm
    if m == 0:
        return real_solid_harmonic((l, 0), points) + 0j
    val = (real_solid_harmonic((l, abs(m)), points)
           + 1j * np.sign(m) * real_solid_harmonic((l, -abs(m)), points)) / math.sqrt(2.0)
    return (-1) ** m * val if m > 0 else val


# ---------------------------------------------------------------------------
# Real <-> complex multipole blocks
# ---------------------------------------------------------------------------

def complex_real_transform(table, direction):
    """Convert a multipole table between real and complex harmonic bases.

    `table` is an (lmax+1, 2*lmax+1, ...) array with Q(l, m) at [l, m], one
    table per trailing index; negative m wrap around to the end of each row,
    and entries with |m| > l must be zero (they stay zero). `direction` is
    "complex_to_real" (returns float tables) or "real_to_complex" (takes real
    tables, returns complex ones). The two are inverse unitary maps.
    """
    table = np.asarray(table)
    if table.ndim < 2 or table.shape[1] != 2 * table.shape[0] - 1:
        raise ValueError(f"incomplete block: table shape {table.shape} is not "
                         "(lmax+1, 2*lmax+1, ...)")
    m = np.arange(1, table.shape[0])
    sign = ((-1.0) ** m).reshape(m.shape + (1,) * (table.ndim - 2))
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
