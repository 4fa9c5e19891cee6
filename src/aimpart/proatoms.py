"""Radially symmetric pro-atom densities and their file format.

Every model evaluates its radial profile w(r) >= 0 on arrays of radii: a
TabulatedProfile from values at radial nodes, a ShellExpansion from normalized
shells of one radial kernel exp(-a r^p), Gaussian (p = 2) or Slater (p = 1).

Pro-atom table files are UTF-8 text:

    # proatom Z=<int> n=<int>
    <r_bohr> <density_value>
    ...

with strictly increasing radii.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import interpolate_radial
from .textio import read_rows
from .units import ANGSTROM_PER_BOHR

__all__ = [
    "TabulatedProfile",
    "ShellExpansion",
    "GaussianExpansion",
    "SlaterShells",
    "HirshfeldITable",
    "default_exponents",
    "default_shell_count",
    "read_proatom_table",
    "write_proatom_table",
    "synthetic_proatom_table",
]


@dataclass(frozen=True)
class TabulatedProfile:
    """Pro-atom known at radial nodes, piecewise-linear in between.

    Beyond rmax the profile is identically zero (grid tail rule); below the
    first node it is constant. rmax may not lie below the last node.
    """
    nodes: np.ndarray
    values: np.ndarray
    rmax: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be matching nonempty 1-d arrays")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))
                and math.isfinite(self.rmax)):
            raise ValueError("nodes, values and rmax must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not self.rmax >= nodes[-1]:
            raise ValueError(f"rmax {self.rmax!r} lies below the last node {nodes[-1]!r}")
        if np.any(values < 0):
            raise ValueError("profile values must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def profile(self, r):
        return interpolate_radial(self.nodes, self.values, r, rmax=self.rmax)


@dataclass(frozen=True)
class ShellExpansion:
    """w(r) = sum_k c_k s_k(r), each shell s_k normalized; charge = sum_k c_k.

    A subclass fixes the kernel s(r) = norm(a) exp(-a r^p) through two hooks,
    `_power(r)` = r^p and `_norm(a)`. `basis_profiles(r)` stacks the shells in
    one buffer, shape (n_shells, *r.shape); `profile(r)` accumulates the sum
    shell by shell in two arrays shaped like r, skipping shells with c_k = 0.
    """
    exponents: tuple
    coefficients: np.ndarray

    def __post_init__(self):
        exps = tuple(float(a) for a in self.exponents)
        coeffs = np.asarray(self.coefficients, dtype=float)
        if len(exps) != coeffs.size:
            raise ValueError("one coefficient per exponent required")
        if not (all(map(math.isfinite, exps)) and np.all(np.isfinite(coeffs))):
            raise ValueError("exponents and coefficients must be finite")
        if any(a <= 0 for a in exps):
            raise ValueError("exponents must be positive")
        if np.any(coeffs < 0):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coefficients", coeffs)

    def charge(self):
        return float(np.sum(self.coefficients))

    def _stacked(self, r):
        a = np.reshape(self.exponents, (-1,) + (1,) * np.ndim(r))
        shells = -a * self._power(r)
        np.exp(shells, out=shells)
        shells *= self._norm(a)
        return shells

    def _summed(self, r):
        x = self._power(r)
        total = np.zeros(np.shape(x))
        shell = np.empty_like(total)
        for a, c in zip(self.exponents, self.coefficients):
            if c == 0.0:
                continue
            np.multiply(x, -a, out=shell)
            np.exp(shell, out=shell)
            shell *= c * self._norm(a)
            total += shell
        return total


class GaussianExpansion(ShellExpansion):
    """Gaussian shells s_k(r) = (a_k/pi)^(3/2) exp(-a_k r^2) (GISA, L-ISA)."""

    _power = staticmethod(np.square)

    @staticmethod
    def _norm(a):
        return (a / math.pi) ** 1.5

    # bound on each kernel class itself, where bench/spans.py wraps them
    basis_profiles = ShellExpansion._stacked
    profile = ShellExpansion._summed


class SlaterShells(ShellExpansion):
    """Slater shells s_k(r) = (a_k^3/8 pi) exp(-a_k r) (MB-ISA)."""

    _power = staticmethod(np.asarray)

    @staticmethod
    def _norm(a):
        return a**3 / (8.0 * math.pi)

    basis_profiles = ShellExpansion._stacked
    profile = ShellExpansion._summed


class HirshfeldITable:
    """Ground-state pro-atom profiles for integer electron counts of one element.

    Maps n -> TabulatedProfile for n = 0 .. n_max; larger electron counts
    saturate at n_max.
    """

    def __init__(self, Z, tables):
        self.Z = int(Z)
        self.tables = dict(tables)
        if not self.tables:
            raise ValueError("need at least one integer-charge table")
        for n in self.tables:
            if n != int(n) or n < 0:
                raise ValueError(f"table keys must be nonnegative integers, got {n}")
        self.n_max = max(self.tables)

    def interpolated(self, n):
        """Pro-atom for a fractional electron count.

        Linear interpolation between the bracketing integer tables, with the
        saturation rule at n_max; an integer n returns its table verbatim.
        """
        if n < 0:
            raise ValueError("electron count must be nonnegative")
        n = min(float(n), float(self.n_max))
        lo = int(math.floor(n))
        if lo == n:
            return self._table(lo)
        hi = lo + 1
        tlo, thi = self._table(lo), self._table(hi)
        if not np.array_equal(tlo.nodes, thi.nodes):
            raise ValidationError(
                f"tables for Z={self.Z}, n={lo} and n={hi} use different radial nodes")
        values = (hi - n) * tlo.values + (n - lo) * thi.values
        return TabulatedProfile(nodes=tlo.nodes, values=values, rmax=tlo.rmax)

    def _table(self, n):
        try:
            return self.tables[n]
        except KeyError:
            raise ValidationError(
                f"missing pro-atom table for Z={self.Z}, n={n}") from None


def default_shell_count(Z):
    """Pro-atom shell counts: 4 for H/He, 6 through Ar, 8 beyond."""
    if Z <= 2:
        return 4
    if Z <= 18:
        return 6
    return 8


def default_exponents(Z, m_shells):
    """Empirical geometric ladder of shell exponents.

    alpha_k = 2 Z^(1-(k-1)/(m-1)) / a0 with a0 the bohr radius in angstrom,
    running from 2Z/a0 down to 2/a0. A single shell collapses to 2Z/a0.
    """
    if Z < 1:
        raise ValueError("Z must be >= 1")
    if m_shells < 1:
        raise ValueError("need at least one shell")
    a0 = ANGSTROM_PER_BOHR
    if m_shells == 1:
        return [2.0 * Z / a0]
    return [2.0 * Z ** (1.0 - (k - 1.0) / (m_shells - 1.0)) / a0
            for k in range(1, m_shells + 1)]


def synthetic_proatom_table(Z, n, nodes, rmax):
    """Bundled synthetic Slater-family pro-atom n*(a^3/8 pi) e^(-a r), a = 2Z.

    A stand-in for real atomic ground-state tables (which are quantum
    chemistry output); intended for tests and examples only.
    """
    nodes = np.asarray(nodes, dtype=float)
    a = 2.0 * Z
    values = n * a**3 / (8.0 * math.pi) * np.exp(-a * nodes)
    return TabulatedProfile(nodes=nodes, values=values, rmax=rmax)


def write_proatom_table(path, Z, n, table):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# proatom Z={int(Z)} n={int(n)}\n")
        for r, v in zip(table.nodes, table.values):
            fh.write(f"{float(r)!r} {float(v)!r}\n")


def read_proatom_table(path):
    """Parse one pro-atom table file; returns (Z, n, TabulatedProfile)."""
    header, rows, problems = read_rows(path, ("r", "value"), "entry", nonnegative=("value",))
    parts = header.split()
    Z = n = None
    if len(parts) == 4 and parts[0] == "#" and parts[1] == "proatom":
        try:
            Z = int(parts[2].removeprefix("Z="))
            n = int(parts[3].removeprefix("n="))
        except ValueError:
            pass
    if Z is None or n is None:
        problems.insert(0, f"{path}: bad header {header!r}, "
                           "expected '# proatom Z=<int> n=<int>'")
    if not rows:
        problems.append(f"{path}: no data rows")
    if problems:
        raise ValidationError(problems)
    nodes, values = np.array(rows).T.copy()
    if np.any(np.diff(nodes) <= 0):
        raise ValidationError([f"{path}: radii must be strictly increasing"])
    return Z, n, TabulatedProfile(nodes=nodes, values=values, rmax=float(nodes[-1]))
