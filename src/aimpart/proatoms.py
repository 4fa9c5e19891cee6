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
    first node it is constant. rmax may not lie below the last node. A table
    built with `on_nodes_of` takes the nodes and rmax of a RadialGrid or
    another table, which passed these checks when it was built, and checks
    only its values. Read at its own nodes (`profile(t.nodes)`), a table is
    a copy of its values: np.interp returns a node's value there exactly.
    """
    nodes: np.ndarray
    values: np.ndarray
    rmax: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != np.shape(self.values):
            raise ValueError("nodes and values must be matching nonempty 1-d arrays")
        if not (np.all(np.isfinite(nodes)) and math.isfinite(self.rmax)):
            raise ValueError("nodes, values and rmax must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not self.rmax >= nodes[-1]:
            raise ValueError(f"rmax {self.rmax!r} lies below the last node {nodes[-1]!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", _checked_values(self.values, nodes.shape))

    @classmethod
    def on_nodes_of(cls, source, values):
        """The table of `values` on the node array and rmax of `source`, a
        RadialGrid or TabulatedProfile that checked them; only `values` is checked."""
        table = object.__new__(cls)
        object.__setattr__(table, "nodes", source.nodes)
        object.__setattr__(table, "values", _checked_values(values, source.nodes.shape))
        object.__setattr__(table, "rmax", source.rmax)
        return table

    def profile(self, r):
        if r is self.nodes:
            return self.values.copy()
        return interpolate_radial(self.nodes, self.values, r, rmax=self.rmax)


def _checked_values(values, shape):
    """`values` as a float array of `shape`, finite and nonnegative, or ValueError."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError("nodes and values must be matching nonempty 1-d arrays")
    if not np.all(np.isfinite(values)):
        raise ValueError("profile values must be finite")
    if np.any(values < 0):
        raise ValueError("profile values must be nonnegative")
    return values


# Kernel exponents outside this range are refused: inside it (a/pi)^(3/2),
# a^3/8pi and the GISA overlaps' (a_k a_l)^(3/2) all stay normal doubles.
EXPONENT_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class ShellExpansion:
    """w(r) = sum_k c_k s_k(r), each shell s_k normalized; charge = sum_k c_k.

    A subclass fixes the kernel s(r) = norm(a) exp(-a r^p) through two hooks,
    `_power(r)` = r^p and `_norm(a)`. `basis_profiles(r)` stacks the shells in
    one buffer, shape (n_shells, *r.shape); `profile(r)` accumulates the sum
    shell by shell in two arrays shaped like r, skipping shells with c_k = 0.
    Every exponent must pass `check_exponent`. A model built with
    `with_coefficients` keeps the exponents of the model it came from, which
    passed these checks, and checks only its coefficients.
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
        for a in exps:
            self.check_exponent(a)
        if np.any(coeffs < 0):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coefficients", coeffs)

    def with_coefficients(self, coefficients):
        """This model's kernel and exponents with new coefficients; only they are
        checked: one per exponent, finite and nonnegative, or ValueError."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.shape != (len(self.exponents),):
            raise ValueError("one coefficient per exponent required")
        if not np.isfinite(coeffs).all():
            raise ValueError("exponents and coefficients must be finite")
        if (coeffs < 0).any():
            raise ValueError("coefficients must be nonnegative")
        model = object.__new__(type(self))
        object.__setattr__(model, "exponents", self.exponents)
        object.__setattr__(model, "coefficients", coeffs)
        return model

    @staticmethod
    def check_exponent(a):
        """Raise ValueError for a positive float exponent outside EXPONENT_RANGE."""
        lo, hi = EXPONENT_RANGE
        if not lo <= a <= hi:
            raise ValueError(f"exponent {a!r} is too {'large' if a > hi else 'small'} "
                             "to normalise")

    def charge(self):
        return float(np.sum(self.coefficients))

    def _stacked(self, r):
        a = np.reshape(self.exponents, (-1,) + (1,) * np.ndim(r))
        shells = -a * self._power(r)
        np.exp(shells, out=shells)
        shells *= self._norm(a)
        return shells

    def _summed(self, r):
        # the sum starts from the first shell with c_k != 0, not from zeros:
        # every shell is >= +0, and +0 + s is s bit for bit
        x = self._power(r)
        total = shell = None
        for a, c in zip(self.exponents, self.coefficients):
            if c == 0.0:
                continue
            if total is None:
                out = total = np.empty(np.shape(x))
            else:
                if shell is None:
                    shell = np.empty_like(total)
                out = shell
            np.multiply(x, -a, out=out)
            np.exp(out, out=out)
            out *= c * self._norm(a)
            if out is shell:
                total += shell
        return np.zeros(np.shape(x)) if total is None else total


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
        return TabulatedProfile.on_nodes_of(tlo, (hi - n) * tlo.values + (n - lo) * thi.values)

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
    return TabulatedProfile(nodes=nodes, values=SlaterShells((2.0 * Z,), [n]).profile(nodes),
                            rmax=rmax)


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
    if Z is None or n is None or Z < 1 or n < 0:
        problems.insert(0, f"{path}: bad header {header!r}, "
                           "expected '# proatom Z=<int >= 1> n=<int >= 0>'")
    if not rows:
        problems.append(f"{path}: no data rows")
    if problems:
        raise ValidationError(problems)
    nodes, values = np.array(rows).T.copy()
    if np.any(np.diff(nodes) <= 0):
        raise ValidationError([f"{path}: radii must be strictly increasing"])
    return Z, n, TabulatedProfile(nodes=nodes, values=values, rmax=float(nodes[-1]))
