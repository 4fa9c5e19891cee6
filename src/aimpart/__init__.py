"""Atoms-in-molecules density partitioning and distributed multipole analysis.

The package decomposes a molecular electron density into atomic pieces with
the stockholder family of schemes (Hirshfeld, Hirshfeld-I, ISA, GISA, L-ISA,
MB-ISA), and independently computes distributed multipole analyses of
Gaussian-basis densities with exact multipole translation and user-selected
redistribution strategies.
"""

from .density import (
    AnalyticDensity,
    Atom,
    GtoDensity,
    PrimitiveGaussian,
    eval_density,
    product_center,
    to_primitive_matrix,
    total_charge,
)
from .errors import (
    AimpartError,
    ConvergenceError,
    EntropyIncreaseError,
    NumericalError,
    ValidationError,
)
from .grids import (
    AngularGrid,
    AtomicGridSet,
    RadialGrid,
    build_angular,
    build_radial,
    integrate_atom,
    interpolate_radial,
    spherical_average,
)
from .moments import (
    AtomicMoments,
    atomic_moments,
    complex_real_transform,
    real_solid_harmonic,
    traceless_quadrupole,
)

CONVENTIONS_VERSION = "1"

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
