"""Every input check of the library refuses what it names, with its message.

One parametrized case per refusal that no other test reaches, plus exact
values for the branches that return instead of raising.
"""

import re

import numpy as np
import pytest

from aimpart import density, dma, grids, moments, partition, proatoms, solvers
from aimpart.errors import NumericalError, ValidationError


def _two_atoms(nr=30, order=26):
    return grids.AtomicGridSet(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]]),
                               grids.build_radial(nr, 10.0), grids.build_angular(order))


def _table(nodes, n=1):
    return proatoms.synthetic_proatom_table(1, n, np.asarray(nodes, dtype=float), 14.0)


def _simplex(mass, gradient=lambda c: c, hessian=lambda c: np.eye(c.size)):
    return solvers.SimplexProblem(dim=2, mass=mass, objective=lambda c: 0.5 * c @ c,
                                  gradient=gradient, hessian=hessian)


def _with_isa_options(method, **options):
    gs = _two_atoms()
    rho = density.AnalyticDensity(terms=[("slater_s", gs.positions[0], 2.0, 1.0),
                                         ("slater_s", gs.positions[1], 2.0, 1.0)])
    return lambda: partition.run_partition(method, rho, gs,
                                           partition.PartitionOptions(**options))


REFUSALS = {
    "primitive-m-above-l": (
        lambda: density.PrimitiveGaussian(center=(0, 0, 0), l=1, m=2, exponent=1.0),
        ValueError, "invalid angular momentum (l=1, m=2)"),
    "site-labels-count": (
        lambda: dma.SiteSet(positions=np.zeros((1, 3)), labels=["a", "b"]),
        ValidationError, "one label per site required"),
    "m2m-real-series": (
        lambda: dma.m2m_translate(dma.MultipoleSeries(np.zeros(3), 0, np.ones((1, 1))),
                                  np.ones(3)),
        ValueError, "m2m_translate expects a complex-basis series"),
    "dma-analytic-density": (
        lambda: dma.run_dma(density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 1, 1)]),
                            dma.SiteSet(positions=np.zeros((1, 3)), labels=["a"])),
        ValidationError, "run_dma requires a GtoDensity"),
    "esp-exact-unknown-density": (
        lambda: dma.esp_exact(object(), np.array([0.0, 0.0, 30.0]), _two_atoms()),
        ValidationError, "esp_exact supports analytic and gto densities"),
    "radial-one-node": (
        lambda: grids.RadialGrid(nodes=[0.5], weights=[1.0], rmax=1.0),
        ValueError, "need at least two radial nodes"),
    "radial-nodes-decreasing": (
        lambda: grids.RadialGrid(nodes=[0.6, 0.5], weights=[1.0, 1.0], rmax=1.0),
        ValueError, "radial nodes must be strictly increasing"),
    "radial-node-at-rmax": (
        lambda: grids.RadialGrid(nodes=[0.5, 1.0], weights=[1.0, 1.0], rmax=1.0),
        ValueError, "radial nodes must lie inside (0, rmax)"),
    "angular-not-unit": (
        lambda: grids.AngularGrid(points=[[0.0, 0.0, 2.0]], weights=[1.0], kind="lebedev"),
        ValueError, "angular nodes must be unit vectors"),
    "angular-weights-sum": (
        lambda: grids.AngularGrid(points=[[0.0, 0.0, 1.0]], weights=[0.5], kind="lebedev"),
        ValueError, "angular weights must sum to 1"),
    "axial-no-node": (lambda: grids.build_angular(0, kind="axial"),
                      ValueError, "axial grid needs at least one node"),
    "angular-unknown-kind": (lambda: grids.build_angular(10, kind="cube"),
                             ValueError, "unknown angular kind 'cube'"),
    "stencil-values-shape": (
        lambda: grids.RadialStencil(np.array([1.0, 2.0]), np.array([1.5]), 3.0)(np.ones(3)),
        ValueError, "nodes and values must have matching shapes"),
    "grid-count": (
        lambda: grids.AtomicGridSet(np.zeros((2, 3)), [grids.build_radial(4, 1.0)],
                                    grids.build_angular(6)),
        ValueError, "need one grid per atom"),
    "solid-harmonic-m-above-l": (lambda: moments.real_solid_harmonic((1, 2), np.ones(3)),
                                 ValueError, "invalid (l, m) = (1, 2)"),
    "transform-direction": (lambda: moments.complex_real_transform(np.ones((1, 1)), "sideways"),
                            ValueError, "unknown direction 'sideways'"),
    "engine-unsampled-grids": (lambda: partition.StockholderEngine(_two_atoms()),
                               ValueError, "grid set has no cached density samples"),
    "lisa-basis-underflows": (
        # the share reaches 10 bohr, where a shell of exponent 1e4 is exactly 0
        lambda: partition.lisa_step2(
            np.exp(-grids.build_radial(30, 10.0).nodes), grids.build_radial(30, 10.0), 1.0,
            proatoms.GaussianExpansion(exponents=(1e4,), coefficients=[1.0])),
        NumericalError, "objective not finite at the starting point"),
    "mbisa-gaussian-model": (
        lambda: partition.mbisa_update(np.ones(4), grids.build_radial(4, 1.0),
                                       proatoms.GaussianExpansion((1.0,), [1.0])),
        ValueError, "mbisa_update requires SlaterShells pro-atoms"),
    "hirshfeld-missing-table": (_with_isa_options("hirshfeld", proatom_tables={0: None}),
                                ValidationError, "missing pro-atom table for atom 1"),
    "init-row-length": (_with_isa_options("gisa", exponents=[[1.0, 2.0], [1.0, 2.0]],
                                          init_coefficients=[[1.0], [0.5, 0.5]]),
                        ValidationError, "atom 0: initial guess has 1 entries for 2 exponents"),
    "table-shapes": (lambda: proatoms.TabulatedProfile(np.ones(2), np.ones(3), 2.0),
                     ValueError, "nodes and values must be matching nonempty 1-d arrays"),
    "table-negative": (lambda: proatoms.TabulatedProfile(np.array([1.0, 2.0]),
                                                         np.array([1.0, -1.0]), 2.0),
                       ValueError, "profile values must be nonnegative"),
    "shell-coefficient-count": (lambda: proatoms.SlaterShells((1.0, 2.0), [1.0]),
                                ValueError, "one coefficient per exponent required"),
    "hirshfeld-i-no-table": (lambda: proatoms.HirshfeldITable(1, {}),
                             ValueError, "need at least one integer-charge table"),
    "hirshfeld-i-fractional-key": (
        lambda: proatoms.HirshfeldITable(1, {0.5: _table([0.1, 1.0])}),
        ValueError, "table keys must be nonnegative integers, got 0.5"),
    "hirshfeld-i-nodes-differ": (
        lambda: proatoms.HirshfeldITable(1, {0: _table([0.1, 1.0], 0),
                                             1: _table([0.2, 1.0])}).interpolated(0.5),
        ValidationError, "tables for Z=1, n=0 and n=1 use different radial nodes"),
    "hirshfeld-i-missing-table": (
        lambda: proatoms.HirshfeldITable(1, {0: _table([0.1, 1.0], 0),
                                             2: _table([0.1, 1.0], 2)}).interpolated(1.5),
        ValidationError, "missing pro-atom table for Z=1, n=1"),
    "shell-exponent-large": (lambda: proatoms.GaussianExpansion((1.0, 1.01e100), [1.0, 1.0]),
                             ValueError, "exponent 1.01e+100 is too large to normalise"),
    "shell-exponent-small": (lambda: proatoms.SlaterShells((0.99e-100,), [1.0]),
                             ValueError, "exponent 9.9e-101 is too small to normalise"),
    "term-exponent-small": (
        lambda: density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 1e-200, 1.0)]),
        ValueError, "term exponent 1e-200 is too small to normalise"),
    "init-row-sum-overflows": (
        _with_isa_options("lisa", exponents=[[1.0, 2.0], [1.0, 2.0]],
                          init_coefficients=[[1e308, 1e308], [1.0, 1.0]]),
        ValidationError, "atom 0: initial guess [1e+308, 1e+308] must be finite and nonnegative"),
    "init-exponent-large": (_with_isa_options("mbisa", exponents=[[1.0], [1e150]]),
                            ValidationError, "atom 1: exponent 1e+150 is too large to normalise"),
    "series-table-too-large": (
        lambda: dma.MultipoleSeries(np.zeros(3), 0, np.zeros((3, 5))),
        ValueError, "coefficient table of shape (3, 5) for lmax 0; expected (1, 1)"),
    "dipole-of-a-monopole": (
        lambda: dma.MultipoleSeries(np.zeros(3), 0, np.ones((1, 1))).cartesian_dipole(),
        ValueError, "a dipole needs a series of lmax >= 1, got lmax 0"),
    "series-table-too-small": (
        lambda: dma.MultipoleSeries(np.zeros(3), 2, np.ones((1, 1))),
        ValueError, "coefficient table of shape (1, 1) for lmax 2; expected (3, 5)"),
    "ladder-z-zero": (lambda: proatoms.default_exponents(0, 4), ValueError, "Z must be >= 1"),
    "ladder-no-shell": (lambda: proatoms.default_exponents(1, 0),
                        ValueError, "need at least one shell"),
    "simplex-mass-zero": (lambda: solvers.solve_simplex_newton(_simplex(0.0)),
                          ValueError, "simplex mass must be positive"),
    "simplex-gradient-nan": (
        lambda: solvers.solve_simplex_newton(_simplex(1.0, gradient=lambda c: c * np.nan)),
        NumericalError, "non-finite gradient or Hessian in the simplex solver"),
    "qp-mass-negative": (
        lambda: solvers.solve_qp_nonneg(solvers.QpProblem(S=np.eye(2), b=np.zeros(2),
                                                          mass=-1.0)),
        ValueError, "mass must be nonnegative"),
    "qp-singular-kkt": (
        lambda: solvers.solve_qp_nonneg(solvers.QpProblem(S=np.ones((2, 2)), b=np.zeros(2),
                                                          mass=1.0)),
        NumericalError, "singular reduced KKT system"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_its_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("header, rows, message", [
    ("# proatom Z=x n=1", "0.1 1.0\n", "bad header '# proatom Z=x n=1'"),
    ("# proatom Z=1 n=1", "", "no data rows"),
    ("# proatom Z=1 n=1", "0.2 1.0\n0.1 1.0\n", "radii must be strictly increasing"),
], ids=["header-not-integer", "no-rows", "radii-decreasing"])
def test_proatom_table_file_refusals(tmp_path, header, rows, message):
    path = tmp_path / "table.dat"
    path.write_text(f"{header}\n{rows}", encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(message)):
        proatoms.read_proatom_table(path)


def test_lisa_step2_gives_an_empty_atom_zero_coefficients():
    radial = grids.build_radial(10, 5.0)
    model = proatoms.GaussianExpansion(exponents=(0.5, 2.0), coefficients=[1.0, 1.0])
    for N_a in (0.0, -1e-3):
        fit = partition.lisa_step2(np.ones(10), radial, N_a, model)
        assert fit.exponents == model.exponents
        assert fit.coefficients.tolist() == [0.0, 0.0]


def test_esp_exact_skips_an_atom_that_owns_no_component():
    # both terms sit on atom 0, so atom 1's grid adds nothing to the potential
    two = _two_atoms()
    one = grids.AtomicGridSet(two.positions[:1], two.radial[0], two.angular[0])
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 1.0, 1.0),
                                         ("slater_s", (0, 0, 0.1), 2.0, 0.5)])
    points = np.array([[0.0, 0.0, 30.0], [25.0, 0.0, 0.0]])
    assert dma.esp_exact(rho, points, two).tolist() == dma.esp_exact(rho, points, one).tolist()
    assert two.owned_samples[1] is None


def test_bond_midpoints_skip_elements_without_a_covalent_radius():
    def atoms(Z):
        return [density.Atom("A", Z, (0, 0, 0)), density.Atom("B", 1, (0, 0, 1.0))]

    assert dma.bond_midpoint_sites(atoms(37)) == ([], [])
    mids, labels = dma.bond_midpoint_sites(atoms(36))
    assert labels == ["bond-A0-B1"] and mids[0].tolist() == [0.0, 0.0, 0.5]


FAR = "has a coordinate beyond 1e+150 bohr, where squared distances overflow"
CONSTRUCTORS = {
    "atom": lambda p: density.Atom("H", 1, p),
    "primitive": lambda p: density.PrimitiveGaussian(center=p, l=0, m=0, exponent=1.0),
    "analytic-term": lambda p: density.AnalyticDensity(terms=[("gaussian_s", p, 1.0, 1.0)]),
    "site": lambda p: dma.SiteSet(positions=np.array([p]), labels=["a"]),
    "grid-set": lambda p: grids.AtomicGridSet(np.array([p]), grids.build_radial(4, 1.0),
                                              grids.build_angular(6)),
}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_coordinates_whose_squared_distances_overflow_are_refused(make):
    make((0.0, -1e150, 1e150))
    for z in (1e160, -1e200, 1e308):
        with pytest.raises(ValidationError, match=re.escape(FAR)):
            make((0.0, 0.0, z))


def test_coordinate_refusals_name_the_entry():
    with pytest.raises(ValidationError,
                       match=re.escape(f"term 1 center [0.0, 0.0, 1e+200] {FAR}")):
        density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 1.0, 1.0),
                                       ("slater_s", (0, 0, 1e200), 1.0, 1.0)])
    with pytest.raises(ValidationError, match=re.escape(f"site 1 [0.0, 0.0, 1e+200] {FAR}")):
        dma.SiteSet(positions=np.array([[0, 0, 0], [0, 0, 1e200]]), labels=["a", "b"])
    with pytest.raises(ValidationError,
                       match=re.escape(f"atom 1 position [0.0, 0.0, 1e+200] {FAR}")):
        grids.AtomicGridSet(np.array([[0, 0, 0], [0, 0, 1e200]]), grids.build_radial(4, 1.0),
                            grids.build_angular(6))
    with pytest.raises(ValueError, match=re.escape("atom 0 position must be a finite 3-vector")):
        grids.AtomicGridSet(np.array([[0, 0, np.nan]]), grids.build_radial(4, 1.0),
                            grids.build_angular(6))


def test_multipole_orders_above_the_bound_are_refused():
    gto = density.GtoDensity(
        primitives=[density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0)],
        P=np.ones((1, 1)))
    sites = dma.SiteSet(positions=np.zeros((1, 3)), labels=["a"])
    assert dma.run_dma(gto, sites, lmax=dma.MAX_LMAX)[0][0].lmax == 32
    series = dma.MultipoleSeries(np.zeros(3), 0, np.ones((1, 1), dtype=complex), "complex")
    for lmax in (33, 10**308):
        with pytest.raises(ValidationError, match=f"dma lmax must be at most 32, got {lmax}"):
            dma.run_dma(gto, sites, lmax=lmax)
        with pytest.raises(ValidationError, match=f"M2M lmax must be at most 32, got {lmax}"):
            dma.m2m_translate(series, np.ones(3), lmax_out=lmax)


@pytest.mark.parametrize("lmax", [-1, 33, 40])
def test_natural_multipole_orders_outside_the_bound_are_refused(lmax):
    s = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0)
    term = density.product_center(s, s)
    assert dma.natural_multipoles(term, 1.0, lmax=dma.MAX_LMAX).lmax == 32
    with pytest.raises(ValidationError,
                       match=re.escape(f"natural multipole lmax must be from 0 to 32, got {lmax}")):
        dma.natural_multipoles(term, 1.0, lmax=lmax)
    # the kernel itself is bounded, where MAX_LMAX lives
    assert term.moments(density.MAX_LMAX).shape == (33, 65)
    with pytest.raises(ValidationError,
                       match=re.escape(f"multipole lmax must be from 0 to 32, got {lmax}")):
        term.moments(lmax)


def test_kl_entropy_overflow_is_a_numerical_error():
    gs = _two_atoms()
    pro = proatoms.SlaterShells((2.0,), [1.0])
    assert np.isfinite(partition.kl_entropy(np.full((30, 26), 1e300), pro, gs, 1))
    with pytest.raises(NumericalError, match="overflow rho log rho: the relative entropy "
                                             "is not finite at atom 1"):
        partition.kl_entropy(np.full((30, 26), 1e308), pro, gs, 1)


@pytest.mark.parametrize("make", [
    lambda e: density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), e, 1.0)]),
    lambda e: density.AnalyticDensity(terms=[("slater_s", (0, 0, 0), e, 1.0)]),
    lambda e: density.PrimitiveGaussian(center=(0, 0, 0), l=np.int64(2), m=0, exponent=e),
], ids=["gaussian-term", "slater-term", "primitive"])
def test_numpy_exponents_too_large_to_normalise_are_refused(make):
    # a numpy power overflows to inf with a RuntimeWarning where a float power raises
    with pytest.raises(ValueError, match="too large to normalise"):
        make(np.float64(1e250))


@pytest.mark.parametrize("cls", [proatoms.GaussianExpansion, proatoms.SlaterShells])
def test_kernel_exponents_at_the_range_bounds_are_accepted(cls):
    # inside the range the normalisations and the GISA overlaps stay finite
    model = cls(exponents=proatoms.EXPONENT_RANGE, coefficients=[1.0, 1.0])
    assert np.all(np.isfinite(model.basis_profiles(np.array([0.0, 1e-60, 1.0]))))
    assert np.all(np.isfinite(partition.gisa_overlap(model.exponents)))
