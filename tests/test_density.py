import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimpart import density, dma, grids, moments
from aimpart.errors import NumericalError


def test_gaussian_peak_value():
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 1.0, 1.0)])
    assert density.eval_density(rho, np.zeros(3)) == pytest.approx(
        (1.0 / math.pi) ** 1.5, rel=1e-14)


def test_slater_peak_value():
    rho = density.AnalyticDensity(terms=[("slater_s", (0, 0, 0), 2.0, 1.0)])
    assert density.eval_density(rho, np.zeros(3)) == pytest.approx(
        1.0 / math.pi, rel=1e-14)


def test_appendix_density_value_at_r1(appendix_density):
    rho, positions = appendix_density
    # independent scalar evaluation of both terms at R1
    expected = (0.1 / math.pi) ** 1.5 \
        + (0.5 / math.pi) ** 1.5 * math.exp(-0.5 * 1.131**2)
    assert density.eval_density(rho, positions[0]) == pytest.approx(expected, rel=1e-14)


def test_total_charges_analytic():
    one = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.8, 1.0)])
    assert density.total_charge(one) == pytest.approx(1.0)
    slater = density.AnalyticDensity(terms=[("slater_s", (1, 0, 0), 1.7, 3.5)])
    assert density.total_charge(slater) == pytest.approx(3.5)


def test_appendix_total_charge(appendix_density):
    rho, _ = appendix_density
    assert density.total_charge(rho) == pytest.approx(2.0)


def test_analytic_density_nonnegative_everywhere(appendix_density):
    rho, _ = appendix_density
    pts = np.random.default_rng(0).uniform(-20, 20, size=(10_000, 3))
    assert np.all(density.eval_density(rho, pts) >= 0.0)


def test_analytic_density_rejects_bad_terms():
    with pytest.raises(ValueError):
        density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), -1.0, 1.0)])
    with pytest.raises(ValueError):
        density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 1.0, -0.5)])
    with pytest.raises(ValueError):
        density.AnalyticDensity(terms=[("lorentzian", (0, 0, 0), 1.0, 1.0)])
    # finite exponents whose normalisation (a/pi)^1.5 or a^3 overflows
    for kind, exponent in (("gaussian_s", 1e250), ("slater_s", 1e150)):
        with pytest.raises(ValueError, match="too large to normalise"):
            density.AnalyticDensity(terms=[(kind, (0, 0, 0), exponent, 1.0)])


@pytest.mark.parametrize("l, exponent", [(0, 1e300), (2, 1e100)])
def test_primitive_refuses_exponent_whose_norm_overflows(l, exponent):
    with pytest.raises(ValueError, match="too large to normalise"):
        density.PrimitiveGaussian(center=(0, 0, 0), l=l, m=0, exponent=exponent)


def test_atom_validation():
    with pytest.raises(ValueError):
        density.Atom(symbol="X", Z=0, position=(0, 0, 0))
    with pytest.raises(ValueError):
        density.Atom(symbol="X", Z=1, position=(0, math.inf, 0))


def test_product_center_midpoint_symmetry():
    a = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.4)
    b = density.PrimitiveGaussian(center=(0, 0, 2.0), l=0, m=0, exponent=1.4)
    term = density.product_center(a, b)
    assert np.allclose(term.center, [0, 0, 1.0])
    assert term.exponent == pytest.approx(2.8)


def test_product_center_same_center():
    a = density.PrimitiveGaussian(center=(0.3, 0.1, -0.2), l=1, m=0, exponent=0.9)
    b = density.PrimitiveGaussian(center=(0.3, 0.1, -0.2), l=0, m=0, exponent=2.1)
    term = density.product_center(a, b)
    assert term.prefactor == pytest.approx(1.0)
    assert np.allclose(term.center, a.center)


def test_product_center_cited_case():
    # zeta_mu = 1 at origin, zeta_nu = 3 at (0,0,1)
    a = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0)
    b = density.PrimitiveGaussian(center=(0, 0, 1), l=0, m=0, exponent=3.0)
    term = density.product_center(a, b)
    assert np.allclose(term.center, [0, 0, 0.75])
    assert term.prefactor == pytest.approx(math.exp(-0.75), rel=1e-14)


def test_gaussian_product_radial_identity():
    # exp(-z1|r-A|^2) exp(-z2|r-B|^2) = K exp(-(z1+z2)|r-P|^2) at random points
    rng = np.random.default_rng(4)
    a = density.PrimitiveGaussian(center=(0.2, -0.1, 0.4), l=0, m=0, exponent=0.7)
    b = density.PrimitiveGaussian(center=(-0.5, 0.3, 1.1), l=0, m=0, exponent=2.2)
    term = density.product_center(a, b)
    pts = rng.normal(scale=1.5, size=(100, 3))
    lhs = np.exp(-0.7 * np.sum((pts - a.center) ** 2, axis=1)) \
        * np.exp(-2.2 * np.sum((pts - b.center) ** 2, axis=1))
    rhs = term.prefactor * np.exp(-term.exponent * np.sum((pts - term.center) ** 2, axis=1))
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_primitive_normalization():
    for l, m, zeta in [(0, 0, 0.8), (1, -1, 1.7), (2, 2, 0.5), (3, 0, 1.1)]:
        p = density.PrimitiveGaussian(center=(0, 0, 0), l=l, m=m, exponent=zeta)
        assert density.primitive_overlap(p, p) == pytest.approx(1.0, rel=1e-12)


def test_gto_charge_matches_quadrature():
    prims = [
        density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0),
        density.PrimitiveGaussian(center=(0, 0, 1), l=0, m=0, exponent=3.0),
        density.PrimitiveGaussian(center=(0, 0.5, 0.2), l=2, m=-1, exponent=0.8),
    ]
    P = np.array([[0.8, 0.2, 0.05], [0.2, 0.6, -0.1], [0.05, -0.1, 0.4]])
    gto = density.GtoDensity(primitives=prims, P=P)
    analytic = density.total_charge(gto)
    gs = grids.AtomicGridSet(np.zeros((1, 3)),
                             grids.build_radial(150, 20.0),
                             grids.build_angular(194))
    gs.sample_density(gto.eval)
    quad = grids.integrate_atom(gs, 0, gs.samples[0])
    assert abs(analytic - quad) / abs(analytic) < 1e-6


def test_gto_requires_symmetric_p():
    prims = [density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0)] * 2
    with pytest.raises(ValueError, match="symmetric"):
        density.GtoDensity(primitives=prims, P=[[1.0, 0.2], [0.1, 1.0]])


def test_gto_symmetrises_huge_p_without_overflow():
    prims = [density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0)] * 2
    P = np.full((2, 2), 1e308)
    assert np.array_equal(density.GtoDensity(primitives=prims, P=P).P, P)


@pytest.mark.parametrize("P, cause", [
    ([[1e308, 1e308], [1e308, 1e308]], r"pairs \(i, j\) = \(0, 1\) overflow"),
    ([[1.7e308, 0.0], [0.0, 1.7e308]], "the sum over its pairs overflows"),
], ids=["population", "sum"])
def test_gto_charge_refuses_overflow(P, cause):
    # 2 P_01 overflows in the first case, the sum of two finite populations
    # in the second; neither emits a RuntimeWarning (an error in this suite)
    prims = [density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=0.9),
             density.PrimitiveGaussian(center=(0, 0, 1.8), l=0, m=0, exponent=1.3)]
    gto = density.GtoDensity(primitives=prims, P=P)
    with pytest.raises(NumericalError, match=cause):
        density.total_charge(gto)
    with pytest.raises(NumericalError, match="charge of the GTO density is not finite"):
        gto.charge()


def test_gto_charge_of_a_population_near_the_largest_double():
    # N^2 of a primitive of exponent 0.9 is 5.4, so the weighted population
    # N^2 P_00 of 1e308 passes the largest double; its charge does not
    prims = [density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=0.9),
             density.PrimitiveGaussian(center=(0, 0, 1.8), l=1, m=0, exponent=1.3)]
    big = density.GtoDensity(primitives=prims, P=[[1e308, 0.0], [0.0, 0.0]])
    assert big.charge() == pytest.approx(1e308, rel=1e-14)
    tables = density.product_moments(big, 4)
    assert np.isfinite(tables).all() and tables[0, 0, 0] == big.charge()
    sites = dma.SiteSet(positions=np.zeros((1, 3)), labels=["a"])
    assert np.isfinite(dma.run_dma(big, sites)[0][0].coeffs).all()


def test_gto_numbers_shells_and_shell_pairs():
    # a shell is every primitive of one center and exponent, whatever its
    # (l, m); another exponent or another center is another shell
    def prim(center, l, m, exponent):
        return density.PrimitiveGaussian(center=center, l=l, m=m, exponent=exponent)

    prims = [prim((0, 0, 0), 1, -1, 0.8), prim((0, 0, 0), 1, 0, 0.8), prim((0, 0, 0), 0, 0, 0.8),
             prim((0, 0, 0), 0, 0, 1.5), prim((0, 0, 1), 1, 1, 0.8), prim((0, 0, 0), 1, 1, 0.8)]
    gto = density.GtoDensity(primitives=prims, P=np.ones((6, 6)))
    assert gto.shell.tolist() == [0, 0, 0, 1, 2, 0]
    table = gto.shells
    assert table.l.tolist() == [1, 0, 1]
    assert table.exponent.tolist() == [0.8, 1.5, 0.8]
    assert table.center.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    # every shell pair a <= b is live, and each of its primitive pairs has
    # its product center and exponent to the bit
    shell_pairs = list(zip(table.a.tolist(), table.b.tolist()))
    assert shell_pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for i in range(6):
        for j in range(6):
            p = shell_pairs.index(tuple(sorted((gto.shell[i], gto.shell[j]))))
            term = density.product_center(prims[i], prims[j])
            assert np.array_equal(table.pair_center[p], term.center)
            assert table.pair_exponent[p] == term.exponent


def test_gto_eval_nonnegative_with_clamp():
    prims = [
        density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0),
        density.PrimitiveGaussian(center=(0, 0, 6.0), l=0, m=0, exponent=1.0),
    ]
    P = np.array([[1.0, 0.5], [0.5, 0.25]])  # PSD: (chi1 + 0.5 chi2)^2 scaled
    gto = density.GtoDensity(primitives=prims, P=P)
    pts = np.random.default_rng(1).uniform(-10, 16, size=(5000, 3))
    assert np.all(gto.eval(pts) >= 0.0)


def _chi_formula(prim, points):
    rel = points - prim.center
    r2 = np.einsum("...i,...i->...", rel, rel)
    return prim.norm * moments.real_solid_harmonic((prim.l, prim.m), rel) \
        * np.exp(-prim.exponent * r2)


def _rho_formula(prims, P, points):
    chi = np.stack([_chi_formula(g, points) for g in prims])
    rho = np.einsum("mp,mp->p", chi, np.einsum("mn,np->mp", P, chi))
    rho[(rho < 0) & (rho > -density.NEGATIVE_CLAMP)] = 0.0
    return rho


@settings(deadline=None, max_examples=60)
@given(lmax=st.integers(0, 4), seed=st.integers(0, 2**32 - 1), npts=st.integers(1, 40))
@example(lmax=4, seed=0, npts=1)
def test_gto_eval_per_shell_equals_per_primitive_formula(lmax, seed, npts):
    # shells (A, z1), (A, z2) and (B, z1): one centre with two exponents and
    # one exponent on two centres, each holding a random subset of its
    # components, plus a duplicated primitive, all in shuffled order
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=(2, 3))
    z1, z2 = rng.uniform(0.2, 3.0, size=2)
    lm = [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]
    prims = []
    for center, zeta in ((A, z1), (A, z2), (B, z1)):
        keep = rng.permutation(len(lm))[:rng.integers(1, len(lm) + 1)]
        prims += [density.PrimitiveGaussian(center=center, l=lm[k][0], m=lm[k][1],
                                            exponent=zeta) for k in keep]
    twin = prims[rng.integers(len(prims))]
    prims.append(density.PrimitiveGaussian(center=twin.center.copy(), l=twin.l, m=twin.m,
                                           exponent=twin.exponent))
    prims = [prims[k] for k in rng.permutation(len(prims))]
    F = rng.normal(size=(len(prims), 3))
    gto = density.GtoDensity(primitives=prims, P=F @ F.T)
    assert gto.shell.max() == 2
    points = np.vstack([A, rng.normal(size=(npts - 1, 3)) * 2.0])
    assert np.array_equal(gto.eval(points), _rho_formula(prims, gto.P, points))
    assert np.array_equal(gto.eval(points[0]), _rho_formula(prims, gto.P, points[:1]))
    for g in prims:
        assert np.array_equal(g(points), _chi_formula(g, points))
        assert np.array_equal(g(points[-1]), _chi_formula(g, points[-1:]))


def test_to_primitive_matrix_identity_contraction():
    shells = [((0, 0, 0), 0, 0, [(1.2, 1.0)])]
    out = density.to_primitive_matrix(shells, [[2.5]])
    assert out.P == pytest.approx(np.array([[2.5]]))


def test_to_primitive_matrix_two_primitive_shell():
    # one contracted s function of two primitives; P_contr = [1]
    c1, c2 = 0.6, 0.9
    shells = [((0, 0, 0), 0, 0, [(0.5, c1), (2.0, c2)])]
    out = density.to_primitive_matrix(shells, [[1.0]])
    expected = np.array([[c1 * c1, c1 * c2], [c2 * c1, c2 * c2]])
    assert np.allclose(out.P, expected)
    # density identical at probe points to the direct contracted evaluation
    p1 = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=0.5)
    p2 = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=2.0)
    for pt in [np.array([0.1, 0.0, 0.3]), np.array([1.0, -0.5, 0.2]), np.zeros(3)]:
        phi = c1 * float(p1(pt[None])[0]) + c2 * float(p2(pt[None])[0])
        assert density.eval_density(out, pt) == pytest.approx(phi**2, rel=1e-12)


def test_to_primitive_matrix_zero_matrix():
    shells = [((0, 0, 0), 0, 0, [(0.5, 0.6), (2.0, 0.9)]),
              ((0, 0, 1), 1, 0, [(0.8, 1.0)])]
    out = density.to_primitive_matrix(shells, np.zeros((2, 2)))
    assert np.all(out.P == 0.0)


def test_to_primitive_matrix_dimension_mismatch():
    shells = [((0, 0, 0), 0, 0, [(0.5, 1.0)])]
    with pytest.raises(ValueError, match="shape"):
        density.to_primitive_matrix(shells, np.zeros((2, 2)))


@pytest.mark.parametrize("Z", [119, 1e308])
def test_atom_refuses_nuclear_charge_above_118(Z):
    with pytest.raises(ValueError, match="nuclear charge must be from 1 to 118"):
        density.Atom(symbol="X", Z=Z, position=(0, 0, 0))


@pytest.mark.parametrize("exponent, size", [(1e308, "large"), (1e-320, "small")])
def test_primitive_refuses_exponent_whose_norm_divides_by_zero(exponent, size):
    # (2 zeta)^1.5 is inf or 0 here, so the radial integral is 0 or 1/0
    with pytest.raises(ValueError, match=re.escape(f"exponent {exponent!r} is too {size} "
                                                   "to normalise")):
        density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=exponent)


def test_primitive_refuses_l_whose_gamma_overflows():
    assert density.primitive_norm(170, 0.5) > 0.0
    # l = 10**308 returns at once: Gamma(l + 3/2) is refused before the recursion
    for l in (171, 200, 10**308):
        with pytest.raises(ValueError, match=r"l is too large to normalise: Gamma\(l \+ 3/2\)"):
            density.PrimitiveGaussian(center=(0, 0, 0), l=l, m=0, exponent=1.0)
