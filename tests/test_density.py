import math

import numpy as np
import pytest

from aimpart import density, grids


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


def test_gto_numbers_shells_and_shell_pairs():
    # a shell is every primitive of one center and exponent, whatever its
    # (l, m); another exponent or another center is another shell
    def prim(center, l, m, exponent):
        return density.PrimitiveGaussian(center=center, l=l, m=m, exponent=exponent)

    prims = [prim((0, 0, 0), 1, -1, 0.8), prim((0, 0, 0), 1, 0, 0.8), prim((0, 0, 0), 0, 0, 0.8),
             prim((0, 0, 0), 0, 0, 1.5), prim((0, 0, 1), 1, 1, 0.8), prim((0, 0, 0), 1, 1, 0.8)]
    gto = density.GtoDensity(primitives=prims, P=np.ones((6, 6)))
    assert gto.shell.tolist() == [0, 0, 0, 1, 2, 0]
    pairs = gto.pairs()
    shells = [frozenset((gto.shell[i], gto.shell[j])) for i, j in zip(pairs.i, pairs.j)]
    for p in range(len(pairs)):
        for q in range(len(pairs)):
            same = pairs.shell_pair[p] == pairs.shell_pair[q]
            assert same == (shells[p] == shells[q])
            if same:
                assert np.array_equal(pairs.center[p], pairs.center[q])
                assert pairs.exponent[p] == pairs.exponent[q]


def test_gto_eval_nonnegative_with_clamp():
    prims = [
        density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0),
        density.PrimitiveGaussian(center=(0, 0, 6.0), l=0, m=0, exponent=1.0),
    ]
    P = np.array([[1.0, 0.5], [0.5, 0.25]])  # PSD: (chi1 + 0.5 chi2)^2 scaled
    gto = density.GtoDensity(primitives=prims, P=P)
    pts = np.random.default_rng(1).uniform(-10, 16, size=(5000, 3))
    assert np.all(gto.eval(pts) >= 0.0)


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
