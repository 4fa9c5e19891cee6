import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimpart import density, dma, grids, moments
from aimpart.errors import ValidationError

LMAX = st.integers(0, 6)
SEED = st.integers(0, 2**32 - 1)


def _point(bound):
    return st.tuples(*[st.floats(-bound, bound)] * 3)


def _random_table(lmax, seed):
    """Complex (lmax+1, 2*lmax+1) table of N(0,1) parts, zero where |m| > l."""
    rng = np.random.default_rng(seed)
    table = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            table[l, m] = complex(rng.normal(), rng.normal())
    return table


def _brute_force_multipoles(term, population, lmax, half_width=9.0, n=141):
    """3D box-quadrature oracle, independent of the closed-form route."""
    ax = np.linspace(-half_width, half_width, n)
    h = ax[1] - ax[0]
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    f = term.mu(pts) * term.nu(pts) * population
    out = {}
    rel = pts - term.center
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            val = moments.real_solid_harmonic((l, m), rel)
            out[(l, m)] = moments.multipole_norm(l) * float(np.sum(f * val)) * h**3
    return out


def test_gamma_integral_values():
    # I_q = int_0^inf u^q exp(-u^2) du = Gamma((q+1)/2)/2
    def gamma_integral(q):
        return moments._gamma_half(q + 1) / 2

    assert gamma_integral(0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)
    assert gamma_integral(1) == pytest.approx(0.5)
    # derived check: numeric integral of u^5 exp(-u^2)
    u = np.linspace(0, 12, 200_001)
    numeric = np.trapezoid(u**5 * np.exp(-(u**2)), u)
    assert gamma_integral(5) == pytest.approx(1.0, rel=1e-14)
    assert numeric == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        gamma_integral(-1)


def test_natural_multipoles_ss_same_center():
    mu = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.3)
    term = density.product_center(mu, mu)
    nm = dma.natural_multipoles(term, 2.2, lmax=3)
    assert nm.coeffs[(0, 0)] == pytest.approx(2.2, rel=1e-12)
    for l in range(1, 4):
        for m in range(-l, l + 1):
            assert nm.coeffs[(l, m)] == 0.0  # exact structural zeros


def test_natural_multipoles_sp_same_center_parity():
    s = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.1)
    pz = density.PrimitiveGaussian(center=(0, 0, 0), l=1, m=0, exponent=0.7)
    nm = dma.natural_multipoles(density.product_center(s, pz), 1.0)
    assert nm.lmax == 1
    assert nm.coeffs[(0, 0)] == 0.0
    assert nm.coeffs[(1, 1)] == 0.0 and nm.coeffs[(1, -1)] == 0.0
    assert nm.coeffs[(1, 0)] != 0.0


def test_natural_multipoles_ss_different_centers_vs_brute_force():
    mu = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0)
    nu = density.PrimitiveGaussian(center=(0, 0, 1.0), l=0, m=0, exponent=3.0)
    term = density.product_center(mu, nu)
    nm = dma.natural_multipoles(term, 1.0, lmax=0)
    oracle = _brute_force_multipoles(term, 1.0, 0)
    assert nm.coeffs[(0, 0)] == pytest.approx(oracle[(0, 0)], abs=1e-10)


def test_natural_multipoles_random_pairs_vs_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(8):
        lmu, lnu = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        mu = density.PrimitiveGaussian(
            center=rng.uniform(-1, 1, 3), l=lmu, m=int(rng.integers(-lmu, lmu + 1)),
            exponent=float(rng.uniform(0.5, 2.5)))
        nu = density.PrimitiveGaussian(
            center=rng.uniform(-1, 1, 3), l=lnu, m=int(rng.integers(-lnu, lnu + 1)),
            exponent=float(rng.uniform(0.5, 2.5)))
        term = density.product_center(mu, nu)
        pop = float(rng.uniform(-1.5, 1.5))
        nm = dma.natural_multipoles(term, pop)
        oracle = _brute_force_multipoles(term, pop, nm.lmax)
        worst = max(abs(nm.coeffs[k] - oracle[k]) for k in oracle)
        assert worst < 1e-8


@settings(deadline=None)
@given(lmax=LMAX, seed=SEED, center=_point(2.0))
@example(lmax=4, seed=3, center=(0.5, 0.2, -0.3))
def test_m2m_zero_displacement_identity(lmax, seed, center):
    ser = dma.MultipoleSeries(center=np.array(center), lmax=lmax,
                              coeffs=_random_table(lmax, seed), basis="complex")
    ident = dma.m2m_translate(ser, ser.center)
    assert ident.coeffs.shape == ser.coeffs.shape
    worst = np.max(np.abs(ident.coeffs - ser.coeffs))
    assert worst < 1e-12


@st.composite
def _center_and_two_points(draw):
    # Offsets of at most 0.4 bohr per axis keep |d|^lmax small enough for
    # the absolute 1e-12 of the composition law; its rounding grows as |d|^l
    # (about 5e-12 at lmax 6 and offsets of 1 bohr), as in the per-element sum.
    center = np.array(draw(_point(2.0)))
    return center, center + draw(_point(0.4)), center + draw(_point(0.4))


@settings(deadline=None)
@given(lmax=LMAX, seed=SEED, points=_center_and_two_points())
@example(lmax=3, seed=4, points=(np.array([0.1, -0.5, 0.7]), np.array([1.0, -0.6, 0.4]),
                                 np.array([-0.8, 0.3, 1.2])))
def test_m2m_composition_law(lmax, seed, points):
    center, B, C = points
    ser = dma.MultipoleSeries(center=center, lmax=lmax,
                              coeffs=_random_table(lmax, seed), basis="complex")
    via_b = dma.m2m_translate(dma.m2m_translate(ser, B), C)
    direct = dma.m2m_translate(ser, C)
    worst = np.max(np.abs(via_b.coeffs - direct.coeffs))
    assert worst < 1e-12


@settings(deadline=None)
@given(lmax_in=LMAX, lmax_out=LMAX, seed=SEED, to_new=_point(1.0))
@pytest.mark.filterwarnings("ignore:M2M truncation")
def test_m2m_matches_elementwise_sum(lmax_in, lmax_out, seed, to_new):
    # reference: the per-element M2M sum over (l', m'), in the same order
    ser = dma.MultipoleSeries(center=np.zeros(3), lmax=lmax_in,
                              coeffs=_random_table(lmax_in, seed), basis="complex")
    d = -np.array(to_new)
    moved = dma.m2m_translate(ser, to_new, lmax_out=lmax_out)
    ref = np.zeros((lmax_out + 1, 2 * lmax_out + 1), dtype=complex)
    scale = np.zeros(ref.shape)
    for l in range(lmax_out + 1):
        for m in range(-l, l + 1):
            for lp in range(min(l, lmax_in) + 1):
                for mp in range(-lp, lp + 1):
                    lam, mu = l - lp, m - mp
                    if abs(mu) > lam:
                        continue
                    c = math.sqrt(math.comb(l + m, lp + mp) * math.comb(l - m, lp - mp))
                    disp = moments.multipole_norm(lam) * complex(
                        moments.complex_solid_harmonic((lam, mu), d))
                    term = c * disp * ser.coeffs[lp, mp]
                    ref[l, m] += term
                    scale[l, m] += abs(term)
    # each sum of at most 49 products lies within 26 eps * sum|term| of the
    # exact one, so the two agree to 64 eps * sum|term|
    assert np.all(np.abs(moved.coeffs - ref) <= 64 * np.finfo(float).eps * scale)


def test_m2m_monopole_matches_point_charge_integrals():
    # direct moment-integral oracle for q delta(r - p) about the new center
    q = 1.3
    p = np.array([0.4, -0.7, 0.9])
    ser = dma.MultipoleSeries(center=p.copy(), lmax=0, coeffs=np.array([[q + 0j]]),
                              basis="complex")
    moved = dma.m2m_translate(ser, np.zeros(3), lmax_out=3).to_basis("real")
    for l in range(4):
        for m in range(-l, l + 1):
            direct = moments.multipole_norm(l) * q * float(
                moments.real_solid_harmonic((l, m), p))
            assert moved.coeffs[(l, m)] == pytest.approx(direct, abs=1e-13)
    assert np.allclose(moved.cartesian_dipole(), q * p, atol=1e-13)


def test_m2m_far_field_esp_preserved():
    q = 0.8
    p = np.array([0.3, 0.2, -0.4])
    ser = dma.MultipoleSeries(center=p.copy(), lmax=0, coeffs=np.array([[q + 0j]]),
                              basis="complex")
    moved = dma.m2m_translate(ser, np.zeros(3), lmax_out=10)
    r = 50.0 * float(np.linalg.norm(p))
    point = np.array([1.0, 0.7, 0.3])
    point *= r / np.linalg.norm(point)
    v0 = dma.esp_multipole([ser.to_basis("real")], point)
    v1 = dma.esp_multipole([moved.to_basis("real")], point)
    assert abs(v1 - v0) / abs(v0) < 1e-10


def test_redistribution_weights_rules():
    sites = dma.SiteSet(positions=np.array([[0, 0, 1.0], [0, 0, -3.0]]),
                        labels=["p", "q"])
    w = dma.redistribution_weights("stone", [0, 0, 0.5], sites)
    assert np.allclose(w, [1.0, 0.0])
    tie_sites = dma.SiteSet(positions=np.array([[0, 0, 1.0], [0, 0, -1.0]]),
                            labels=["p", "q"])
    w = dma.redistribution_weights("stone", [0, 0, 0.0], tie_sites)
    assert np.allclose(w, [0.5, 0.5])
    w = dma.redistribution_weights("vigne_maeder", [0, 0, 0.0], sites)
    assert np.allclose(w, [0.75, 0.25])  # distances 1 and 3
    w = dma.redistribution_weights("vigne_maeder", [0, 0, 1.0], sites)
    assert np.allclose(w, [1.0, 0.0])  # coincident site takes everything
    with pytest.raises(ValidationError):
        dma.redistribution_weights("nearest", [0, 0, 0], sites)


def _toy_gto(seed=5):
    rng = np.random.default_rng(seed)
    prims = [
        density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.2),
        density.PrimitiveGaussian(center=(0, 0, 0), l=1, m=0, exponent=0.9),
        density.PrimitiveGaussian(center=(0, 0, 1.8), l=0, m=0, exponent=0.8),
        density.PrimitiveGaussian(center=(1.2, 0, 0.5), l=1, m=1, exponent=1.1),
        density.PrimitiveGaussian(center=(1.2, 0, 0.5), l=2, m=-2, exponent=1.5),
    ]
    A = rng.normal(size=(5, 5)) * 0.3
    return density.GtoDensity(primitives=prims, P=A @ A.T)


def test_run_dma_natural_centers_in_sites():
    # both primitives on one center: the site series equals the direct
    # natural multipoles, no translation error
    prims = [density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0),
             density.PrimitiveGaussian(center=(0, 0, 0), l=1, m=0, exponent=0.7)]
    P = np.array([[0.5, 0.2], [0.2, 0.8]])
    gto = density.GtoDensity(primitives=prims, P=P)
    sites = dma.SiteSet(positions=np.zeros((1, 3)), labels=["only"])
    series, flags = dma.run_dma(gto, sites, lmax=2)
    direct = np.zeros((3, 5))
    for i in range(2):
        for j in range(i, 2):
            pop = (1 if i == j else 2) * P[i, j]
            nm = dma.natural_multipoles(density.product_center(prims[i], prims[j]),
                                        pop, lmax=2)
            direct += nm.coeffs
    assert np.max(np.abs(series[0].coeffs - direct)) <= 1e-12


def test_run_dma_conserves_charge_and_origin_dipole():
    gto = _toy_gto()
    q_exact = density.total_charge(gto)
    D_exact = np.zeros(3)
    for i in range(5):
        for j in range(i, 5):
            pop = (1 if i == j else 2) * gto.P[i, j]
            term = density.product_center(gto.primitives[i], gto.primitives[j])
            nm = dma.natural_multipoles(term, pop, lmax=1)
            D_exact += nm.cartesian_dipole() + term.center * nm.charge()
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0, 0, 1.8], [1.2, 0, 0.5]]),
                        labels=["a", "b", "c"])
    for strategy in ["stone", "vigne_maeder"]:
        series, _ = dma.run_dma(gto, sites, strategy=strategy, lmax=4)
        q_sites = sum(s.charge() for s in series)
        D_sites = sum(s.cartesian_dipole() + s.center * s.charge() for s in series)
        assert abs(q_sites - q_exact) < 1e-10
        assert np.max(np.abs(D_sites - D_exact)) < 1e-10


def test_run_dma_strategies_differ_per_site():
    gto = _toy_gto()
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0, 0, 1.8], [1.2, 0, 0.5]]),
                        labels=["a", "b", "c"])
    stone, _ = dma.run_dma(gto, sites, strategy="stone", lmax=2)
    vm, _ = dma.run_dma(gto, sites, strategy="vigne_maeder", lmax=2)
    per_site_diff = max(abs(stone[j].charge() - vm[j].charge()) for j in range(3))
    assert per_site_diff > 1e-4


def test_run_dma_truncation_flag():
    prims = [density.PrimitiveGaussian(center=(0, 0, 0.3), l=2, m=0, exponent=1.0),
             density.PrimitiveGaussian(center=(0, 0, -0.3), l=2, m=1, exponent=0.7)]
    gto = density.GtoDensity(primitives=prims, P=np.array([[0.5, 0.1], [0.1, 0.3]]))
    sites = dma.SiteSet(positions=np.zeros((1, 3)), labels=["o"])
    _, flags = dma.run_dma(gto, sites, lmax=2)
    assert flags["truncated"]
    _, flags = dma.run_dma(gto, sites, lmax=4)
    assert not flags["truncated"]


def test_run_dma_rejects_negative_lmax():
    sites = dma.SiteSet(positions=np.zeros((1, 3)), labels=["o"])
    with pytest.raises(ValidationError, match="lmax"):
        dma.run_dma(_toy_gto(), sites, lmax=-1)


def test_esp_multipole_monopole_and_dipole():
    q = 1.7
    mono = dma.MultipoleSeries(center=np.zeros(3), lmax=0, coeffs=np.array([[q]]))
    pt = np.array([1.0, 2.0, 2.0])
    assert dma.esp_multipole([mono], pt) == pytest.approx(q / 3.0, rel=1e-14)
    pz = 0.6
    dip = dma.MultipoleSeries(center=np.zeros(3), lmax=1,
                              coeffs=np.array([[0.0, 0.0, 0.0], [pz, 0.0, 0.0]]))
    r, theta = 4.0, 0.73
    pt2 = np.array([r * math.sin(theta), 0.0, r * math.cos(theta)])
    assert dma.esp_multipole([dip], pt2) == pytest.approx(
        pz * math.cos(theta) / r**2, rel=1e-12)
    with pytest.raises(ValueError, match="coincides"):
        dma.esp_multipole([mono], np.zeros(3))


def test_esp_far_field_matches_erf_oracle():
    alpha = 0.8
    prim = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=alpha / 2)
    gto = density.GtoDensity(primitives=[prim], P=[[1.0]])
    sites = dma.SiteSet(positions=np.zeros((1, 3)), labels=["a"])
    series, _ = dma.run_dma(gto, sites, lmax=4)
    r = 20.0 / math.sqrt(alpha)
    pt = np.array([0.3, -0.2, 1.0])
    pt *= r / np.linalg.norm(pt)
    exact = math.erf(math.sqrt(alpha) * r) / r
    assert abs(dma.esp_multipole(series, pt) - exact) / exact < 1e-8


def test_esp_exact_quadrature_and_linearity():
    alpha = 0.8
    prim = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=alpha / 2)
    gto = density.GtoDensity(primitives=[prim], P=[[1.0]])
    gs = grids.AtomicGridSet(np.zeros((1, 3)), grids.build_radial(200, 12.0),
                             grids.build_angular(110))
    gs.sample_density(gto.eval)
    r = 20.0 / math.sqrt(alpha)
    pt = np.array([0.0, 0.0, r])
    exact = math.erf(math.sqrt(alpha) * r) / r
    assert dma.esp_exact(gto, pt, gs) == pytest.approx(exact, rel=1e-8)
    # superposition: esp of (2 rho) equals 2 esp(rho) on the same grid samples
    gto2 = density.GtoDensity(primitives=[prim], P=[[2.0]])
    gs2 = grids.AtomicGridSet(np.zeros((1, 3)), grids.build_radial(200, 12.0),
                              grids.build_angular(110))
    gs2.sample_density(gto2.eval)
    assert dma.esp_exact(gto2, pt, gs2) == pytest.approx(
        2 * dma.esp_exact(gto, pt, gs), rel=1e-12)


def test_esp_exact_far_field_of_two_center_density(appendix_density, diatomic_grids):
    # monopole dominance: far from the charge centroid the potential is 2/r
    # up to the quadrupole correction (separation/2r)^2
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=300, ns=110, angular="lebedev", rmax=15.0)
    mid = positions.mean(axis=0)
    pt = mid + np.array([50.0, 0.0, 0.0])
    v = dma.esp_exact(rho, pt, gs)
    assert abs(v - 2.0 / 50.0) / (2.0 / 50.0) < 1e-4
    # and the quadrature itself reproduces the exact two-center value tightly
    v_true = sum(1.0 / np.linalg.norm(pt - p) for p in positions)
    assert abs(v - v_true) / v_true < 1e-8


def test_esp_exact_warns_inside_density():
    alpha = 0.8
    prim = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=alpha / 2)
    gto = density.GtoDensity(primitives=[prim], P=[[1.0]])
    gs = grids.AtomicGridSet(np.zeros((1, 3)), grids.build_radial(100, 10.0),
                             grids.build_angular(50))
    gs.sample_density(gto.eval)
    with pytest.warns(UserWarning, match="penetration"):
        dma.esp_exact(gto, np.array([0.0, 0.0, 1.0]), gs)


def test_esp_exact_axial_grid_only_on_axis():
    # an axial grid samples one meridian: exact on the z axis, refused off it
    alpha = 0.8
    prim = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=alpha / 2)
    gto = density.GtoDensity(primitives=[prim], P=[[1.0]])
    gs = grids.AtomicGridSet(np.zeros((1, 3)), grids.build_radial(200, 12.0),
                             grids.build_angular(40, "axial"))
    r = 20.0 / math.sqrt(alpha)
    exact = math.erf(math.sqrt(alpha) * r) / r
    assert dma.esp_exact(gto, np.array([0.0, 0.0, -r]), gs) == pytest.approx(exact, rel=1e-8)
    with pytest.raises(ValidationError, match="Lebedev"):
        dma.esp_exact(gto, np.array([0.6 * r, 0.0, 0.8 * r]), gs)


def test_far_field_error_decreases_with_lmax():
    gto = _toy_gto()
    sites = dma.SiteSet(positions=np.array([[0.4, 0.0, 0.6]]), labels=["c"])
    pt = np.array([12.0, 5.0, -8.0])
    # reference: untruncated natural-center evaluation
    v_ref = 0.0
    for i in range(5):
        for j in range(i, 5):
            pop = (1 if i == j else 2) * gto.P[i, j]
            term = density.product_center(gto.primitives[i], gto.primitives[j])
            nm = dma.natural_multipoles(term, pop)
            v_ref += dma.esp_multipole([nm], pt)
    errors = []
    for lmax in range(0, 7):
        series, _ = dma.run_dma(gto, sites, lmax=lmax)
        errors.append(abs(dma.esp_multipole(series, pt) - v_ref))
    # decreasing error sequence, allowing the usual odd/even alternation
    assert errors[-1] < errors[0] * 1e-3
    assert all(errors[i + 2] < errors[i] for i in range(len(errors) - 2))


def test_bond_midpoints_and_site_file(tmp_path):
    atoms = [density.Atom(symbol="C", Z=6, position=(0, 0, 0)),
             density.Atom(symbol="O", Z=8, position=(0, 0, 2.15))]
    mids, labels = dma.bond_midpoint_sites(atoms)
    assert len(mids) == 1
    assert np.allclose(mids[0], [0, 0, 1.075])
    far = [density.Atom(symbol="C", Z=6, position=(0, 0, 0)),
           density.Atom(symbol="O", Z=8, position=(0, 0, 9.0))]
    mids, _ = dma.bond_midpoint_sites(far)
    assert not mids
    path = tmp_path / "sites.txt"
    path.write_text("# comment\nC0 0 0 0\nbond 0.0 0.0 1.075\n", encoding="utf-8")
    sites = dma.load_site_file(path)
    assert sites.labels == ["C0", "bond"]
    assert np.allclose(sites.positions[1], [0, 0, 1.075])
    bad = tmp_path / "bad.txt"
    bad.write_text("only three fields\nX 1 2\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        dma.load_site_file(bad)
