import math
import time
import warnings

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


def test_natural_multipoles_above_natural_order_are_exact_zeros():
    rng = np.random.default_rng(11)
    for lmu, lnu in [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]:
        mu = density.PrimitiveGaussian(center=rng.uniform(-1, 1, 3), l=lmu,
                                       m=int(rng.integers(-lmu, lmu + 1)), exponent=0.9)
        nu = density.PrimitiveGaussian(center=rng.uniform(-1, 1, 3), l=lnu,
                                       m=int(rng.integers(-lnu, lnu + 1)), exponent=1.7)
        nm = dma.natural_multipoles(density.product_center(mu, nu), -1.3, lmax=6)
        assert nm.coeffs.shape == (7, 13)
        assert np.all(nm.coeffs[lmu + lnu + 1:] == 0.0)
        assert np.any(nm.coeffs[lmu + lnu] != 0.0)


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


@st.composite
def _mixed_basis(draw):
    """2 to 7 s/p/d primitives on up to three centers, with a dense P."""
    centers = draw(st.lists(_point(1.5), min_size=1, max_size=3))
    specs = draw(st.lists(st.tuples(st.integers(0, len(centers) - 1), st.integers(0, 2),
                                    st.integers(-2, 2), st.floats(0.3, 3.0)),
                          min_size=2, max_size=7))
    prims = [density.PrimitiveGaussian(center=centers[c], l=l, m=max(-l, min(l, m)),
                                       exponent=e) for c, l, m, e in specs]
    A = np.random.default_rng(draw(SEED)).normal(size=(len(prims), len(prims)))
    return density.GtoDensity(primitives=prims, P=A @ A.T)


@settings(deadline=None, max_examples=60)
@given(gto=_mixed_basis(), lmax=st.integers(0, 4))
def test_batched_moments_match_one_pair_calls(gto, lmax):
    # one kernel call over pairs of every (l_mu, l_nu) against one call per pair
    pairs = gto.pairs()
    tables = density.product_moments(gto.primitives, pairs, lmax)
    assert tables.shape == (lmax + 1, 2 * lmax + 1, len(pairs))
    for p, (i, j) in enumerate(zip(pairs.i, pairs.j)):
        term = density.product_center(gto.primitives[i], gto.primitives[j])
        one = dma.natural_multipoles(term, 1.0, lmax=lmax).coeffs
        # a table that vanishes by symmetry (p_x p_z on one center) is
        # rounding of terms of the size of the prefactor K
        scale = max(np.max(np.abs(one)), term.prefactor)
        assert np.max(np.abs(tables[..., p] - one)) <= 1e-14 * scale


def test_blocks_split_a_group_without_changing_tables(monkeypatch):
    # 30 primitives on three centers: the (2, 2) group alone holds 120 pairs;
    # blocks of 7 pairs at 125 nodes, and of one pair, give the same tables
    # up to the summation order of the matrix product
    gto = _spd_basis(np.array([[0, 0, 0], [0.3, -0.4, 1.9], [1.1, 0.8, -0.5]]), seed=3)
    pairs = gto.pairs()
    whole = density.product_moments(gto.primitives, pairs, 4)
    scale = np.maximum(np.max(np.abs(whole), axis=(0, 1)), pairs.prefactor)
    for block in (7 * 125, 1):
        monkeypatch.setattr(density, "HERMITE_BLOCK", block)
        split = density.product_moments(gto.primitives, pairs, 4)
        assert np.all(np.abs(split - whole) <= 1e-14 * scale)


def test_m2m_blocks_leave_site_multipoles_unchanged(monkeypatch):
    # 465 pairs: Vigne-Maeder moves all of them to every site, in one block
    # and in blocks of 64 pairs
    gto = _spd_basis(np.array([[0, 0, 0], [0.3, -0.4, 1.9], [1.1, 0.8, -0.5]]), seed=3)
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0.3, -0.4, 1.9], [0.5, 0.2, 0.7]]),
                        labels=["a", "b", "m"])
    whole, _ = dma.run_dma(gto, sites, strategy="vigne_maeder", lmax=4)
    monkeypatch.setattr(dma, "M2M_BLOCK", 64)
    split, _ = dma.run_dma(gto, sites, strategy="vigne_maeder", lmax=4)
    for a, b in zip(whole, split):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * np.max(np.abs(a.coeffs))


def test_pair_table_matches_product_center():
    gto = _toy_gto()
    pairs = gto.pairs()
    assert len(pairs) == 15
    for p, (i, j) in enumerate(zip(pairs.i, pairs.j)):
        term = density.product_center(gto.primitives[i], gto.primitives[j])
        assert np.allclose(pairs.center[p], term.center, rtol=1e-15, atol=1e-15)
        assert pairs.exponent[p] == term.exponent
        assert pairs.prefactor[p] == pytest.approx(term.prefactor, rel=1e-15)
        assert pairs.population[p] == (1.0 if i == j else 2.0) * gto.P[i, j]


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


@settings(deadline=None, max_examples=40)
@given(lmax_in=st.integers(0, 5), lmax_out=st.integers(0, 5), seed=SEED)
@example(lmax_in=4, lmax_out=4, seed=1)
@pytest.mark.filterwarnings("ignore:M2M truncation")
def test_multi_target_m2m_sum_equals_per_target_translations(lmax_in, lmax_out, seed):
    # 9 entries over 4 targets (target 2 gets none); entry 0 sits on its
    # target, where the zero displacement is the identity. The sums over
    # entries may cancel, so the bound is relative to the entries' size
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-2, 2, (4, 3))
    target = np.array([0, 0, 1, 1, 1, 3, 3, 3, 3])
    centers = rng.uniform(-2, 2, (target.size, 3))
    centers[0] = sites[0]
    weights = rng.uniform(0.1, 1.0, target.size)
    tables = np.stack([_random_table(lmax_in, seed + e) for e in range(target.size)], axis=-1)
    out = np.zeros((4, lmax_out + 1, 2 * lmax_out + 1), dtype=complex)
    dma._m2m_sum(out, tables, centers - sites[target], weights, target)
    ref = np.zeros_like(out)
    scale = np.zeros(4)   # sum over a target's entries of their largest term
    for e, j in enumerate(target):
        ser = dma.MultipoleSeries(center=centers[e], lmax=lmax_in, coeffs=tables[..., e],
                                  basis="complex")
        moved = weights[e] * dma.m2m_translate(ser, sites[j], lmax_out=lmax_out).coeffs
        ref[j] += moved
        scale[j] += np.max(np.abs(moved))
    assert not np.any(out[2])
    for j in (0, 1, 3):
        assert np.max(np.abs(out[j] - ref[j])) <= 1e-15 * scale[j]
    # the identity: the entry on its site alone, truncated to lmax_out
    alone = np.zeros((1,) + out.shape[1:], dtype=complex)
    dma._m2m_sum(alone, tables[..., :1], np.zeros((1, 3)), np.ones(1), np.zeros(1, dtype=int))
    l, m = moments.lm_index(min(lmax_in, lmax_out))
    kept = tables[l, m, 0]
    assert np.max(np.abs(alone[0][l, m] - kept)) <= 1e-15 * np.max(np.abs(kept))
    assert not np.any(alone[0, l.max() + 1:])


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


def test_weight_rule_rows_equal_one_center_calls():
    # a Stone tie, centers on sites (Vigne-Maeder divides by no zero: a
    # RuntimeWarning fails the suite), and generic centers
    sites = dma.SiteSet(positions=np.array([[0, 0, 1.0], [0, 0, -1.0], [2.0, 0.5, 0]]),
                        labels=["p", "q", "r"])
    rng = np.random.default_rng(2)
    centers = np.vstack([[0, 0, 0], [0, 0, 1.0], [2.0, 0.5, 0], [0, 0, -1.0 + 1e-12],
                         rng.uniform(-2, 2, (6, 3))])
    for strategy in ("stone", "vigne_maeder"):
        rows = dma._weight_rule(strategy, centers, sites.positions)
        assert rows.shape == (10, 3)
        for center, row in zip(centers, rows):
            assert np.array_equal(row, dma.redistribution_weights(strategy, center, sites))
        assert np.all(rows >= 0.0) and np.allclose(rows.sum(axis=1), 1.0, rtol=1e-15)
        assert np.array_equal(rows[1:4], np.eye(3)[[0, 2, 1]])
    # an exact tie, and one within COINCIDENCE_TOL
    near_tie = np.array([[0, 0, 0], [0, 0, 1e-12]])
    assert np.array_equal(dma._weight_rule("stone", near_tie, sites.positions),
                          [[0.5, 0.5, 0.0]] * 2)
    with pytest.raises(ValidationError):
        dma._weight_rule("nearest", centers, sites.positions)


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


def _per_pair_site_loop(dens, sites, strategy, lmax):
    """Reference DMA: a loop over pairs with a loop over sites inside, each
    pair moved to each site by its own m2m_translate, and a pair on a site
    added without translation. Returns real (J, lmax+1, 2*lmax+1) tables."""
    prims = dens.primitives
    n = len(prims)
    acc = np.zeros((len(sites.labels), lmax + 1, 2 * lmax + 1), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            pop = (1.0 if i == j else 2.0) * dens.P[i, j]
            if pop == 0.0:
                continue
            term = density.product_center(prims[i], prims[j])
            cplx = dma.natural_multipoles(term, pop, lmax=lmax).to_basis("complex")
            weights = dma.redistribution_weights(strategy, term.center, sites)
            for jsite, w in enumerate(weights):
                if w == 0.0:
                    continue
                if np.linalg.norm(sites.positions[jsite] - term.center) < dma.COINCIDENCE_TOL:
                    moved = cplx
                else:
                    moved = dma.m2m_translate(cplx, sites.positions[jsite], lmax_out=lmax)
                acc[jsite] += w * moved.coeffs
    return np.array([moments.complex_real_transform(a, "complex_to_real") for a in acc])


def _spd_basis(centers, seed):
    """Per center two s, one p and one d exponent (10 primitives), with a
    random coefficient matrix."""
    rng = np.random.default_rng(seed)
    prims = [density.PrimitiveGaussian(center=c, l=l, m=m, exponent=float(e))
             for c in centers
             for l, exps in ((0, rng.uniform(0.4, 2.5, 2)), (1, rng.uniform(0.5, 2.0, 1)),
                             (2, rng.uniform(0.6, 1.8, 1)))
             for e in exps for m in range(-l, l + 1)]
    A = rng.normal(size=(len(prims), 12)) * 0.2
    return density.GtoDensity(primitives=prims, P=A @ A.T)


def _assert_matches_per_pair_loop(gto, sites, lmax):
    for strategy in ["stone", "vigne_maeder"]:
        series, flags = dma.run_dma(gto, sites, strategy=strategy, lmax=lmax)
        assert flags["truncated"]
        ref = _per_pair_site_loop(gto, sites, strategy, lmax=lmax)
        for jsite, s in enumerate(series):
            assert s.coeffs.shape == (lmax + 1, 2 * lmax + 1) and s.basis == "real"
            for l in range(lmax + 1):
                scale = np.max(np.abs(ref[jsite, l]))
                assert np.max(np.abs(s.coeffs[l] - ref[jsite, l])) <= 1e-12 * scale


def test_run_dma_matches_per_pair_loop():
    # pairs (0, 0), (0, 1) and (1, 1) sit on site A; pair (0, 2) is centred at
    # (0, 0, 1), a Stone tie between A and B; d x p pairs exceed lmax 2; two
    # P entries are zero
    prims = [density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=1.0),
             density.PrimitiveGaussian(center=(0, 0, 0), l=1, m=0, exponent=0.7),
             density.PrimitiveGaussian(center=(0, 0, 2.0), l=0, m=0, exponent=1.0),
             density.PrimitiveGaussian(center=(1.5, 0, 0.5), l=2, m=1, exponent=1.3),
             density.PrimitiveGaussian(center=(1.5, 0, 0.5), l=1, m=-1, exponent=0.9)]
    A = np.random.default_rng(11).normal(size=(5, 5)) * 0.3
    P = A @ A.T
    P[0, 3] = P[3, 0] = P[2, 4] = P[4, 2] = 0.0
    gto = density.GtoDensity(primitives=prims, P=P)
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0, 0, 2.0], [1.5, 0, 0.5]]),
                        labels=["A", "B", "C"])
    w = dma.redistribution_weights("stone", [0, 0, 1.0], sites)
    assert np.array_equal(w, [0.5, 0.5, 0.0])
    _assert_matches_per_pair_loop(gto, sites, lmax=2)
    # 40 s/p/d primitives on four centers (820 pairs, every (l_mu, l_nu)
    # group), sites on the centers and one bond midpoint; d x d pairs exceed
    # lmax 3
    centers = np.array([[0, 0, 0], [0, 0, 2.1], [1.7, 0.4, -0.6], [-1.2, 1.5, 0.3]])
    gto = _spd_basis(centers, seed=7)
    assert len(gto.primitives) == 40
    sites = dma.SiteSet(positions=np.vstack([centers, 0.5 * (centers[0] + centers[1])]),
                        labels=["a", "b", "c", "d", "ab"])
    _assert_matches_per_pair_loop(gto, sites, lmax=3)


def _per_pair_sum(dens, sites, strategy, lmax):
    """run_dma without the sum per shell pair: every primitive pair weighed
    and moved on its own, one M2M entry per (pair, site) of positive weight.
    Returns real (J, lmax+1, 2*lmax+1) tables."""
    pairs = dens.pairs()
    tables = pairs.population * density.product_moments(dens.primitives, pairs, lmax)
    weights = dma._weight_rule(strategy, pairs.center, sites.positions)
    site, pair = np.nonzero(weights.T > 0.0)
    out = np.zeros((len(sites.labels), lmax + 1, 2 * lmax + 1), dtype=complex)
    dma._m2m_sum(out, moments.complex_real_transform(tables[..., pair], "real_to_complex"),
                 pairs.center[pair] - sites.positions[site], weights[pair, site], site)
    return np.array([moments.complex_real_transform(o, "complex_to_real") for o in out])


@pytest.mark.parametrize("shared", [True, False], ids=["shared-shells", "own-exponents"])
def test_sum_per_shell_pair_matches_per_pair_sum(shared):
    # shared: the p and d components share their center and exponent (12
    # shells for 30 primitives); otherwise every primitive has its own
    # exponent, so no two pairs share a shell pair
    centers = np.array([[0, 0, 0], [0.3, -0.4, 1.9], [1.1, 0.8, -0.5]])
    gto = _spd_basis(centers, seed=3)
    if not shared:
        prims = [density.PrimitiveGaussian(center=g.center, l=g.l, m=g.m,
                                           exponent=g.exponent * (1.0 + 0.01 * k))
                 for k, g in enumerate(gto.primitives)]
        gto = density.GtoDensity(primitives=prims, P=gto.P)
    pairs = gto.pairs()
    groups = np.unique(pairs.shell_pair).size
    assert groups == (78 if shared else len(pairs))
    sites = dma.SiteSet(positions=np.vstack([centers, [[0.5, 0.2, 0.7]]]),
                        labels=["a", "b", "c", "m"])
    for strategy in dma.STRATEGIES:
        series, _ = dma.run_dma(gto, sites, strategy=strategy, lmax=4)
        ref = _per_pair_sum(gto, sites, strategy, lmax=4)
        for s, table in zip(series, ref):
            assert np.max(np.abs(s.coeffs - table)) <= 1e-14 * np.max(np.abs(table))


@st.composite
def _shell_basis_and_order(draw):
    """1 to 4 whole s/p/d shells on up to two centers, a positive P and a
    permutation of the primitives."""
    centers = [(0.0, 0.0, 0.0), (0.4, -0.3, 1.6)]
    shells = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                     st.sampled_from([0.5, 0.9, 1.7])),
                           min_size=1, max_size=4))
    prims = [density.PrimitiveGaussian(center=centers[c], l=l, m=m, exponent=e)
             for c, l, e in shells for m in range(-l, l + 1)]
    A = np.random.default_rng(draw(SEED)).uniform(0.1, 1.0, (len(prims), len(prims)))
    order = draw(st.permutations(range(len(prims))))
    return density.GtoDensity(primitives=prims, P=A @ A.T), np.array(order)


@settings(deadline=None, max_examples=40)
@given(basis=_shell_basis_and_order(), lmax=st.integers(0, 4),
       strategy=st.sampled_from(dma.STRATEGIES))
def test_site_tables_do_not_depend_on_primitive_order(basis, lmax, strategy):
    gto, order = basis
    permuted = density.GtoDensity(primitives=[gto.primitives[k] for k in order],
                                  P=gto.P[np.ix_(order, order)])
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0.4, -0.3, 1.6], [1.0, 0.6, 0.5]]),
                        labels=["a", "b", "m"])
    series, _ = dma.run_dma(gto, sites, strategy=strategy, lmax=lmax)
    moved, _ = dma.run_dma(permuted, sites, strategy=strategy, lmax=lmax)
    for a, b in zip(series, moved):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(a.coeffs))


def test_run_dma_all_zero_density_gives_zero_tables():
    gto = _toy_gto()
    zero = density.GtoDensity(primitives=gto.primitives, P=np.zeros_like(gto.P))
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [1.2, 0, 0.5]]), labels=["a", "b"])
    for strategy in ["stone", "vigne_maeder"]:
        series, flags = dma.run_dma(zero, sites, strategy=strategy, lmax=3)
        assert not flags["truncated"]
        for s in series:
            assert s.coeffs.shape == (4, 7) and not np.any(s.coeffs)


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


def test_esp_exact_evaluates_only_owned_primitives(monkeypatch):
    # atom 0 owns the pairs of primitives 0, 1 and 3 (product centres nearer
    # atom 0); atom 1 owns (2, 2), (2, 3) and (3, 3). P[0, 2] = P[1, 2] = 0, so
    # one call needs 3 + 2 primitive evaluations, not 2 x 4.
    positions = np.array([[0, 0, 0], [0, 0, 3.0]])
    prims = [density.PrimitiveGaussian(center=positions[0], l=0, m=0, exponent=1.0),
             density.PrimitiveGaussian(center=positions[0], l=1, m=0, exponent=0.8),
             density.PrimitiveGaussian(center=positions[1], l=0, m=0, exponent=1.2),
             density.PrimitiveGaussian(center=positions[1], l=0, m=0, exponent=0.5)]
    P = np.array([[0.6, 0.1, 0.0, 0.2],
                  [0.1, 0.4, 0.0, 0.05],
                  [0.0, 0.0, 0.7, 0.15],
                  [0.2, 0.05, 0.15, 0.5]])
    gto = density.GtoDensity(primitives=prims, P=P)
    gs = grids.AtomicGridSet(positions, grids.build_radial(40, 10.0), grids.build_angular(26))
    point = np.array([20.0, 5.0, 3.0])
    # reference: each component evaluated over the full basis with masked P
    owner = {(0, 0): 0, (0, 1): 0, (1, 1): 0, (0, 3): 0, (1, 3): 0,
             (2, 2): 1, (2, 3): 1, (3, 3): 1}
    ref = 0.0
    for a in range(2):
        P_a = np.zeros_like(P)
        for (i, j), o in owner.items():
            if o == a:
                P_a[i, j] = P_a[j, i] = P[i, j]
        pts = gs.points_abs(a)
        rho = density.GtoDensity(primitives=prims, P=P_a).eval(pts.reshape(-1, 3))
        ref += grids.integrate_atom(gs, a, rho.reshape(pts.shape[:2])
                                    / np.linalg.norm(pts - point, axis=-1))
    calls = []
    call = density.PrimitiveGaussian.__call__
    monkeypatch.setattr(density.PrimitiveGaussian, "__call__",
                        lambda self, pts: calls.append(self) or call(self, pts))
    v = dma.esp_exact(gto, point, gs)
    assert len(calls) == 5
    assert v == pytest.approx(ref, rel=1e-14)


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


def test_run_dma_reports_phase_times():
    gto = _toy_gto()
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [1.2, 0, 0.5]]), labels=["a", "b"])
    start = time.perf_counter()
    _, flags = dma.run_dma(gto, sites, lmax=3)
    elapsed = time.perf_counter() - start
    phases = flags["phase_s"]
    assert set(phases) == {"pair_table", "natural_multipoles", "redistribution_weights", "m2m"}
    assert all(t >= 0.0 for t in phases.values())
    assert sum(phases.values()) <= elapsed


def _toy_sites_series():
    gto = _toy_gto()
    sites = dma.SiteSet(positions=np.array([[0, 0, 0], [0, 0, 1.8], [1.2, 0, 0.5]]),
                        labels=["a", "b", "c"])
    series, _ = dma.run_dma(gto, sites, lmax=4)
    # sites of different orders, and one in the complex basis
    low, _ = dma.run_dma(gto, sites, lmax=1)
    return gto, [series[0], low[1], series[2].to_basis("complex")]


def test_esp_multipole_batch_equals_point_calls(monkeypatch):
    _, series = _toy_sites_series()
    rng = np.random.default_rng(8)
    points = rng.normal(size=(11, 3)) * 9.0
    batch = dma.esp_multipole(series, points)
    assert batch.shape == (11,)
    single = np.array([dma.esp_multipole(series, p) for p in points])
    assert isinstance(dma.esp_multipole(series, points[0]), float)
    assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))
    # the per-site sum, and blocks of 4 points
    per_site = sum(dma.esp_multipole([s], points) for s in series)
    assert np.allclose(batch, per_site, rtol=1e-13, atol=0.0)
    monkeypatch.setattr(dma, "ESP_BLOCK", 4)
    assert np.all(np.abs(dma.esp_multipole(series, points) - single) <= 1e-14 * np.abs(single))
    with pytest.raises(ValueError, match="coincides"):
        dma.esp_multipole(series, np.vstack([points, [[0, 0, 1.8]]]))


def test_esp_exact_batch_equals_point_calls(monkeypatch):
    # the owned components of test_esp_exact_evaluates_only_owned_primitives:
    # a batch of points samples each of them once, 3 + 2 primitive calls
    positions = np.array([[0, 0, 0], [0, 0, 3.0]])
    prims = [density.PrimitiveGaussian(center=positions[0], l=0, m=0, exponent=1.0),
             density.PrimitiveGaussian(center=positions[0], l=1, m=0, exponent=0.8),
             density.PrimitiveGaussian(center=positions[1], l=0, m=0, exponent=1.2),
             density.PrimitiveGaussian(center=positions[1], l=0, m=0, exponent=0.5)]
    P = np.array([[0.6, 0.1, 0.0, 0.2],
                  [0.1, 0.4, 0.0, 0.05],
                  [0.0, 0.0, 0.7, 0.15],
                  [0.2, 0.05, 0.15, 0.5]])
    gto = density.GtoDensity(primitives=prims, P=P)
    gs = grids.AtomicGridSet(positions, grids.build_radial(40, 10.0), grids.build_angular(26))
    points = np.array([[20.0, 5.0, 3.0], [-14.0, 9.0, 1.0], [0.0, -16.0, -8.0]])
    single = np.array([dma.esp_exact(gto, p, gs) for p in points])
    calls = []
    call = density.PrimitiveGaussian.__call__
    monkeypatch.setattr(density.PrimitiveGaussian, "__call__",
                        lambda self, pts: calls.append(self) or call(self, pts))
    batch = dma.esp_exact(gto, points, gs)
    assert len(calls) == 5
    assert batch.shape == (3,)
    assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))


def test_esp_exact_batch_warns_and_refuses_like_point_calls():
    alpha = 0.8
    prim = density.PrimitiveGaussian(center=(0, 0, 0), l=0, m=0, exponent=alpha / 2)
    gto = density.GtoDensity(primitives=[prim], P=[[1.0]])
    gs = grids.AtomicGridSet(np.zeros((1, 3)), grids.build_radial(100, 10.0),
                             grids.build_angular(50))
    far = np.array([[0.0, 0.0, 30.0], [20.0, -5.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dma.esp_exact(gto, far, gs)
    with pytest.warns(UserWarning, match="penetration"):
        dma.esp_exact(gto, np.vstack([far, [[0.0, 0.0, 1.0]]]), gs)
    axial = grids.AtomicGridSet(np.zeros((1, 3)), grids.build_radial(200, 12.0),
                                grids.build_angular(40, "axial"))
    on_axis = np.array([[0.0, 0.0, -25.0], [0.0, 0.0, 30.0]])
    batch = dma.esp_exact(gto, on_axis, axial)
    assert np.array_equal(batch, [dma.esp_exact(gto, p, axial) for p in on_axis])
    with pytest.raises(ValidationError, match=r"\[15\.0, 0\.0, 20\.0\].*Lebedev"):
        dma.esp_exact(gto, np.vstack([on_axis, [[15.0, 0.0, 20.0]]]), axial)


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


def test_site_set_rejects_empty_and_malformed_positions(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no sites\n\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="site set must be nonempty"):
        dma.load_site_file(empty)
    with pytest.raises(ValidationError, match="must be nonempty"):
        dma.SiteSet(positions=np.zeros((0, 3)), labels=[])
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 2, 3))):
        with pytest.raises(ValidationError, match=r"\(J, 3\) array"):
            dma.SiteSet(positions=bad, labels=["a"])
    for bad in ([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.9]], [[0.0, 0.0, np.inf], [0.0, 0.0, 1.8]]):
        with pytest.raises(ValidationError, match="non-finite position") as err:
            dma.SiteSet(positions=np.array(bad), labels=["a", "b"])
        assert len(err.value.problems) == 1


def test_site_set_names_every_coinciding_pair():
    positions = np.array([[0, 0, 0], [0, 0, 1.8], [0, 0, 0], [0, 0, 1.8 + 1e-12]])
    with pytest.raises(ValidationError) as err:
        dma.SiteSet(positions=positions, labels=list("abcd"))
    assert err.value.problems == ["sites 0 and 2 coincide", "sites 1 and 3 coincide"]
    dma.SiteSet(positions=positions[:2], labels=["a", "b"])
