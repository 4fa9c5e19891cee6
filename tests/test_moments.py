import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimpart import grids, moments


def test_l0_is_constant():
    pts = np.random.default_rng(0).normal(size=(20, 3))
    vals = moments.real_solid_harmonic((0, 0), pts)
    assert np.allclose(vals, 1.0 / math.sqrt(4 * math.pi))
    # finite at the origin
    assert moments.real_solid_harmonic((0, 0), np.zeros(3)) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi))
    assert moments.real_solid_harmonic((2, 1), np.zeros(3)) == 0.0


def test_l1_z_aligned():
    val = moments.real_solid_harmonic((1, 0), np.array([0.0, 0.0, 2.0]))
    assert val == pytest.approx(2.0 * math.sqrt(3.0 / (4 * math.pi)), rel=1e-14)


def test_orthonormality_on_lebedev_grid():
    angular = grids.build_angular(194)
    lmax = 5
    for l1 in range(lmax + 1):
        for m1 in range(-l1, l1 + 1):
            y1 = moments.real_solid_harmonic((l1, m1), angular.points)
            for l2 in range(l1, lmax + 1):
                for m2 in range(-l2, l2 + 1):
                    y2 = moments.real_solid_harmonic((l2, m2), angular.points)
                    mean = float((y1 * y2) @ angular.weights)
                    expected = (1.0 / (4 * math.pi)) if (l1, m1) == (l2, m2) else 0.0
                    assert abs(mean - expected) < 1e-12


def test_complex_harmonics_match_real_combinations():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 3))
    for l in range(5):
        y0c = moments.complex_solid_harmonic((l, 0), pts)
        assert np.max(np.abs(y0c.imag)) < 1e-13
        for m in range(1, l + 1):
            yc = moments.complex_solid_harmonic((l, m), pts)
            yr_p = moments.real_solid_harmonic((l, m), pts)
            yr_m = moments.real_solid_harmonic((l, -m), pts)
            assert np.allclose(yr_p, (-1) ** m * math.sqrt(2) * yc.real, atol=1e-12)
            assert np.allclose(yr_m, (-1) ** m * math.sqrt(2) * yc.imag, atol=1e-12)
            # Condon-Shortley conjugation rule
            ym = moments.complex_solid_harmonic((l, -m), pts)
            assert np.allclose(ym, (-1) ** m * np.conj(yc), atol=1e-12)


@settings(deadline=None)
@given(lmax=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(lmax=4, seed=2)
def test_complex_real_roundtrip_is_identity(lmax, seed):
    rng = np.random.default_rng(seed)
    block = np.zeros((lmax + 1, 2 * lmax + 1))
    inside = np.zeros(block.shape, dtype=bool)
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            block[l, m] = rng.normal()
            inside[l, m] = True
    cplx = moments.complex_real_transform(block, "real_to_complex")
    back = moments.complex_real_transform(cplx, "complex_to_real")
    assert cplx.dtype == complex and back.dtype == float
    # entries with |m| > l stay exact zeros in both bases
    assert not np.any(cplx[~inside]) and not np.any(back[~inside])
    worst = np.max(np.abs(back - block))
    assert worst < 1e-14


def test_m0_pure_real_block_unchanged():
    block = np.array([[1.5 + 0j, 0j, 0j], [-0.7 + 0j, 0j, 0j]])
    real = moments.complex_real_transform(block, "complex_to_real")
    assert real[(0, 0)] == pytest.approx(1.5)
    assert real[(1, 0)] == pytest.approx(-0.7)


def test_incomplete_block_rejected():
    # lmax 1 needs 3 columns (m = 0, 1, -1)
    with pytest.raises(ValueError, match="incomplete block"):
        moments.complex_real_transform(np.zeros((2, 2)), "real_to_complex")
    with pytest.raises(ValueError, match="needs a real table"):
        moments.complex_real_transform(np.zeros((2, 3), dtype=complex), "real_to_complex")


def test_point_charge_q10_complex_real_agree():
    # direct integral oracle: point charge q at (0, 0, d)
    q, d = 1.3, 0.8
    loc = np.array([0.0, 0.0, d])
    k1 = moments.multipole_norm(1)
    q10_real = k1 * q * float(moments.real_solid_harmonic((1, 0), loc))
    q10_cplx = k1 * q * complex(moments.complex_solid_harmonic((1, 0), loc))
    assert q10_real == pytest.approx(q * d, rel=1e-14)
    assert q10_cplx.real == pytest.approx(q10_real, rel=1e-14)
    assert abs(q10_cplx.imag) < 1e-15


def _single_atom_grid(nr=200, rmax=14.0, order=110):
    return grids.AtomicGridSet(np.zeros((1, 3)),
                               grids.build_radial(nr, rmax),
                               grids.build_angular(order))


def test_atomic_moments_of_normalized_gaussian():
    # oracle: int x^2 zeta_alpha = 1/(2 alpha)
    alpha = 0.9
    gs = _single_atom_grid()
    pts = gs.points_abs(0)
    vals = (alpha / math.pi) ** 1.5 * np.exp(-alpha * np.sum(pts**2, axis=-1))
    mom = moments.atomic_moments(vals, gs, 0)
    assert mom.q == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(mom.p)) < 1e-12
    assert np.allclose(mom.Q, np.eye(3) / (2 * alpha), atol=1e-10)


def test_atomic_moments_mirror_symmetry():
    gs = _single_atom_grid()
    pts = gs.points_rel(0)
    vals = np.exp(-0.7 * np.sum(pts**2, axis=-1)) * (1.0 + pts[..., 2] ** 2)
    mom = moments.atomic_moments(vals, gs, 0)
    assert abs(mom.p[2]) < 1e-10


def test_atomic_moments_axial_grid_offcenter():
    # off-center density on an axial grid: p_z equals the offset times charge
    gs = grids.AtomicGridSet(np.zeros((1, 3)),
                             grids.build_radial(300, 16.0),
                             grids.build_angular(120, "axial"))
    d, alpha = 0.6, 1.1
    pts = gs.points_rel(0)
    rel = pts - np.array([0.0, 0.0, d])
    vals = (alpha / math.pi) ** 1.5 * np.exp(-alpha * np.sum(rel**2, axis=-1))
    mom = moments.atomic_moments(vals, gs, 0)
    assert mom.q == pytest.approx(1.0, abs=1e-9)
    assert mom.p[2] == pytest.approx(d, abs=1e-9)
    assert mom.p[0] == mom.p[1] == 0.0
    # second moment: Q_zz = 1/(2a) + d^2, Q_xx = Q_yy = 1/(2a)
    assert mom.Q[2, 2] == pytest.approx(1.0 / (2 * alpha) + d**2, abs=1e-9)
    assert mom.Q[0, 0] == pytest.approx(1.0 / (2 * alpha), abs=1e-9)


def test_translation_consistency():
    gs = _single_atom_grid()
    pts = gs.points_rel(0)
    vals = np.exp(-0.5 * np.sum(pts**2, axis=-1)) * (1 + 0.3 * pts[..., 0])
    mom = moments.atomic_moments(vals, gs, 0)
    d = np.array([0.2, -0.4, 0.7])
    shifted = mom.shifted(d)
    assert shifted.q == pytest.approx(mom.q, rel=1e-14)
    assert np.allclose(shifted.p, mom.p - d * mom.q, atol=1e-13)
    # direct quadrature about the shifted origin agrees
    rel = pts - d
    wr = 4 * math.pi * gs.radial[0].weights * gs.radial[0].nodes**2
    eta = gs.angular[0].weights
    p_direct = np.array([float(wr @ ((vals * rel[..., i]) @ eta)) for i in range(3)])
    assert np.allclose(shifted.p, p_direct, atol=1e-10)


def test_spherical_cartesian_second_moment_consistency():
    # spherical Q20 under the K(l) normalization equals (3 Qzz - tr Q)/2
    gs = _single_atom_grid(nr=250, order=146)
    pts = gs.points_rel(0)
    vals = np.exp(-0.6 * np.sum(pts**2, axis=-1)) * (1 + 0.2 * pts[..., 2] ** 2)
    mom = moments.atomic_moments(vals, gs, 0)
    wr = 4 * math.pi * gs.radial[0].weights * gs.radial[0].nodes**2
    eta = gs.angular[0].weights
    y20 = moments.real_solid_harmonic((2, 0), pts)
    q20 = moments.multipole_norm(2) * float(wr @ ((vals * y20) @ eta))
    expected = 0.5 * (3 * mom.Q[2, 2] - np.trace(mom.Q))
    assert q20 == pytest.approx(expected, rel=1e-10)
    theta = moments.traceless_quadrupole(mom.Q)
    assert theta[2, 2] == pytest.approx(expected, rel=1e-10)
    assert abs(np.trace(theta)) < 1e-10
