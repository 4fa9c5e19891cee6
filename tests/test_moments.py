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


# ---------------------------------------------------------------------------
# Test-only reference: solid harmonics as monomial-coefficient dicts
# {(i, j, k): c} for x^i y^j z^k, built from the explicit (x +- iy) expansion
# rather than the recurrence the library uses.
# ---------------------------------------------------------------------------

def _poly_product(pa, pb):
    out = {}
    for (i1, j1, k1), c1 in pa.items():
        for (i2, j2, k2), c2 in pb.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _complex_poly(l, m):
    """|r|^l Y(l,m) with complex Condon-Shortley Y, for m >= 0:
    norm * sum_k (-(x+iy)/2)^(m+k) ((x-iy)/2)^k z^(l-m-2k) / ((m+k)! k! (l-m-2k)!)."""
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi) * math.factorial(l + m)
                     * math.factorial(l - m))
    plus = {(1, 0, 0): -0.5, (0, 1, 0): -0.5j}
    minus = {(1, 0, 0): 0.5, (0, 1, 0): -0.5j}
    poly = {}
    for k in range((l - m) // 2 + 1):
        term = {(0, 0, l - m - 2 * k): norm / (math.factorial(m + k) * math.factorial(k)
                                              * math.factorial(l - m - 2 * k))}
        for _ in range(m + k):
            term = _poly_product(term, plus)
        for _ in range(k):
            term = _poly_product(term, minus)
        for key, v in term.items():
            poly[key] = poly.get(key, 0.0) + v
    return poly


def _reference_poly(l, m, basis):
    """Monomial dict of R(l,m) in the real or the complex basis."""
    cp = _complex_poly(l, abs(m))
    if basis == "complex":
        # Y(l,-m) = (-1)^m conj(Y(l,m)) for real arguments
        return cp if m >= 0 else {k: (-1) ** m * np.conj(v) for k, v in cp.items()}
    if m == 0:
        return {k: v.real for k, v in cp.items()}
    # real combinations without the Condon-Shortley phase
    sign = (-1) ** abs(m)
    if m > 0:
        return {k: math.sqrt(2.0) * sign * v.real for k, v in cp.items()}
    return {k: math.sqrt(2.0) * sign * v.imag for k, v in cp.items()}


def _poly_eval(poly, pts):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    val = np.zeros(pts.shape[:-1], dtype=complex if any(
        isinstance(c, complex) for c in poly.values()) else float)
    for (i, j, k), c in poly.items():
        val = val + c * x**i * y**j * z**k
    return val


_AXES = [(0.0, 0.0, 0.0), (1.7, 0.0, 0.0), (0.0, -2.3, 0.0), (0.0, 0.0, 3.1)]


@settings(deadline=None)
@given(points=st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * 3), min_size=1, max_size=8))
@example(points=_AXES)
@example(points=[(0.0, 0.0, 0.0)])
@example(points=[(1.7e-54, 1.7e-54, 0.0)])
def test_solid_harmonics_match_monomial_reference(points):
    pts = np.array(points, dtype=float)
    table = moments.solid_harmonics(6, pts)
    assert table.shape == (7, 13, len(points))
    for l in range(7):
        refs = {m: _poly_eval(_reference_poly(l, m, "real"), pts) for m in range(-l, l + 1)}
        # sum_m R(l,m)^2 = (2l+1)/(4 pi) |r|^(2l) > 0 away from the origin, so
        # the bound is relative per point and degree. It gains the smallest
        # normal double: near |r| = 1e-54 the degree-6 values are subnormal and
        # carry no relative precision in either evaluation.
        bound = 1e-13 * np.max(np.abs(np.stack(list(refs.values()))), axis=0) \
            + np.finfo(float).tiny
        for m, ref in refs.items():
            single = moments.real_solid_harmonic((l, m), pts)
            assert np.all(np.abs(single - ref) <= bound)
            assert np.all(np.abs(table[l, m] - ref) <= bound)
            # the table and the single column agree to the last bit
            assert np.array_equal(table[l, m], single)
            cplx = moments.complex_solid_harmonic((l, m), pts)
            cref = _poly_eval(_reference_poly(l, m, "complex"), pts)
            assert np.all(np.abs(cplx - cref) <= bound)
        # entries with |m| > l are exact zeros
        assert not np.any(table[l, l + 1:13 - l])


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
    # trailing axes hold independent tables: a stack transforms slice by slice
    stack = np.dstack([block] + [rng.normal(size=block.shape) * inside for _ in range(2)])
    for direction in ("real_to_complex", "complex_to_real"):
        out = moments.complex_real_transform(stack, direction)
        per_slice = [moments.complex_real_transform(stack[..., k], direction) for k in range(3)]
        assert np.array_equal(out, np.dstack(per_slice))
        stack = out


def test_m0_pure_real_block_unchanged():
    block = np.array([[1.5 + 0j, 0j, 0j], [-0.7 + 0j, 0j, 0j]])
    real = moments.complex_real_transform(block, "complex_to_real")
    assert real[(0, 0)] == pytest.approx(1.5)
    assert real[(1, 0)] == pytest.approx(-0.7)


def test_incomplete_block_rejected():
    # lmax 1 needs 3 columns (m = 0, 1, -1)
    with pytest.raises(ValueError, match="incomplete block"):
        moments.complex_real_transform(np.zeros((2, 2)), "real_to_complex")
    with pytest.raises(ValueError, match="incomplete block"):
        moments.complex_real_transform(np.zeros((2, 2, 4)), "real_to_complex")
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
