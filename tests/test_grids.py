import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimpart import density, grids, partition, proatoms
from aimpart.errors import NumericalError


def test_radial_constant_and_cubic_exact():
    g = grids.build_radial(4, 1.0)
    assert np.sum(g.weights) == pytest.approx(1.0, abs=1e-14)
    g2 = grids.build_radial(4, 2.0)
    assert float(g2.weights @ g2.nodes**3) == pytest.approx(4.0, abs=1e-14)


def test_radial_gaussian_normalization():
    # oracle: int_0^inf 4 pi r^2 zeta_alpha dr = 1, truncated at 10/sqrt(alpha)
    alpha = 0.37
    g = grids.build_radial(100, 10.0 / math.sqrt(alpha))
    zeta = (alpha / math.pi) ** 1.5 * np.exp(-alpha * g.nodes**2)
    val = 4 * math.pi * float(g.weights @ (g.nodes**2 * zeta))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_radial_log_variant():
    g = grids.build_radial(80, 9.0, kind="log")
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 9.0
    assert np.sum(g.weights) == pytest.approx(9.0, rel=1e-12)
    # nodes cluster toward the origin
    assert g.nodes[len(g.nodes) // 2] < 4.5
    alpha = 1.1
    zeta = (alpha / math.pi) ** 1.5 * np.exp(-alpha * g.nodes**2)
    val = 4 * math.pi * float(g.weights @ (g.nodes**2 * zeta))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_radial_validation():
    with pytest.raises(ValueError):
        grids.build_radial(1, 5.0)
    with pytest.raises(ValueError):
        grids.build_radial(10, -1.0)
    with pytest.raises(ValueError):
        grids.build_radial(10, 5.0, kind="spline")


def test_angular_means():
    for kind, order in [("lebedev", 6), ("lebedev", 110), ("axial", 20)]:
        ang = grids.build_angular(order, kind)
        one = np.ones(len(ang.weights))
        assert float(one @ ang.weights) == pytest.approx(1.0, abs=1e-13)
        z = ang.points[:, 2]
        assert abs(float(z @ ang.weights)) < 1e-13
        y20ish = 0.5 * (3 * z**2 - 1)
        assert abs(float(y20ish @ ang.weights)) < 1e-13


def test_spherical_average_offcenter_gaussian():
    # oracle: <exp(-a|r sigma - d ez|^2)>_sphere = exp(-a(r^2+d^2)) sinh(2ard)/(2ard)
    a, d, r = 0.8, 0.9, 1.7
    expected = math.exp(-a * (r**2 + d**2)) * math.sinh(2 * a * r * d) / (2 * a * r * d)
    for kind, order in [("lebedev", 194), ("axial", 60)]:
        ang = grids.build_angular(order, kind)
        rel = r * ang.points - np.array([0.0, 0.0, d])
        vals = np.exp(-a * np.sum(rel**2, axis=-1))
        avg = grids.spherical_average(vals, ang)
        assert avg == pytest.approx(expected, rel=1e-10), kind


def test_spherical_average_cross_method():
    a, d = 1.3, 0.4
    lab = grids.build_angular(194)
    ax = grids.build_angular(80, "axial")
    for r in [0.5, 1.0, 2.5]:
        vals_l = np.exp(-a * np.sum((r * lab.points - [0, 0, d]) ** 2, axis=-1))
        vals_a = np.exp(-a * np.sum((r * ax.points - [0, 0, d]) ** 2, axis=-1))
        assert grids.spherical_average(vals_l, lab) == pytest.approx(
            grids.spherical_average(vals_a, ax), abs=1e-10)


def test_spherical_average_linearity():
    rng = np.random.default_rng(3)
    ang = grids.build_angular(50)
    f = rng.normal(size=50)
    g = rng.normal(size=50)
    lhs = grids.spherical_average(2.5 * f + 0.3 * g, ang)
    rhs = 2.5 * grids.spherical_average(f, ang) + 0.3 * grids.spherical_average(g, ang)
    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_spherical_average_shape_mismatch():
    ang = grids.build_angular(26)
    with pytest.raises(ValueError):
        grids.spherical_average(np.ones(25), ang)


def test_integrate_atom_gaussian_charge():
    alpha = 0.6
    gs = grids.AtomicGridSet(np.zeros((1, 3)),
                             grids.build_radial(150, 14.0),
                             grids.build_angular(74))
    pts = gs.points_abs(0)
    vals = (alpha / math.pi) ** 1.5 * np.exp(-alpha * np.sum(pts**2, axis=-1))
    assert grids.integrate_atom(gs, 0, vals) == pytest.approx(1.0, abs=1e-8)
    assert grids.integrate_atom(gs, 0, np.zeros_like(vals)) == 0.0
    with pytest.raises(ValueError):
        grids.integrate_atom(gs, 0, vals[:, :-1])


@pytest.mark.parametrize("atom, bad", [(1, np.inf), (1, np.nan), (0, 1e308)],
                         ids=["inf", "nan", "charge-overflows"])
def test_sample_density_refuses_non_finite_data_naming_the_atom(atom, bad):
    # one bad sample on the given atom's grid, or samples of 1e308 everywhere,
    # whose finite values integrate past the largest double
    gs = grids.AtomicGridSet(np.array([[0.0, 0, 0], [0, 0, 2.0]]), grids.build_radial(30, 10.0),
                             grids.build_angular(26))
    calls = []

    def rho(pts):
        calls.append(None)
        vals = np.exp(-np.sum(pts**2, axis=1))
        if bad == 1e308:
            vals[:] = bad
        elif len(calls) == atom + 1:
            vals[5] = bad
        return vals

    with pytest.raises(NumericalError, match=f"on the grid of atom {atom} has non-finite"):
        gs.sample_density(rho)
    assert gs.samples is None


def test_appendix_density_stockholder_total(appendix_density, diatomic_grids):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=300, ns=120)
    gs.sample_density(rho.eval)
    w = proatoms.GaussianExpansion(exponents=(0.3,), coefficients=[1.0])
    shares, _ = partition.StockholderEngine(gs).allocate([w, w])
    total = sum(grids.integrate_atom(gs, a, shares[a]) for a in range(2))
    assert total == pytest.approx(2.0, abs=1e-6)


def test_interpolate_radial_rules():
    nodes = np.array([1.0, 2.0, 4.0])
    values = np.array([3.0, 5.0, 1.0])
    f = lambda r: grids.interpolate_radial(nodes, values, r, rmax=6.0)
    assert f(2.0) == pytest.approx(5.0)              # node is exact
    assert f(1.5) == pytest.approx(4.0)              # midpoint mean
    assert f(0.2) == pytest.approx(3.0)              # constant below first node
    assert f(7.0) == 0.0                             # zero beyond rmax
    assert f(5.0) == pytest.approx(0.5)              # linear decay to zero at rmax
    arr = f(np.array([2.0, 7.0]))
    assert arr[0] == pytest.approx(5.0) and arr[1] == 0.0


def _interp_oracle(nodes, values, r, rmax):
    """The tail rule through np.interp: rmax appended with value 0."""
    if rmax > nodes[-1]:
        nodes, values = np.append(nodes, rmax), np.append(values, 0.0)
    return np.interp(r, nodes, values, left=values[0], right=0.0)


@st.composite
def _radial_tables(draw):
    n = draw(st.integers(1, 12))
    steps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    nodes = np.cumsum(steps)
    values = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)))
    # a zero gap puts rmax on the last node
    rmax = nodes[-1] + draw(st.one_of(st.just(0.0), st.floats(1e-3, 4.0)))
    free = draw(st.lists(st.floats(0.0, 2.0 * rmax), max_size=20))
    # below the first node, on every node, between the last node and rmax,
    # at rmax and beyond it
    r = np.concatenate([free, [0.0, 0.5 * nodes[0]], nodes,
                        [0.5 * (nodes[-1] + rmax), rmax, rmax * (1.0 + 1e-12), 2.0 * rmax]])
    return nodes, values, r, rmax


@settings(max_examples=300, deadline=None)
@given(_radial_tables())
def test_radial_stencil_is_np_interp_bitwise(table):
    nodes, values, r, rmax = table
    expected = _interp_oracle(nodes, values, r, rmax)
    got = grids.interpolate_radial(nodes, values, r, rmax)
    assert got.tobytes() == expected.tobytes()
    stencil = grids.RadialStencil(nodes, r.reshape(-1, 1), rmax)
    assert stencil(values).tobytes() == expected.reshape(-1, 1).tobytes()
    # one stencil reads any table on the same nodes
    other = _interp_oracle(nodes, values[::-1], r, rmax)
    assert stencil(values[::-1]).ravel().tobytes() == other.tobytes()


def test_radial_grid_stores_arrays_and_checks_weights():
    g = grids.RadialGrid(nodes=[0.5, 1.0, 1.5], weights=[0.5, 0.5, 0.5], rmax=2.0)
    assert isinstance(g.nodes, np.ndarray) and g.nodes.dtype == float
    assert isinstance(g.weights, np.ndarray) and g.weights.dtype == float
    with pytest.raises(ValueError, match="2 radial weights for 3 nodes"):
        grids.RadialGrid(nodes=[0.5, 1.0, 1.5], weights=[0.5, 0.5], rmax=2.0)
    with pytest.raises(ValueError, match="finite"):
        grids.RadialGrid(nodes=[0.5, 1.0, 1.5], weights=[0.5, np.nan, 0.5], rmax=2.0)
    with pytest.raises(ValueError, match="finite"):
        grids.RadialGrid(nodes=[0.5, np.inf, 1.5], weights=[0.5, 0.5, 0.5], rmax=2.0)


def test_gridset_stencil_cache(appendix_density, diatomic_grids):
    _, positions = appendix_density
    gs = diatomic_grids(positions, nr=50, ns=26, angular="lebedev")
    nodes = gs.radial[1].nodes
    s01 = gs.stencil(0, 1, nodes, 15.0)
    assert gs.stencil(0, 1, nodes, 15.0) is s01                # same node array
    assert gs.stencil(0, 1, nodes.copy(), 15.0) is s01         # equal nodes
    assert gs.stencil(0, 1, nodes, 16.0) is not s01            # another rmax
    values = np.exp(-nodes)
    np.testing.assert_array_equal(gs.stencil(0, 1, nodes, 15.0)(values),
                                  _interp_oracle(nodes, values, gs.distances(0, 1), 15.0))
    own = gs.stencil(0, 0, gs.radial[0].nodes, 15.0)(values)
    np.testing.assert_array_equal(own, values[:, None])      # own nodes: the table itself


def test_gridset_distance_cache(appendix_density, diatomic_grids):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=50, ns=26, angular="lebedev")
    d01 = gs.distances(0, 1)
    pts = gs.points_abs(0)
    direct = np.linalg.norm(pts - positions[1], axis=-1)
    assert np.allclose(d01, direct, atol=1e-13)
    d00 = gs.distances(0, 0)
    assert np.allclose(d00, np.broadcast_to(gs.radial[0].nodes[:, None], d00.shape))
