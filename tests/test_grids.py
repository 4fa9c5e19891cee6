import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aimpart import density, grids, lebedev, partition, proatoms
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


@pytest.mark.parametrize("points, weights, kind, match", [
    ([[0, 0, 1], [0, 0, np.nan]], [0.5, 0.5], "axial", "finite"),
    ([[0, 0, 1], [0, 0, -1]], [0.5, np.nan], "axial", "finite"),
    ([[0, 0, 1], [0, 0, -1]], [0.5, 0.25, 0.25], "axial", r"weights of shape \(3,\) for 2"),
    ([[0, 0, 1], [0, 0, -1]], [[0.5, 0.5]], "axial", r"weights of shape \(1, 2\) for 2"),
    ([[0, 1], [1, 0]], [0.5, 0.5], "axial", r"\(n, 3\) array, got shape \(2, 2\)"),
    ([[0, 0, 1], [0, 0, -1]], [0.5, 0.5], "spiral", "unknown angular kind 'spiral'"),
], ids=["nan-point", "nan-weight", "extra-weight", "weights-2d", "points-2d", "kind"])
def test_angular_grid_refuses_malformed_data(points, weights, kind, match):
    with pytest.raises(ValueError, match=match):
        grids.AngularGrid(points=points, weights=weights, kind=kind)


def test_angular_grid_stores_float_arrays():
    g = grids.AngularGrid(points=[[0, 0, 1], [0, 0, -1]], weights=[0.5, 0.5], kind="axial")
    assert isinstance(g.points, np.ndarray) and g.points.dtype == float
    assert isinstance(g.weights, np.ndarray) and g.weights.dtype == float


@settings(max_examples=300, deadline=None)
@given(_radial_tables())
def test_table_read_at_its_own_nodes_is_np_interp_bitwise(table):
    nodes, values, _, rmax = table
    tab = proatoms.TabulatedProfile(nodes=nodes, values=values, rmax=rmax)
    got = tab.profile(tab.nodes)
    assert got.tobytes() == _interp_oracle(nodes, values, nodes, rmax).tobytes()
    assert got is not tab.values   # a copy: writing it leaves the table alone


def test_gridset_stencil_cache(appendix_density, diatomic_grids):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=50, ns=26, angular="lebedev")
    nodes = gs.radial[1].nodes
    s01 = gs.stencil(0, 1, nodes, 15.0)
    assert gs.stencil(0, 1, nodes, 15.0) is s01                # same node array
    assert gs.stencil(0, 1, nodes.copy(), 15.0) is s01         # equal nodes
    assert gs.stencil(0, 1, nodes, 16.0) is not s01            # another rmax
    values = np.exp(-nodes)
    expected = _interp_oracle(nodes, values, gs.distances(0, 1), 15.0)
    np.testing.assert_array_equal(gs.stencil(0, 1, nodes, 15.0)(values), expected)
    # on the folded set the stencil reads atom 0's distinct columns; expanded, the full table
    fold, inverse = gs.sample_density(rho.eval).folded()
    assert fold is not gs
    np.testing.assert_array_equal(np.take(fold.stencil(0, 1, nodes, 15.0)(values), inverse[0],
                                          axis=1), expected)
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


def _rotation(alpha, beta, gamma):
    """Rz(alpha) Ry(beta) Rz(gamma)."""
    def rz(t):
        return np.array([[math.cos(t), -math.sin(t), 0.0], [math.sin(t), math.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])
    ry = np.array([[math.cos(beta), 0.0, math.sin(beta)], [0.0, 1.0, 0.0],
                   [-math.sin(beta), 0.0, math.cos(beta)]])
    return rz(alpha) @ ry @ rz(gamma)


# angles in general position: no mirror plane of a Lebedev grid survives
GENERIC_ROTATION = _rotation(0.3, 0.7, 1.1)


@st.composite
def _fold_layouts(draw):
    """2-4 atoms in a coordinate plane, on a coordinate axis, or in a plane
    under a generic rotation, with a Lebedev grid of 26 to 110 points."""
    layout = draw(st.sampled_from(["plane", "axis", "rotated"]))
    n = draw(st.integers(2, 4))
    coordinate = st.floats(-3.0, 3.0)
    positions = np.array(draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                                       min_size=n, max_size=n)))
    axis = draw(st.integers(0, 2))
    if layout == "axis":
        positions[:, np.arange(3) != axis] = 0.0
    else:
        positions[:, axis] = 0.0
    gaps = np.linalg.norm(positions[:, None] - positions[None], axis=-1)
    assume(np.all(gaps[np.triu_indices(n, 1)] > 0.3))
    if layout == "rotated":
        positions = positions @ GENERIC_ROTATION.T
    order = draw(st.sampled_from([n for n in lebedev.available_orders() if 26 <= n <= 110]))
    return layout, positions, order


def _sampled_layout(positions, order):
    """The layout on Lebedev grids, sampled from one Slater term per atom."""
    gs = grids.AtomicGridSet(positions, grids.build_radial(6, 8.0, "log"),
                             grids.build_angular(order))
    rho = density.AnalyticDensity(terms=[("slater_s", p, 1.0 + 0.5 * a, 1.0)
                                         for a, p in enumerate(positions)])
    return gs.sample_density(rho.eval), rho


def _partition(inverse):
    """The sets of columns an inverse map folds together."""
    return {frozenset(np.flatnonzero(inverse == u).tolist()) for u in range(inverse.max() + 1)}


@settings(max_examples=60, deadline=None)
@given(_fold_layouts())
def test_fold_expands_to_the_distance_tables_bitwise(case):
    layout, positions, order = case
    gs, _ = _sampled_layout(positions, order)
    fold, inverse = gs.folded()
    assert gs.folded()[0] is fold   # cached
    # a mirror plane of the grid holds every atom unless the set is rotated
    if layout == "rotated":
        assert fold is gs and inverse is None
        return
    for a in range(gs.natom):
        columns = np.unique(inverse[a], return_index=True)[1]
        assert columns.size == fold.angular[a].weights.size < order
        assert np.array_equal(fold.angular[a].points, gs.angular[a].points[columns])
        # each folded weight is the sum of its set's weights, in column order
        expected = [sum(gs.angular[a].weights[inverse[a] == u].tolist())
                    for u in range(columns.size)]
        assert fold.angular[a].weights.tolist() == expected
        tables = [(fold.samples[a], gs.samples[a])]
        tables += [(fold.distances(a, b), gs.distances(a, b)) for b in range(gs.natom) if b != a]
        for folded, full in tables:
            assert folded.flags.c_contiguous
            expanded = np.take(folded, inverse[a], axis=1)
            assert expanded.shape == full.shape and expanded.tobytes() == full.tobytes()


def test_fold_keys_one_radial_row_where_no_column_repeats(monkeypatch):
    # an axial grid on the z axis: every column differs from every other on
    # the outermost row, so no whole column is keyed
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    gs = grids.AtomicGridSet(positions, grids.build_radial(40, 10.0),
                             grids.build_angular(30, "axial"))
    gs.sample_density(density.AnalyticDensity(
        terms=[("slater_s", p, 1.0, 1.0) for p in positions]).eval)
    keyed = []
    column_keys = grids._column_keys

    def recorded(arrays, columns=None):
        keyed.append([np.shape(x) for x in arrays])
        return column_keys(arrays, columns)

    monkeypatch.setattr(grids, "_column_keys", recorded)
    assert gs.folded() == (gs, None)
    assert keyed == [[(30,), (30,)]] * gs.natom   # one row per atom: a cross table, samples


@settings(max_examples=30, deadline=None)
@given(_fold_layouts(), st.data())
def test_fold_splits_exactly_the_set_of_a_sample_moved_by_one_ulp(case, data):
    layout, positions, order = case
    assume(layout != "rotated")
    gs, rho = _sampled_layout(positions, order)
    fold, inverse = gs.folded()
    atom = data.draw(st.integers(0, gs.natom - 1))
    repeated = np.flatnonzero(np.bincount(inverse[atom])[inverse[atom]] > 1)
    column = data.draw(st.sampled_from(repeated.tolist()))
    row = data.draw(st.integers(0, gs.radial[atom].nodes.size - 1))
    calls = []

    def nudged(pts):
        vals = rho.eval(pts)
        calls.append(None)
        if len(calls) == atom + 1:
            index = row * order + column
            vals[index] = np.nextafter(vals[index], math.inf)
        return vals

    gs.sample_density(nudged)   # resets the fold
    refold, reinverse = gs.folded()
    assert refold is not fold
    for a in range(gs.natom):
        before, after = _partition(inverse[a]), _partition(reinverse[a])
        if a != atom:
            assert after == before
            continue
        split = next(s for s in before if column in s)
        assert after == before - {split} | {split - {column}, frozenset([column])}


def test_radial_grid_volume_is_the_integration_weight():
    g = grids.build_radial(40, 9.0, "log")
    expected = 4.0 * math.pi * g.weights * g.nodes**2
    assert g.volume.tobytes() == expected.tobytes()
    f = np.exp(-g.nodes)
    assert grids.integrate_radial(g, f) == float(expected @ f)


@pytest.mark.parametrize("rmax", [1e-320, 1e308], ids=["underflow", "overflow"])
def test_radial_grid_refuses_volume_weights_out_of_range(rmax):
    # the check itself raises no RuntimeWarning (pytest makes those errors)
    with pytest.raises(ValueError, match=r"radial volume weights .* finite and not all zero"):
        grids.build_radial(40, rmax)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 64, 201, 1000])
def test_gauss_legendre_rule(n):
    x, w = grids._gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0)
    if n % 2:
        assert x[n // 2] == 0.0 and math.copysign(1.0, x[n // 2]) == 1.0
    assert abs(w.sum() - 2.0) <= 1e-14
    if n <= 20:
        # exact for every degree up to 2n - 1; int_-1^1 x^k is 0 for odd k
        for k in range(2 * n):
            assert abs(w @ x**k - (1 - k % 2) * 2.0 / (k + 1)) <= 1e-14, k
    if n >= 7:
        assert abs(w @ np.exp(x) - (math.e - 1 / math.e)) <= 4e-15
