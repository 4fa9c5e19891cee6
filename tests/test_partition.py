import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimpart import density, grids, partition, proatoms, solvers
from aimpart.errors import EntropyIncreaseError, ValidationError


def _single_atom(nr=200, rmax=14.0, order=110):
    return grids.AtomicGridSet(np.zeros((1, 3)),
                               grids.build_radial(nr, rmax),
                               grids.build_angular(order))


# ---------------------------------------------------------------------------
# stockholder allocation
# ---------------------------------------------------------------------------

def test_single_atom_allocation_is_identity():
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.8, 2.0)])
    gs = _single_atom()
    gs.sample_density(rho.eval)
    pro = proatoms.SlaterShells(exponents=(2.0,), coefficients=[1.0])
    shares, lost = partition.StockholderEngine(gs).allocate([pro])
    assert np.allclose(shares[0], gs.samples[0], atol=1e-15)
    assert lost == 0.0


def test_promolecule_equals_molecule_identity(appendix_density, diatomic_grids):
    # rho = sum of pro-atoms -> each share reproduces its pro-atom exactly
    _, positions = appendix_density
    w1 = proatoms.GaussianExpansion(exponents=(0.1,), coefficients=[1.0])
    w2 = proatoms.GaussianExpansion(exponents=(0.5,), coefficients=[1.0])
    rho = density.AnalyticDensity(terms=[
        ("gaussian_s", positions[0], 0.1, 1.0),
        ("gaussian_s", positions[1], 0.5, 1.0)])
    gs = diatomic_grids(positions, nr=200, ns=80)
    gs.sample_density(rho.eval)
    shares, _ = partition.StockholderEngine(gs).allocate([w1, w2])
    for a, model in enumerate([w1, w2]):
        expected = np.broadcast_to(model.profile(gs.radial[a].nodes)[:, None],
                                   shares[a].shape)
        assert np.max(np.abs(shares[a] - expected)) < 1e-13


def test_symmetric_split(diatomic_grids):
    positions = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    rho = density.AnalyticDensity(terms=[
        ("gaussian_s", positions[0], 0.9, 1.0),
        ("gaussian_s", positions[1], 0.9, 1.0)])
    gs = diatomic_grids(positions, nr=200, ns=80)
    gs.sample_density(rho.eval)
    pro = proatoms.GaussianExpansion(exponents=(0.9,), coefficients=[1.0])
    shares, _ = partition.StockholderEngine(gs).allocate([pro, pro])
    n1 = grids.integrate_atom(gs, 0, shares[0])
    n2 = grids.integrate_atom(gs, 1, shares[1])
    assert abs(n1 - n2) < 1e-10
    assert n1 == pytest.approx(1.0, abs=1e-8)


def test_convention_zero_allocation_counted(diatomic_grids):
    # pro-atoms supported only inside r <= 1: density beyond is lost charge
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    rho = density.AnalyticDensity(terms=[
        ("gaussian_s", positions[0], 0.5, 1.0),
        ("gaussian_s", positions[1], 0.5, 1.0)])
    gs = diatomic_grids(positions, nr=150, ns=60, rmax=10.0)
    gs.sample_density(rho.eval)
    nodes = np.linspace(0.01, 1.0, 30)
    tab = proatoms.TabulatedProfile(nodes=nodes, values=np.ones(30), rmax=1.0)
    shares, lost = partition.StockholderEngine(gs).allocate([tab, tab])
    assert lost > 0.1  # a visible fraction of the density sits outside both balls
    total = sum(grids.integrate_atom(gs, a, shares[a]) for a in range(2))
    assert total == pytest.approx(2.0 - lost, abs=0.05)


def _bent3(nr=80, order=50):
    """A non-axial 3-atom molecule on Lebedev grids, with its density sampled."""
    positions = np.array([[0.0, 0.0, 0.0], [1.43, 0.0, 1.11], [-1.43, 0.0, 1.11]])
    rho = density.AnalyticDensity(terms=[("slater_s", positions[0], 3.0, 6.0),
                                         ("gaussian_s", positions[0], 1.0, 2.0),
                                         ("slater_s", positions[1], 2.0, 1.0),
                                         ("slater_s", positions[2], 2.2, 1.0)])
    gs = grids.AtomicGridSet(positions, grids.build_radial(nr, 10.0, "log"),
                             grids.build_angular(order))
    gs.sample_density(rho.eval)
    return rho, gs


def _bent3_models(kind, gs):
    if kind == "tabulated":
        return [proatoms.synthetic_proatom_table(z, z, gs.radial[0].nodes, 10.0)
                for z in (3, 1, 1)]
    if kind == "tabulated-foreign":
        # tables on their own nodes, rmax on the last one (as read from files),
        # reaching past every grid distance
        nodes = np.linspace(0.02, 14.0, 90)
        return [proatoms.synthetic_proatom_table(z, z, nodes, 14.0) for z in (3, 1, 1)]
    if kind == "convention-zero":
        # supported only inside r <= 1: the pro-molecule vanishes far from the atoms
        nodes = np.linspace(0.01, 1.0, 30)
        return [proatoms.TabulatedProfile(nodes=nodes, values=np.ones(30), rmax=1.0)] * 3
    cls = proatoms.GaussianExpansion if kind == "gaussian" else proatoms.SlaterShells
    return [cls(exponents=(0.5, 2.0, 8.0), coefficients=[3.0, 4.0, 1.0]),
            cls(exponents=(0.4, 1.5), coefficients=[0.3, 0.7]),
            cls(exponents=(0.6, 1.8), coefficients=[0.5, 0.6])]


@pytest.mark.parametrize("kind", ["tabulated", "tabulated-foreign", "gaussian", "slater"])
def test_allocate_matches_full_grid_evaluation(kind):
    # oracle: every pro-atom, the atom's own included, on the full distance table
    _, gs = _bent3()
    models = _bent3_models(kind, gs)
    shares, lost = partition.StockholderEngine(gs).allocate(models)
    for a in range(gs.natom):
        terms = [model.profile(gs.distances(a, b)) for b, model in enumerate(models)]
        denom = sum(terms)
        assert np.all(denom > 0.0)
        expected = terms[a] / denom * gs.samples[a]
        assert shares[a].shape == expected.shape
        np.testing.assert_allclose(shares[a], expected, rtol=1e-12, atol=0.0)
    assert lost == 0.0


def _where_allocation(engine, pro_models):
    """Oracle: the allocation as masked np.where expressions over fresh sums."""
    gs = engine.grids
    shares, lost = [], 0.0
    for a in range(gs.natom):
        rho = gs.samples[a]
        own = pro_models[a].profile(gs.radial[a].nodes)[:, None]
        denom = None
        for b, model in enumerate(pro_models):
            vals = own if b == a else engine._profile_values(model, a, b)
            denom = vals.copy() if denom is None else denom + vals
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(denom > 0.0, own / np.where(denom > 0, denom, 1.0), 0.0) * rho
        shares.append(share)
        dead = (denom <= 0.0) & (rho > 0.0)
        if np.any(dead):
            lost = max(lost, grids.integrate_atom(gs, a, np.where(dead, rho, 0.0)))
    return shares, lost


def _convention_zero_case():
    # pro-atoms supported only inside r <= 1: part of each pro-molecule is zero
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], 0.5, 1.0),
                                         ("gaussian_s", positions[1], 0.5, 1.0)])
    gs = grids.AtomicGridSet(positions, grids.build_radial(150, 10.0),
                             grids.build_angular(60, "axial"))
    gs.sample_density(rho.eval)
    nodes = np.linspace(0.01, 1.0, 30)
    tab = proatoms.TabulatedProfile(nodes=nodes, values=np.ones(30), rmax=1.0)
    return gs, [tab, tab]


def _allocation_cases():
    for kind in ("tabulated", "tabulated-foreign", "gaussian", "slater"):
        _, gs = _bent3()
        yield kind, gs, _bent3_models(kind, gs)
    yield "convention-zero", *_convention_zero_case()
    gs = _single_atom()
    gs.sample_density(density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.8, 2.0)]).eval)
    yield "single-atom", gs, [proatoms.SlaterShells(exponents=(2.0, 0.7), coefficients=[1.0, 0.5])]


def test_allocate_equals_where_oracle_bitwise():
    for kind, full, models in _allocation_cases():
        gs = full.folded()[0]   # the set a run allocates on
        if kind in ("tabulated", "gaussian", "slater"):
            assert gs is not full
        engine = partition.StockholderEngine(gs)
        shares, lost = engine.allocate(models)
        expected, expected_lost = _where_allocation(engine, models)
        assert lost == expected_lost, kind
        if kind == "convention-zero":
            assert lost > 0.1
        for a in range(gs.natom):
            assert np.array_equal(shares[a], expected[a]), (kind, a)
        # the shares are fresh arrays: writing one leaves the next allocation alone
        for share in shares:
            share.fill(-1.0)
        again, _ = engine.allocate(models)
        for a in range(gs.natom):
            assert np.array_equal(again[a], expected[a]), (kind, a)


def test_hirshfeld_charges_are_the_shares_integrals_bitwise():
    rho, gs = _bent3()
    tables = _bent3_models("tabulated", gs)
    res = partition.run_partition(
        "hirshfeld", rho, gs, Z=[3, 1, 1],
        options=partition.PartitionOptions(proatom_tables=dict(enumerate(tables))))
    fold, _ = gs.folded()
    assert fold is not gs
    shares, _ = partition.StockholderEngine(fold).allocate(tables)
    expected = [grids.integrate_atom(fold, a, s) for a, s in enumerate(shares)]
    assert np.array_equal(res.charges, expected)


def test_elapsed_seconds_ignore_a_wall_clock_that_steps_back(monkeypatch):
    # the wall clock may be set back during a run; the run time may not go negative
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.8, 2.0)])
    gs = _single_atom(nr=40, order=26)
    gs.sample_density(rho.eval)
    wall = iter(range(10**9, 0, -1000))
    monkeypatch.setattr(partition.time, "time", lambda: float(next(wall)))
    res = partition.run_partition("isa", rho, gs, Z=[2])
    assert res.elapsed_seconds >= 0.0


def test_engine_cache_keeps_shell_kernels_apart():
    # Gaussian and Slater expansions with the same exponents, in turn on one engine
    _, gs = _bent3()
    engine = partition.StockholderEngine(gs)
    for kind in ("gaussian", "slater", "gaussian"):
        models = _bent3_models(kind, gs)
        got, _ = engine.allocate(models)
        fresh, _ = partition.StockholderEngine(gs).allocate(models)
        for a in range(gs.natom):
            np.testing.assert_allclose(got[a], fresh[a], rtol=1e-12, atol=0.0)
    # Slater exponents that move between two calls (as in MB-ISA), one shell emptied
    engine = partition.StockholderEngine(gs)
    engine.allocate(_bent3_models("slater", gs))
    moved = [proatoms.SlaterShells(exponents=tuple(1.1 * x for x in m.exponents),
                                   coefficients=np.r_[0.0, m.coefficients[1:]])
             for m in _bent3_models("slater", gs)]
    got, _ = engine.allocate(moved)
    fresh, _ = partition.StockholderEngine(gs).allocate(moved)
    for a in range(gs.natom):
        np.testing.assert_allclose(got[a], fresh[a], rtol=1e-12, atol=0.0)


def _moved(models):
    """MB-ISA-like models whose exponents moved since the first step."""
    return [proatoms.SlaterShells(exponents=tuple(1.1 * x for x in m.exponents),
                                  coefficients=m.coefficients) for m in models]


def _full_table_promolecule(models, gs, a, moved=False):
    """Oracle: the engine's terms on the full distance tables, summed in b order."""
    total = np.zeros(gs.samples[a].shape)
    for b, model in enumerate(models):
        r = gs.distances(a, b)
        if b == a:
            total += model.profile(gs.radial[a].nodes)[:, None]
        elif isinstance(model, proatoms.TabulatedProfile):
            total += grids.RadialStencil(model.nodes, r, model.rmax)(model.values)
        elif moved:
            total += model.profile(r)
        else:
            total += np.tensordot(model.coefficients, model.basis_profiles(r), axes=1)
    return total


@pytest.mark.parametrize("kind", ["tabulated", "tabulated-foreign", "gaussian", "slater",
                                  "convention-zero"])
def test_folded_promolecule_equals_full_table_sum_bitwise(kind):
    _, gs = _bent3()
    models = _bent3_models(kind, gs)
    fold, inverse = gs.folded()
    assert fold is not gs   # bent3 and its density lie in the grid's xz mirror plane
    engine = partition.StockholderEngine(fold)
    passes = [(models, False)] + ([(_moved(models), True)] if kind == "slater" else [])
    for pass_models, moved in passes:
        for a in range(gs.natom):
            own = pass_models[a].profile(fold.radial[a].nodes)[:, None]
            total = engine.promolecule(pass_models, a, own)
            assert total.shape == fold.samples[a].shape and total.flags.c_contiguous
            expected = _full_table_promolecule(pass_models, gs, a, moved)
            assert np.array_equal(np.take(total, inverse[a], axis=1), expected), (kind, moved, a)
            if kind == "convention-zero":
                assert (total == 0.0).any() and (total > 0.0).any()


@pytest.mark.parametrize("kind", ["tabulated", "tabulated-foreign", "convention-zero",
                                  "slater", "gaussian"])
def test_own_column_is_the_read_at_the_atoms_own_distances(kind):
    # the own column step 1 receives, model.profile(radial.nodes), against the
    # (N_r, 1) read at distances(a, a) through a stencil or a shell stack
    _, gs = _bent3()
    models = _bent3_models(kind, gs)
    for a, model in enumerate(models):
        own = model.profile(gs.radial[a].nodes)[:, None]
        r = gs.distances(a, a)
        if isinstance(model, proatoms.TabulatedProfile):
            read = grids.RadialStencil(model.nodes, r, model.rmax)(model.values)
            assert np.array_equal(own, read), (kind, a)
            continue
        stack = np.tensordot(model.coefficients, model.basis_profiles(r), axes=1)
        np.testing.assert_allclose(own, stack, rtol=1e-15, atol=0.0)
        if kind == "slater":   # moved exponents (MB-ISA) are read through `profile`
            moved = _moved(models)[a]
            assert np.array_equal(moved.profile(gs.radial[a].nodes)[:, None], moved.profile(r))


def _bench_like_stacks():
    """(grid set, ladders): the benchmark's bent3 grid set folded to its distinct
    columns, then its dense2 grid set, each with its GISA / L-ISA ladders."""
    hx, hz = 1.81 * math.sin(math.radians(52.25)), 1.81 * math.cos(math.radians(52.25))
    bent = np.array([[0.0, 0.0, 0.0], [hx, 0.0, hz], [-hx, 0.0, hz]])
    rho = density.AnalyticDensity(terms=[("slater_s", bent[0], 15.0, 2.0),
                                         ("slater_s", bent[0], 3.0, 5.0),
                                         ("gaussian_s", bent[0], 1.0, 1.0),
                                         ("slater_s", bent[1], 2.0, 1.0),
                                         ("slater_s", bent[2], 2.0, 1.0)])
    gs = grids.AtomicGridSet(bent, grids.build_radial(200, 14.0, "log"),
                             grids.build_angular(110))
    gs.sample_density(rho.eval)
    ladders = [(0.2, 0.8, 3.0, 12.0, 48.0, 190.0)] + [(0.1, 0.4, 1.6, 6.4)] * 2
    yield gs.folded()[0], ladders
    dense = grids.AtomicGridSet(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
                                grids.build_radial(1000, 14.0), grids.build_angular(100, "axial"))
    dense.sample_density(rho.eval)   # any density: only the distances are read
    yield dense, [(0.2, 0.8, 3.0, 12.0)] * 2


@pytest.fixture(scope="module")
def stack_reads():
    return [(partition.StockholderEngine(gs), ladders) for gs, ladders in _bench_like_stacks()]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stack_read_is_the_tensordot_contraction_bitwise(stack_reads, data):
    # one 2-d product per cross read, against the contraction it replaced,
    # on coefficient vectors with zeros in them
    coefficient = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    for engine, ladders in stack_reads:
        gs = engine.grids
        for a in range(gs.natom):
            for b in range(gs.natom):
                if b == a:
                    continue
                c = np.array(data.draw(st.lists(coefficient, min_size=len(ladders[b]),
                                                max_size=len(ladders[b]))))
                model = proatoms.GaussianExpansion(exponents=ladders[b], coefficients=c)
                got = engine._profile_values(model, a, b)
                stack = engine._basis_cache[(a, b)][1]
                assert stack.ndim == 2 and stack.flags.c_contiguous
                r = gs.distances(a, b)
                expected = np.tensordot(c, model.basis_profiles(r), axes=1)
                assert got.shape == r.shape and np.array_equal(got, expected), (a, b)


def test_one_atom_promolecule_is_full_shape():
    gs = _single_atom(nr=40, order=26)
    gs.sample_density(density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.8, 2.0)]).eval)
    model = proatoms.SlaterShells(exponents=(2.0,), coefficients=[1.0])
    own = model.profile(gs.radial[0].nodes)[:, None]
    total = partition.StockholderEngine(gs).promolecule([model], 0, own)
    assert total.shape == gs.samples[0].shape and total.flags.c_contiguous
    assert np.array_equal(total, np.broadcast_to(own, total.shape))


def test_isa_reads_no_own_table_and_checks_no_refit_nodes(monkeypatch):
    rho, gs = _bent3(nr=40, order=26)
    interpolations, checks, requested, reads = [], [], [], []
    stencil, read = grids.AtomicGridSet.stencil, grids.RadialStencil.__call__
    post_init = proatoms.TabulatedProfile.__post_init__

    def spy_stencil(self, a, b, nodes, rmax):
        requested.append((a, b))
        return stencil(self, a, b, nodes, rmax)

    def spy_read(self, values):
        reads.append(1)
        return read(self, values)

    def spy_post_init(self):
        checks.append(1)
        post_init(self)

    def spy_interpolation(*args, **kwargs):
        interpolations.append(1)
        return grids.interpolate_radial(*args, **kwargs)

    monkeypatch.setattr(grids.AtomicGridSet, "stencil", spy_stencil)
    monkeypatch.setattr(grids.RadialStencil, "__call__", spy_read)
    monkeypatch.setattr(proatoms.TabulatedProfile, "__post_init__", spy_post_init)
    monkeypatch.setattr(proatoms, "interpolate_radial", spy_interpolation)
    opts = partition.PartitionOptions(max_iter=3, tol=0.0, tol_l2=0.0)
    res = partition.run_partition("isa", rho, gs, options=opts, Z=[8, 1, 1])
    assert res.iterations == 3
    assert interpolations == [] and checks == []
    cross = [(a, b) for a in range(gs.natom) for b in range(gs.natom) if a != b]
    assert requested == cross * res.iterations
    assert len(reads) == len(cross) * res.iterations


def test_moved_exponents_free_the_shell_stacks_for_good():
    _, gs = _bent3()
    engine = partition.StockholderEngine(gs)
    models = _bent3_models("slater", gs)

    def held():
        return [pair for pair, (_, stack) in engine._basis_cache.items() if stack is not None]

    engine.allocate(models)
    assert len(held()) == gs.natom * (gs.natom - 1)   # the cross pairs: w_a is a profile
    engine.allocate(_moved(models))
    assert held() == []
    engine.allocate(models)   # the first exponents again: no stack is rebuilt
    assert held() == []


def test_moved_shells_are_evaluated_once_per_distinct_column(monkeypatch):
    _, gs = _bent3()
    models = _bent3_models("slater", gs)
    fold, _ = gs.folded()
    engine = partition.StockholderEngine(fold)
    engine.allocate(models)
    points = []
    profile = proatoms.SlaterShells.profile

    def counted(self, r):
        points.append(np.size(r))
        return profile(self, r)

    monkeypatch.setattr(proatoms.SlaterShells, "profile", counted)
    engine.allocate(_moved(models))
    nr, n_omega = gs.samples[0].shape
    distinct = [fold.samples[a].shape[1] for a in range(gs.natom)]
    assert max(distinct) < n_omega
    # each atom's own column once, serving the pro-molecule and the share's
    # numerator, then every cross pair on the atom's distinct columns only
    own = gs.natom * nr
    assert sum(points) == own + sum((gs.natom - 1) * nr * u for u in distinct)


def test_shares_are_expanded_once_per_atom_and_only_where_columns_repeat(monkeypatch):
    gathers = []
    take = np.take

    def spy(a, indices, axis=None, **kwargs):
        if axis == 1:
            gathers.append(np.shape(a))
        return take(a, indices, axis=axis, **kwargs)

    bent = _bent3(nr=40, order=26)
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    axial = (density.AnalyticDensity(terms=[("gaussian_s", p, 0.5, 1.0) for p in positions]),
             grids.AtomicGridSet(positions, grids.build_radial(40, 10.0),
                                 grids.build_angular(20, "axial")))
    axial[1].sample_density(axial[0].eval)
    opts = partition.PartitionOptions(max_iter=4, tol=0.0, tol_l2=0.0)
    for rho, gs in (bent, axial):
        fold, _ = gs.folded()   # built once per sampled grid set, before any run
        monkeypatch.setattr(np, "take", spy)
        res = partition.run_partition("isa", rho, gs, options=opts, Z=[1] * gs.natom)
        monkeypatch.setattr(np, "take", take)
        assert res.iterations == 4
        # one gather per atom, of its final share from the distinct columns
        expected = [] if fold is gs else [s.shape for s in fold.samples]
        assert gathers == expected
        gathers.clear()
    assert axial[1].folded()[0] is axial[1] and bent[1].folded()[0] is not bent[1]


def test_stencils_built_once_per_pair_and_table_nodes(monkeypatch):
    rho, gs = _bent3(nr=40, order=26)
    returned = []
    original = grids.AtomicGridSet.stencil

    def recorded(self, a, b, nodes, rmax):
        stencil = original(self, a, b, nodes, rmax)
        returned.append(((a, b), stencil))
        return stencil

    def builds():
        distinct = {id(s): pair for pair, s in returned}   # `returned` keeps ids unique
        return sorted(distinct.values())

    monkeypatch.setattr(grids.AtomicGridSet, "stencil", recorded)
    opts = partition.PartitionOptions(max_iter=3, tol=0.0, tol_l2=0.0)
    partition.run_partition("isa", rho, gs, options=opts, Z=[8, 1, 1])
    # the cross pairs only: each atom's own table is read as its profile
    pairs = [(a, b) for a in range(gs.natom) for b in range(gs.natom) if a != b]
    assert builds() == pairs
    partition.run_partition("isa", rho, gs, options=opts, Z=[8, 1, 1])
    assert builds() == pairs
    # atom 2's table on other nodes: only the pairs that read atom 2 rebuild
    tables = dict(enumerate(_bent3_models("tabulated", gs)))
    tables[2] = _bent3_models("tabulated-foreign", gs)[2]
    partition.run_partition("hirshfeld", rho, gs, Z=[8, 1, 1],
                            options=partition.PartitionOptions(proatom_tables=tables))
    assert builds() == sorted(pairs + [(a, 2) for a in range(gs.natom) if a != 2])


# ---------------------------------------------------------------------------
# method step-2 operations
# ---------------------------------------------------------------------------

def test_isa_step2_radial_density():
    gs = _single_atom()
    r = np.linalg.norm(gs.points_rel(0), axis=-1)
    f = np.exp(-1.3 * r)
    tab = partition.isa_step2(grids.spherical_average(f, gs.angular[0]), gs.radial[0])
    assert np.allclose(tab.values, np.exp(-1.3 * gs.radial[0].nodes), atol=1e-14)


def test_isa_step2_kills_odd_term():
    gs = _single_atom(order=110)
    r = gs.distances(0, 0)
    cos_t = gs.points_rel(0)[..., 2] / r
    f = np.exp(-r) * (1.0 + 0.5 * cos_t)
    tab = partition.isa_step2(grids.spherical_average(f, gs.angular[0]), gs.radial[0])
    assert np.allclose(tab.values, np.exp(-gs.radial[0].nodes), atol=1e-13)


def test_isa_step2_offcenter_gaussian_matches_sinh_oracle():
    a, d = 0.8, 0.9
    gs = _single_atom(order=194)
    pts = gs.points_rel(0)
    rel = pts - np.array([0.0, 0.0, d])
    f = np.exp(-a * np.sum(rel**2, axis=-1))
    tab = partition.isa_step2(grids.spherical_average(f, gs.angular[0]), gs.radial[0])
    r = gs.radial[0].nodes
    oracle = np.exp(-a * (r**2 + d**2)) * np.sinh(2 * a * r * d) / (2 * a * r * d)
    assert np.max(np.abs(tab.values - oracle)) < 1e-10


def test_hirshfeld_i_step2_rules():
    nodes = np.linspace(0.01, 8.0, 40)
    tables = {n: proatoms.synthetic_proatom_table(1, n, nodes, 8.0) for n in range(4)}
    hit = proatoms.HirshfeldITable(1, tables)
    assert np.array_equal(partition.hirshfeld_i_step2(2.0, hit).values,
                          tables[2].values)
    mid = partition.hirshfeld_i_step2(1.5, hit)
    assert np.allclose(mid.values, 0.5 * (tables[1].values + tables[2].values))
    assert np.array_equal(partition.hirshfeld_i_step2(9.0, hit).values,
                          tables[3].values)


def _lisa_inputs(nr=300, rmax=14.0):
    radial = grids.build_radial(nr, rmax)
    return radial.nodes, radial.weights, radial


def _balanced(exponents):
    # rescaled to N_a by lisa_step2: the balanced start
    return proatoms.GaussianExpansion(exponents=exponents, coefficients=np.ones(len(exponents)))


def test_lisa_step2_single_basis_function():
    nodes, weights, radial = _lisa_inputs()
    exponents = (1.2,)
    g = proatoms.GaussianExpansion(exponents=exponents, coefficients=[1.0])
    w = 2.5 * g.profile(nodes)
    out = partition.lisa_step2(w, radial, 2.5, _balanced(exponents))
    assert out.coefficients[0] == pytest.approx(2.5, rel=1e-9)


def test_lisa_step2_exact_representability():
    nodes, weights, radial = _lisa_inputs()
    exponents = (0.3, 1.0, 4.0)
    true_c = np.array([0.8, 1.1, 0.6])
    g = proatoms.GaussianExpansion(exponents=exponents, coefficients=true_c)
    w = g.profile(nodes)
    out = partition.lisa_step2(w, radial, float(true_c.sum()), _balanced(exponents))
    assert np.max(np.abs(out.coefficients - true_c)) < 1e-6


def test_lisa_step2_matches_simplex_scan():
    # brute-force oracle: 3 shells, scan the simplex at 1e-3 resolution
    nodes, weights, radial = _lisa_inputs(nr=200, rmax=12.0)
    exponents = (0.4, 1.5, 5.0)
    rng = np.random.default_rng(5)
    mix = proatoms.GaussianExpansion(exponents=(0.7, 2.5), coefficients=[1.0, 0.8])
    w = mix.profile(nodes) * (1.0 + 0.05 * np.cos(nodes))
    N = 4 * math.pi * float(weights @ (nodes**2 * w))
    out = partition.lisa_step2(w, radial, N, _balanced(exponents))

    basis = proatoms.GaussianExpansion(exponents=exponents,
                                       coefficients=np.ones(3)).basis_profiles(nodes)
    quad = weights * nodes**2 * w

    def objective(cs):
        mixv = cs @ basis
        return -np.sum(np.where(quad > 0, quad * np.log(np.maximum(mixv, 1e-300)), 0.0),
                       axis=-1)

    step = 1e-3 * N
    c1 = np.arange(0.0, N + step, step)
    best = (math.inf, None)
    for c1v in c1:
        c2 = np.arange(0.0, N - c1v + step, step)
        cand = np.stack([np.full_like(c2, c1v), c2, N - c1v - c2], axis=1)
        vals = objective(cand)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (vals[i], cand[i])
    assert np.max(np.abs(out.coefficients - best[1])) < 2e-3


def test_gisa_overlap_entries():
    # numeric oracle: 2 int zeta_pi zeta_pi = 2^(-1/2)
    S = partition.gisa_overlap([math.pi, math.pi])
    assert S[0, 0] == pytest.approx(2 ** -0.5, rel=1e-12)
    S2 = partition.gisa_overlap([0.7, 1.9, 5.0])
    assert np.allclose(S2, S2.T)
    radial = grids.build_radial(400, 12.0)
    za = (0.7 / math.pi) ** 1.5 * np.exp(-0.7 * radial.nodes**2)
    zb = (1.9 / math.pi) ** 1.5 * np.exp(-1.9 * radial.nodes**2)
    numeric = 2 * 4 * math.pi * float(radial.weights @ (radial.nodes**2 * za * zb))
    assert S2[0, 1] == pytest.approx(numeric, abs=1e-10)


def test_gisa_step2_exact_representability():
    gs = _single_atom(nr=300, rmax=15.0)
    exponents = (0.05, 0.5, 2.0, 4.0, 10.0, 50.0)
    target = proatoms.GaussianExpansion(exponents=(2.0,), coefficients=[1.7])
    samples = np.broadcast_to(target.profile(gs.radial[0].nodes)[:, None],
                              (300, gs.angular[0].weights.size))
    model, msgs = partition.gisa_step2(grids.spherical_average(samples, gs.angular[0]),
                                       gs.radial[0], 1.7,
                                       proatoms.GaussianExpansion(exponents=exponents,
                                                                  coefficients=np.ones(6)))
    expected = np.zeros(6)
    expected[2] = 1.7
    assert np.max(np.abs(model.coefficients - expected)) < 1e-7
    # QP objective at the minimum equals -1/2 N^2 S_kk
    S = partition.gisa_overlap(exponents)
    c = model.coefficients
    radial = gs.radial[0]
    w = target.profile(radial.nodes)
    wr = 4 * math.pi * radial.weights * radial.nodes**2 * w
    zeta = proatoms.GaussianExpansion(exponents=exponents,
                                      coefficients=np.ones(6)).basis_profiles(radial.nodes)
    b = 2.0 * (zeta @ wr)
    obj = 0.5 * c @ S @ c - c @ b
    assert obj == pytest.approx(-0.5 * 1.7**2 * S[2, 2], rel=1e-8)


def test_mbisa_single_shell_fixed_point(mbisa_map):
    rho = density.AnalyticDensity(terms=[("slater_s", (0, 0, 0), 1.8, 2.2)])
    gs = _single_atom(nr=400, rmax=20.0)
    gs.sample_density(rho.eval)
    start = [proatoms.SlaterShells(exponents=(1.8,), coefficients=[2.2])]
    new, msgs = mbisa_map(start, gs)
    assert new[0].coefficients[0] == pytest.approx(2.2, abs=1e-9)
    assert new[0].exponents[0] == pytest.approx(1.8, abs=1e-8)
    assert not msgs


def test_mbisa_shell_charges_conserve(mbisa_map):
    rho = density.AnalyticDensity(terms=[("slater_s", (0, 0, 0), 1.5, 1.0),
                                         ("slater_s", (0, 0, 2.0), 2.5, 1.0)])
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    gs = grids.AtomicGridSet(positions, grids.build_radial(300, 18.0),
                             grids.build_angular(100, "axial"))
    gs.sample_density(rho.eval)
    models = [proatoms.SlaterShells(exponents=(1.0, 4.0), coefficients=[0.5, 0.5])
              for _ in range(2)]
    for _ in range(4):
        models, _ = mbisa_map(models, gs)
        total = sum(m.charge() for m in models)
        assert total == pytest.approx(2.0, abs=1e-6)


def test_mbisa_two_shell_recovery(mbisa_map):
    # construct rho from two well-separated Slater shells; the converged
    # (c, alpha) must match the generator within 1e-4
    c_true = np.array([0.8, 1.2])
    a_true = np.array([0.9, 6.0])
    rho = density.AnalyticDensity(terms=[("slater_s", (0, 0, 0), a_true[0], c_true[0]),
                                         ("slater_s", (0, 0, 0), a_true[1], c_true[1])])
    gs = _single_atom(nr=500, rmax=25.0, order=6)
    gs.sample_density(rho.eval)
    models = [proatoms.SlaterShells(exponents=(0.5, 3.0), coefficients=[1.0, 1.0])]
    for _ in range(400):
        models, _ = mbisa_map(models, gs)
    got_c = np.sort(models[0].coefficients)
    got_a = np.sort(models[0].exponents)
    assert np.max(np.abs(got_c - np.sort(c_true))) < 1e-4
    assert np.max(np.abs(got_a - np.sort(a_true))) < 1e-4


def _mbisa_update_full_grid(pro_models, gs, shell_floor=1e-12):
    """Reference: each shell's stockholder share integrated on the full grid."""
    out = []
    for a, model in enumerate(pro_models):
        denom = sum(m.profile(gs.distances(a, b)) for b, m in enumerate(pro_models))
        base = np.where(denom > 0.0, gs.samples[a] / np.where(denom > 0, denom, 1.0), 0.0)
        r_own = gs.distances(a, a)
        shells = model.basis_profiles(r_own)
        new_c = np.zeros(len(model.exponents))
        new_a = np.array(model.exponents)
        for k, ck in enumerate(model.coefficients):
            share = ck * shells[k] * base
            c_new = grids.integrate_atom(gs, a, share)
            if c_new >= shell_floor:
                new_c[k] = c_new
                new_a[k] = 3.0 * c_new / grids.integrate_atom(gs, a, share * r_own)
        out.append((new_c, new_a))
    return out


def test_mbisa_update_matches_full_grid_shell_integrals(mbisa_map):
    _, gs = _bent3()
    models = _bent3_models("slater", gs)
    expected = _mbisa_update_full_grid(models, gs)
    got, _ = mbisa_map(models, gs)
    for model, (c_ref, a_ref) in zip(got, expected):
        np.testing.assert_allclose(model.coefficients, c_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(model.exponents, a_ref, rtol=1e-12, atol=0.0)


def test_mbisa_evaluates_promolecule_once_per_atom_and_iteration(monkeypatch):
    rho, gs = _bent3(nr=40, order=26)
    calls = []
    original = partition.StockholderEngine.promolecule

    def counted(self, pro_models, a, own):
        calls.append(a)
        return original(self, pro_models, a, own)

    monkeypatch.setattr(partition.StockholderEngine, "promolecule", counted)
    opts = partition.PartitionOptions(max_iter=5, tol=0.0, tol_l2=0.0)
    res = partition.run_partition("mbisa", rho, gs, options=opts, Z=[8, 1, 1])
    assert res.iterations == 5
    assert len(calls) == gs.natom * res.iterations


def test_gisa_messages_name_iteration_and_atom(appendix_density, diatomic_grids):
    # two exponents 1e-9 apart: the overlap has cond ~8e16 and is regularized
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=200, ns=40)
    ladder = [0.2, 0.8, 0.8 * (1 + 1e-9), 3.0]
    opts = partition.PartitionOptions(max_iter=1, exponents=[ladder, ladder])
    res = partition.run_partition("gisa", rho, gs, options=opts, Z=[1, 1])
    cond = np.linalg.cond(partition.gisa_overlap(ladder))
    assert res.messages == [f"iteration 1: atom {a}: ill-conditioned shell overlap "
                            f"(cond {cond:.1e}); diagonal regularized by 1e-12"
                            for a in range(2)]


def test_gisa_overlap_is_conditioned_once_per_ladder(appendix_density, diatomic_grids,
                                                    monkeypatch):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=100, ns=20)
    ladders = [[0.2, 0.8, 0.8 * (1 + 1e-9), 3.0], [0.3, 1.1, 4.0]]
    conds = []
    cond = np.linalg.cond

    def counted(x, *args):
        conds.append(np.shape(x))
        return cond(x, *args)

    monkeypatch.setattr(np.linalg, "cond", counted)
    partition._gisa_system.cache_clear()
    opts = partition.PartitionOptions(max_iter=3, tol=0.0, tol_l2=0.0, exponents=ladders)
    res = partition.run_partition("gisa", rho, gs, options=opts, Z=[1, 1])
    assert res.iterations == 3
    assert conds == [(4, 4), (3, 3)]
    # the first ladder is regularized, and says so in every iteration
    assert [m.partition(":")[0] for m in res.messages] == [
        f"iteration {k}" for k in range(1, 4)]


@pytest.mark.parametrize("method", ["gisa", "lisa"])
def test_fixed_ladder_refits_pay_only_for_their_arithmetic(monkeypatch, method):
    # over a run, each (ladder, radial nodes) basis is built once, every stack
    # read is one product, QpProblem's full check runs at most once per
    # ladder, and shell models are checked in full only when first made
    rho, gs = _bent3()
    ladders = [m.exponents for m in _bent3_models("gaussian", gs)]
    on_nodes, qp_checks, shell_checks = Counter(), [], []
    basis_profiles = proatoms.GaussianExpansion.basis_profiles
    qp_post_init = solvers.QpProblem.__post_init__
    shell_post_init = proatoms.ShellExpansion.__post_init__

    def spy_basis(self, r):
        if np.ndim(r) == 1:
            on_nodes[(self.exponents, np.asarray(r).tobytes())] += 1
        return basis_profiles(self, r)

    def spy_qp(self):
        qp_checks.append(1)
        qp_post_init(self)

    def spy_shell(self):
        shell_checks.append(1)
        shell_post_init(self)

    def no_tensordot(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    monkeypatch.setattr(proatoms.GaussianExpansion, "basis_profiles", spy_basis)
    monkeypatch.setattr(solvers.QpProblem, "__post_init__", spy_qp)
    monkeypatch.setattr(proatoms.ShellExpansion, "__post_init__", spy_shell)
    monkeypatch.setattr(np, "tensordot", no_tensordot)
    partition._gisa_system.cache_clear()
    partition._basis_on.cache_clear()
    opts = partition.PartitionOptions(max_iter=3, tol=0.0, tol_l2=0.0, exponents=ladders)
    res = partition.run_partition(method, rho, gs, options=opts, Z=[3, 1, 1])
    assert res.iterations == 3
    nodes = gs.radial[0].nodes.tobytes()
    assert on_nodes == Counter({(ladder, nodes): 1 for ladder in ladders})
    assert len(qp_checks) == (len(ladders) if method == "gisa" else 0)
    # the initial models and one per ladder for its radial basis
    assert len(shell_checks) == 2 * len(ladders)
    assert all(type(m) is proatoms.GaussianExpansion and m.exponents == ladder
               for m, ladder in zip(res.pro_models, ladders))


def test_mbisa_messages_name_iteration_atom_and_shell(appendix_density, diatomic_grids):
    # shell 1 starts with 1e-14 electrons, below SHELL_FLOOR after one update
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=200, ns=40)
    opts = partition.PartitionOptions(max_iter=3, tol=0.0, tol_l2=0.0,
                                      exponents=[[1.0, 4.0], [1.0, 4.0]],
                                      init_coefficients=[[1.0, 1e-14], [1.0, 1e-14]])
    res = partition.run_partition("mbisa", rho, gs, options=opts, Z=[1, 1])
    assert res.iterations == 3
    assert [m.partition(" (")[0] for m in res.messages] == [
        f"iteration 1: atom {a}: shell 1: charge underflow" for a in range(2)]
    assert [model.coefficients[1] for model in res.pro_models] == [0.0, 0.0]


def test_run_partition_rejects_negative_tolerances_and_zero_iterations():
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.7, 1.0)])
    bad = {"tol": -1.0, "tol_l2": -1e-9, "max_iter": 0}
    for key, value in bad.items():
        opts = partition.PartitionOptions(**{key: value})
        with pytest.raises(ValidationError, match=f"^{key} must"):
            partition.run_partition("isa", rho, _single_atom(), options=opts)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_kl_entropy_identity_is_zero():
    gs = _single_atom()
    pro = proatoms.GaussianExpansion(exponents=(0.9,), coefficients=[1.3])
    samples = np.broadcast_to(pro.profile(gs.radial[0].nodes)[:, None],
                              (200, gs.angular[0].weights.size))
    s = partition.kl_entropy(samples, pro, gs, 0)
    assert abs(s) < 1e-12


def test_kl_entropy_gaussian_pair_closed_form():
    # oracle: s_KL(zeta_a | zeta_b) = 3/2 (log(a/b) + b/a - 1)
    gs = _single_atom(nr=300, rmax=16.0)

    def entropy(a, b):
        fa = proatoms.GaussianExpansion(exponents=(a,), coefficients=[1.0])
        fb = proatoms.GaussianExpansion(exponents=(b,), coefficients=[1.0])
        samples = np.broadcast_to(fa.profile(gs.radial[0].nodes)[:, None],
                                  (300, gs.angular[0].weights.size))
        return partition.kl_entropy(samples, fb, gs, 0), 1.5 * (math.log(a / b) + b / a - 1.0)

    s, expected = entropy(1.4, 0.6)
    assert s == pytest.approx(expected, abs=1e-9)
    # a diffuse share over a tight pro-atom that is denormal in the tail;
    # the residual gap is the truncation of the share at rmax
    s, expected = entropy(0.05, 2.9)
    assert s == pytest.approx(expected, rel=1e-3)


def test_kl_entropy_infinite_when_proatom_vanishes():
    gs = _single_atom()
    nodes = np.linspace(0.01, 2.0, 20)
    tab = proatoms.TabulatedProfile(nodes=nodes, values=np.ones(20), rmax=2.0)
    samples = np.ones((200, gs.angular[0].weights.size))
    assert partition.kl_entropy(samples, tab, gs, 0) == math.inf


def _masked_entropy(samples, pro_model, gs, atom):
    """Oracle: rho (log rho - log w0) under masks, on the full grid."""
    rho = np.asarray(samples, dtype=float)
    w0 = pro_model.profile(gs.distances(atom, atom))
    pos = rho > 0.0
    if np.any(pos & (w0 <= 0.0)):
        return math.inf
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = np.where(pos, rho * (np.log(np.where(pos, rho, 1.0)) - np.log(w0)), 0.0)
    return grids.integrate_atom(gs, atom, integrand)


def test_kl_entropy_matches_masked_oracle():
    # shares with exact zeros where the pro-molecule vanishes
    gs, tables = _convention_zero_case()
    shares, _ = partition.StockholderEngine(gs).allocate(tables)
    for a in range(gs.natom):
        assert np.any(shares[a] == 0.0) and np.any(shares[a] > 0.0)
        expected = _masked_entropy(shares[a], tables[a], gs, a)
        assert math.isfinite(expected)
        assert partition.kl_entropy(shares[a], tables[a], gs, a) == pytest.approx(
            expected, rel=1e-13, abs=0.0)
    # scattered exact zeros in a share of a non-axial molecule, measured
    # against a pro-atom of the other kernel family
    _, gs = _bent3()
    shares, _ = partition.StockholderEngine(gs).allocate(_bent3_models("gaussian", gs))
    models = _bent3_models("slater", gs)
    rng = np.random.default_rng(3)
    for a in range(gs.natom):
        share = np.where(rng.random(shares[a].shape) < 0.3, 0.0, shares[a])
        assert partition.kl_entropy(share, models[a], gs, a) == pytest.approx(
            _masked_entropy(share, models[a], gs, a), rel=1e-13, abs=0.0)
    # a diffuse share over a tight pro-atom that is denormal in the tail
    gs = _single_atom(nr=300, rmax=16.0)
    share = proatoms.GaussianExpansion(exponents=(0.05,), coefficients=[1.0])
    pro = proatoms.GaussianExpansion(exponents=(2.9,), coefficients=[1.0])
    samples = np.broadcast_to(share.profile(gs.radial[0].nodes)[:, None],
                              (300, gs.angular[0].weights.size))
    assert np.min(pro.profile(gs.radial[0].nodes)) < np.finfo(float).tiny
    assert partition.kl_entropy(samples, pro, gs, 0) == pytest.approx(
        _masked_entropy(samples, pro, gs, 0), rel=1e-13, abs=0.0)


def test_kl_entropy_takes_the_spherical_average_it_is_given(monkeypatch):
    # the given average and the one computed inside give the same bits
    rho, gs = _bent3(nr=40, order=26)
    shares, _ = partition.StockholderEngine(gs).allocate(_bent3_models("gaussian", gs))
    for kind in ("tabulated", "slater"):
        models = _bent3_models(kind, gs)
        for a in range(gs.natom):
            avg = grids.spherical_average(shares[a], gs.angular[a])
            assert partition.kl_entropy(shares[a], models[a], gs, a, avg) == \
                partition.kl_entropy(shares[a], models[a], gs, a)
    # run_partition hands its averages over: one average per atom and iteration
    calls = []
    original = partition.spherical_average
    monkeypatch.setattr(partition, "spherical_average",
                        lambda values, angular: calls.append(1) or original(values, angular))
    opts = partition.PartitionOptions(max_iter=4, tol=0.0, tol_l2=0.0)
    res = partition.run_partition("isa", rho, gs, options=opts, Z=[8, 1, 1])
    assert res.iterations == 4
    assert len(calls) == gs.natom * res.iterations


def test_kl_entropy_infinite_under_negative_lebedev_weights():
    # a positive share only on the negative-weight points of a row where the
    # table vanishes: the row's spherical average is negative, S is still +inf
    gs = _single_atom(order=74)
    eta = gs.angular[0].weights
    assert np.any(eta < 0.0)
    nodes = np.linspace(0.01, 2.0, 20)
    tab = proatoms.TabulatedProfile(nodes=nodes, values=np.ones(20), rmax=2.0)
    r = gs.radial[0].nodes
    row = int(np.searchsorted(r, 5.0))
    samples = np.zeros((r.size, eta.size))
    samples[r < 2.0] = 1.0
    samples[row, eta < 0.0] = 1.0
    assert grids.spherical_average(samples, gs.angular[0])[row] < 0.0
    assert _masked_entropy(samples, tab, gs, 0) == math.inf
    assert partition.kl_entropy(samples, tab, gs, 0) == math.inf


# ---------------------------------------------------------------------------
# hirshfeld and the full iteration
# ---------------------------------------------------------------------------

def test_hirshfeld_single_atom_gets_everything():
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.7, 3.2)])
    gs = _single_atom()
    gs.sample_density(rho.eval)
    nodes = gs.radial[0].nodes
    tab = proatoms.TabulatedProfile(nodes=nodes, values=np.exp(-nodes), rmax=14.0)
    opts = partition.PartitionOptions(proatom_tables={0: tab})
    res = partition.run_partition("hirshfeld", rho, gs, opts)
    assert res.charges[0] == pytest.approx(3.2, abs=1e-7)
    assert res.iterations == 1 and res.converged


def test_hirshfeld_identity_proatoms(appendix_density, diatomic_grids):
    # tabulated pro-atoms enter through piecewise-linear interpolation, whose
    # O(h^2) bias sets the attainable accuracy; nr=1200 brings it below 2e-5
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=1200, ns=120)
    gs.sample_density(rho.eval)
    nodes = gs.radial[0].nodes
    tabs = {
        0: proatoms.TabulatedProfile(
            nodes=nodes, values=(0.1 / math.pi) ** 1.5 * np.exp(-0.1 * nodes**2),
            rmax=15.0),
        1: proatoms.TabulatedProfile(
            nodes=nodes, values=(0.5 / math.pi) ** 1.5 * np.exp(-0.5 * nodes**2),
            rmax=15.0),
    }
    res = partition.run_partition("hirshfeld", rho, gs,
                                  options=partition.PartitionOptions(proatom_tables=tabs),
                                  Z=[1, 1])
    assert np.allclose(res.charges, [1.0, 1.0], atol=5e-5)


def test_hirshfeld_vs_riemann_oracle():
    # asymmetric two-Gaussian density, equal pro-atoms; oracle is a dense
    # 3D Riemann sum of the explicit stockholder integrand
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.6]])
    a1, a2 = 0.6, 1.8
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], a1, 1.0),
                                         ("gaussian_s", positions[1], a2, 1.0)])
    alpha_pro = 0.9

    ax = np.linspace(-7.0, 8.6, 160)
    h = ax[1] - ax[0]
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    rho_v = rho.eval(pts)
    w1 = np.exp(-alpha_pro * np.sum((pts - positions[0]) ** 2, axis=1))
    w2 = np.exp(-alpha_pro * np.sum((pts - positions[1]) ** 2, axis=1))
    q1_oracle = float(np.sum(w1 / (w1 + w2) * rho_v)) * h**3

    gs = grids.AtomicGridSet(positions, grids.build_radial(1000, 14.0),
                             grids.build_angular(110, "axial"))
    gs.sample_density(rho.eval)
    nodes = gs.radial[0].nodes
    tab = proatoms.TabulatedProfile(nodes=nodes,
                                    values=np.exp(-alpha_pro * nodes**2), rmax=14.0)
    res = partition.run_partition("hirshfeld", rho, gs,
                                  options=partition.PartitionOptions(
                                      proatom_tables={0: tab, 1: tab}),
                                  Z=[1, 1])
    assert res.charges[0] == pytest.approx(q1_oracle, abs=5e-5)


def test_run_partition_single_atom_isa():
    rho = density.AnalyticDensity(terms=[("gaussian_s", (0, 0, 0), 0.7, 2.0)])
    gs = _single_atom()
    gs.sample_density(rho.eval)
    res = partition.run_partition("isa", rho, gs, Z=[2])
    assert res.converged and res.iterations <= 2
    assert res.charges[0] == pytest.approx(2.0, abs=1e-8)
    # w equals the spherical average of the density
    nodes, values = res.profiles[0]
    expected = (0.7 / math.pi) ** 1.5 * 2.0 * np.exp(-0.7 * nodes**2)
    assert np.max(np.abs(values - expected)) < 1e-12


def test_isa_fixed_point_consistency(diatomic_grids):
    positions = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], 0.8, 1.0),
                                         ("gaussian_s", positions[1], 0.8, 1.0)])
    gs = diatomic_grids(positions, nr=400, ns=150, rmax=12.0)
    gs.sample_density(rho.eval)
    res = partition.run_partition("isa", rho, gs, Z=[1, 1])
    assert res.converged
    # re-running Step 1 + Step 2 changes N_a by < tol and reproduces w_a
    shares, _ = partition.StockholderEngine(gs).allocate(res.pro_models)
    for a in range(2):
        n_again = grids.integrate_atom(gs, a, shares[a])
        assert abs(n_again - res.charges[a]) < 1e-7
        w_again = partition.isa_step2(grids.spherical_average(shares[a], gs.angular[a]),
                                      gs.radial[a])
        assert np.max(np.abs(w_again.values - res.pro_models[a].values)) < 1e-8


def test_lisa_initial_guess_independence(diatomic_grids):
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.2]])
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], 0.5, 1.2),
                                         ("gaussian_s", positions[1], 1.1, 0.8)])
    exps = [[0.1, 0.5, 2.0, 8.0], [0.2, 1.0, 4.0, 16.0]]
    results = []
    for init in ["balanced", [np.array([1.1, 0.05, 0.03, 0.02]),
                              np.array([0.02, 0.03, 0.05, 0.7])]]:
        gs = diatomic_grids(positions, nr=300, ns=100, rmax=14.0)
        gs.sample_density(rho.eval)
        opts = partition.PartitionOptions(exponents=exps,
                                          init_coefficients=init, max_iter=600)
        res = partition.run_partition("lisa", rho, gs, options=opts, Z=[1, 1])
        assert res.converged
        results.append(np.concatenate([m.coefficients for m in res.pro_models]))
    assert np.max(np.abs(results[0] - results[1])) < 1e-6


def _plain_lisa_problem(w, radial, N_a, model):
    """lisa_step2's problem as plain closures: every call evaluates its point afresh."""
    quad = radial.weights * radial.nodes**2 * w
    basis = model.basis_profiles(radial.nodes)

    def objective(c):
        mix = c @ basis
        if np.any(mix[quad > 0] <= 0.0):
            return math.inf
        out = np.zeros_like(mix)
        mask = quad != 0.0
        out[mask] = quad[mask] * np.log(mix[mask])
        return -float(np.sum(out))

    def ratio(c):
        mix = c @ basis
        return np.divide(basis, mix, out=np.zeros_like(basis), where=mix > 0.0)

    def gradient(c):
        return -ratio(c) @ quad

    def hessian(c):
        r = ratio(c)
        return (r * quad) @ r.T

    return solvers.SimplexProblem(dim=len(model.exponents), mass=float(N_a),
                                  objective=objective, gradient=gradient, hessian=hessian)


def _counted(problem, counts):
    def count(key, fn):
        def counted(c):
            counts[key] += 1
            return fn(c)
        return counted
    return dataclasses.replace(problem, **{key: count(key, getattr(problem, key))
                                           for key in ("objective", "gradient", "hessian")})


def _step2_against_plain(step2, w, radial, N_a, model):
    """Run `step2` and the plain closures on one input; both must agree bit for bit
    and make the same calls. Returns (step2's result, its problem, the plain one)."""
    seen, counts, plain_counts = {}, Counter(), Counter()

    def solve(problem, start=None):
        seen.update(problem=problem, start=start)
        seen["c"] = solvers.solve_simplex_newton(_counted(problem, counts), start=start)
        return seen["c"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "solve_simplex_newton", solve)
        out = step2(w, radial, N_a, model)
    plain = _plain_lisa_problem(w, radial, N_a, model)
    c = solvers.solve_simplex_newton(_counted(plain, plain_counts), start=seen["start"])
    assert np.array_equal(seen["c"], c)
    assert counts == plain_counts and counts["hessian"] > 0
    memo = seen["problem"]
    assert memo.objective(c) == plain.objective(c)
    assert np.array_equal(memo.gradient(c), plain.gradient(c))
    assert np.array_equal(memo.hessian(c), plain.hessian(c))
    return out, memo, plain


@pytest.mark.parametrize("shells, start, cutoff", [
    ((0.1, 0.5, 2.0, 8.0), None, None),
    ((0.1, 0.5, 2.0, 8.0), [0.458943, 0.053255, 0.126219, 0.564623], None),
    # w = 0 beyond r = 2.5 and both shells underflow near r = 12: the masked
    # log term and the masked divide
    ((6.0, 24.0), None, 2.5),
], ids=["balanced", "skewed", "truncated"])
def test_lisa_step2_shared_point_matches_plain_closures(lisa_subproblem, shells, start, cutoff):
    radial, w, N = lisa_subproblem()
    if cutoff is not None:
        w = w * (radial.nodes < cutoff)
        N = 4.0 * math.pi * float(np.sum(radial.weights * radial.nodes**2 * w))
    coeffs = np.ones(len(shells)) if start is None else np.array(start)
    model = proatoms.GaussianExpansion(exponents=shells, coefficients=coeffs)
    _, memo, plain = _step2_against_plain(partition.lisa_step2, w, radial, N, model)

    # a point changed in place between two calls is evaluated again
    c = np.linspace(1.0, 2.0, len(shells))
    c *= N / c.sum()
    memo.objective(c)
    memo.gradient(c)
    c[0] += 0.1 * c[-1]
    c[-1] *= 0.9
    assert np.array_equal(memo.hessian(c), plain.hessian(c))
    assert np.array_equal(memo.gradient(c), plain.gradient(c))
    assert memo.objective(c) == plain.objective(c)
    c[:] = c[::-1].copy()
    assert memo.objective(c) == plain.objective(c)
    assert np.array_equal(memo.gradient(c), plain.gradient(c))


def test_lisa_step2_shared_point_matches_plain_closures_on_criterion_5(monkeypatch):
    # every step 2 of the criterion-5 runs, from both initial guesses
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.2]])
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], 0.5, 1.2),
                                         ("gaussian_s", positions[1], 1.1, 0.8)])
    exps = [[0.1, 0.5, 2.0, 8.0], [0.2, 1.0, 4.0, 16.0]]
    step2 = partition.lisa_step2
    checked = []

    def both(w, radial, N_a, model):
        checked.append(N_a)
        return _step2_against_plain(step2, w, radial, N_a, model)[0]

    monkeypatch.setattr(partition, "lisa_step2", both)
    for init in ["balanced",
                 [np.array([1.1, 0.05, 0.03, 0.02]), np.array([0.02, 0.03, 0.05, 0.7])]]:
        gs = grids.AtomicGridSet(positions, grids.build_radial(300, 14.0),
                                 grids.build_angular(100, "axial"))
        gs.sample_density(rho.eval)
        opts = partition.PartitionOptions(exponents=exps, init_coefficients=init, max_iter=600)
        assert partition.run_partition("lisa", rho, gs, options=opts, Z=[1, 1]).converged
    assert len(checked) > 20


def test_lisa_gradient_hessian_match_finite_differences():
    # central differences with h = 1e-5 on the L-ISA objective
    radial = grids.build_radial(200, 12.0)
    nodes, weights = radial.nodes, radial.weights
    exponents = (0.4, 1.5, 5.0)
    mix = proatoms.GaussianExpansion(exponents=(0.7, 2.5), coefficients=[1.0, 0.8])
    w = mix.profile(nodes)
    basis = proatoms.GaussianExpansion(exponents=exponents,
                                       coefficients=np.ones(3)).basis_profiles(nodes)
    quad = weights * nodes**2 * w

    def objective(c):
        return -float(np.sum(quad * np.log(c @ basis)))

    def gradient(c):
        return -basis @ (quad / (c @ basis))

    def hessian(c):
        mixv = c @ basis
        return (basis * (quad / mixv**2)) @ basis.T

    c0 = np.array([0.7, 0.9, 0.4])
    h = 1e-5
    g_fd = np.zeros(3)
    H_fd = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g_fd[i] = (objective(c0 + e) - objective(c0 - e)) / (2 * h)
        H_fd[i] = (gradient(c0 + e) - gradient(c0 - e)) / (2 * h)
    g = gradient(c0)
    H = hessian(c0)
    assert np.max(np.abs(g - g_fd) / np.abs(g)) < 1e-6
    assert np.max(np.abs(H - H_fd) / np.abs(H)) < 1e-6


def test_entropy_trace_recorded_and_charges_conserved(appendix_density, diatomic_grids):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=300, ns=100)
    gs.sample_density(rho.eval)
    opts = partition.PartitionOptions(max_iter=40,
                                      exponents=[[0.01, 0.1, 1, 2, 5, 10],
                                                 [0.05, 0.5, 2, 4, 10, 50]])
    res = partition.run_partition("gisa", rho, gs, options=opts, Z=[1, 1])
    assert len(res.entropy_trace) == res.iterations
    for charges in res.charge_history:
        assert abs(np.sum(charges) - 2.0) < 1e-6


def test_unknown_method_rejected(appendix_density, diatomic_grids):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=60, ns=20)
    gs.sample_density(rho.eval)
    with pytest.raises(ValidationError, match="unknown method"):
        partition.run_partition("mulliken", rho, gs)


@pytest.mark.parametrize("init", ["delta:-1", "delta:9", "delta:x", "uniform"])
def test_named_initial_guess_is_validated(appendix_density, diatomic_grids, init):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=60, ns=20)
    gs.sample_density(rho.eval)
    opts = partition.PartitionOptions(exponents=[[0.1, 1.0], [0.5, 2.0]],
                                      init_coefficients=init)
    with pytest.raises(ValidationError, match=r"expected 'balanced' or one coefficient row"):
        partition.run_partition("mbisa", rho, gs, options=opts, Z=[1, 1])


@pytest.mark.parametrize("init, match", [
    ([np.array([0.5, 0.5])], r"1 rows for 2 atoms; atom 1 has none"),
    ([np.array([0.5, 0.5])] * 3, r"3 rows for 2 atoms$"),
    ([np.array([-0.5, 1.5]), np.array([0.5, 0.5])], r"atom 0: .* finite and nonnegative"),
    ([np.array([0.5, 0.5]), np.array([math.nan, 1.0])], r"atom 1: .* finite and nonnegative"),
], ids=["short", "long", "negative", "nan"])
def test_explicit_initial_guess_is_validated(appendix_density, diatomic_grids, init, match):
    rho, positions = appendix_density
    gs = diatomic_grids(positions, nr=60, ns=20)
    gs.sample_density(rho.eval)
    opts = partition.PartitionOptions(exponents=[[0.1, 1.0], [0.5, 2.0]],
                                      init_coefficients=init)
    with pytest.raises(ValidationError, match=match):
        partition.run_partition("mbisa", rho, gs, options=opts, Z=[1, 1])


@pytest.mark.parametrize("method", ["isa", "mbisa", "hirshfeld-i"])
@pytest.mark.parametrize("Z, match", [
    ([1], r"^Z has 1 entries for 2 atoms$"),
    ([1, 1, 1], r"^Z has 3 entries for 2 atoms$"),
    ([0, 2], r"^Z\[0\] must be finite and positive, got 0$"),
    ([-1, 3], r"^Z\[0\] must be finite and positive, got -1$"),
    ([1, math.nan], r"^Z\[1\] must be finite and positive, got nan$"),
    ([1, math.inf], r"^Z\[1\] must be finite and positive, got inf$"),
], ids=["short", "long", "zero", "negative", "nan", "inf"])
def test_run_partition_checks_Z_before_sampling(method, Z, match):
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
    rho = density.AnalyticDensity(terms=[("slater_s", positions[0], 2.0, 1.0),
                                         ("slater_s", positions[1], 2.0, 1.0)])
    gs = grids.AtomicGridSet(positions, grids.build_radial(60, 10.0),
                             grids.build_angular(20, "axial"))
    nodes = gs.radial[0].nodes
    tables = {a: proatoms.HirshfeldITable(1, {n: proatoms.synthetic_proatom_table(
        1, n, nodes, 10.0) for n in range(3)}) for a in range(2)}
    opts = partition.PartitionOptions(proatom_tables=tables)
    with pytest.raises(ValidationError, match=match):
        partition.run_partition(method, rho, gs, options=opts, Z=Z)
    assert gs.samples is None


def test_axial_grid_requires_z_axis():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], 1.0, 1.0),
                                         ("gaussian_s", positions[1], 1.0, 1.0)])
    gs = grids.AtomicGridSet(positions, grids.build_radial(60, 8.0),
                             grids.build_angular(20, "axial"))
    gs.sample_density(rho.eval)
    with pytest.raises(ValidationError, match="z axis"):
        partition.run_partition("isa", rho, gs, Z=[1, 1])


def test_run_partition_samples_a_new_density_again(monkeypatch):
    # one grid set, two densities in turn: the second run must not read the
    # samples of the first
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])

    def slater_pair(q0, q1):
        return density.AnalyticDensity(terms=[("slater_s", positions[0], 2.0, q0),
                                              ("slater_s", positions[1], 2.0, q1)])

    def grid_set():
        return grids.AtomicGridSet(positions, grids.build_radial(200, 12.0),
                                   grids.build_angular(60, "axial"))

    calls = []
    original = grids.AtomicGridSet.sample_density
    monkeypatch.setattr(grids.AtomicGridSet, "sample_density",
                        lambda self, rho: calls.append(rho) or original(self, rho))
    rho_a, rho_b = slater_pair(1.0, 1.0), slater_pair(3.0, 1.0)
    gs = grid_set()
    partition.run_partition("mbisa", rho_a, gs)
    shared = partition.run_partition("mbisa", rho_b, gs)
    fresh = partition.run_partition("mbisa", rho_b, grid_set())
    assert np.sum(shared.charges) == pytest.approx(4.0, abs=1e-4)
    assert np.array_equal(shared.charges, fresh.charges)
    # samples taken of the same density's eval are used as they are
    assert gs.sampled_from == rho_b.eval
    partition.run_partition("mbisa", rho_b, gs, options=partition.PartitionOptions(max_iter=1))
    assert calls == [rho_a.eval, rho_b.eval, rho_b.eval]


def test_run_partition_reports_lost_charge():
    # pro-atoms supported only inside r <= 1 leave part of the density to nobody
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    rho = density.AnalyticDensity(terms=[("gaussian_s", positions[0], 0.5, 1.0),
                                         ("gaussian_s", positions[1], 0.5, 1.0)])
    gs = grids.AtomicGridSet(positions, grids.build_radial(150, 10.0),
                             grids.build_angular(60, "axial"))
    tab = proatoms.TabulatedProfile(nodes=np.linspace(0.01, 1.0, 30), values=np.ones(30),
                                    rmax=1.0)
    opts = partition.PartitionOptions(proatom_tables={0: tab, 1: tab})
    with pytest.warns(UserWarning, match="convention-zero allocation lost") as record:
        res = partition.run_partition("hirshfeld", rho, gs, options=opts)
    assert res.lost_charge > 0.1
    assert [str(w.message) for w in record] == res.messages
    assert res.messages == [f"convention-zero allocation lost {res.lost_charge:.3e} charge "
                            "(> 1e-06 of N = 2)"]
    assert np.sum(res.charges) == pytest.approx(2.0 - res.lost_charge, abs=0.05)


def _rising_entropy(monkeypatch):
    """Patch kl_entropy so that the summed S rises every iteration, from 3 at
    iteration 1 (calls 1 and 2 of a diatomic) to 7 at iteration 2."""
    calls = []
    monkeypatch.setattr(partition, "kl_entropy",
                        lambda *args, **kwargs: float(calls.append(1) or len(calls)))


def _small_diatomic(diatomic_grids, method):
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    rho = density.AnalyticDensity(terms=[("slater_s", positions[0], 1.8, 1.0),
                                         ("gaussian_s", positions[1], 0.7, 1.0)])
    gs = diatomic_grids(positions, nr=100, ns=20, rmax=14.0)
    opts = partition.PartitionOptions(max_iter=5)
    if method != "isa":
        opts.exponents = [[0.2, 0.8, 3.0, 12.0]] * 2
    return rho, gs, opts


@pytest.mark.parametrize("method", ["isa", "lisa"])
def test_entropy_increase_aborts_isa_and_lisa(diatomic_grids, monkeypatch, method):
    rho, gs, opts = _small_diatomic(diatomic_grids, method)
    _rising_entropy(monkeypatch)
    with pytest.raises(EntropyIncreaseError, match=r"entropy rose from 3 to 7 at iteration 2"):
        partition.run_partition(method, rho, gs, options=opts, Z=[1, 1])


@pytest.mark.parametrize("method", ["gisa", "mbisa"])
def test_entropy_increase_does_not_abort_gisa_or_mbisa(diatomic_grids, monkeypatch, method):
    rho, gs, opts = _small_diatomic(diatomic_grids, method)
    _rising_entropy(monkeypatch)
    res = partition.run_partition(method, rho, gs, options=opts, Z=[1, 1])
    assert res.iterations >= 2
    assert res.entropy_trace == [3.0, 7.0, 11.0, 15.0, 19.0][:res.iterations]
