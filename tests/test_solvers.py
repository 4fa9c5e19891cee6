import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimpart import grids, partition, proatoms, solvers
from aimpart.errors import ConvergenceError, NumericalError


def _quadratic_problem(S, b, mass):
    return solvers.SimplexProblem(
        dim=len(b), mass=mass,
        objective=lambda c: 0.5 * c @ S @ c - b @ c,
        gradient=lambda c: S @ c - b,
        hessian=lambda c: S)


def test_simplex_quadratic_interior_target():
    t = np.array([0.2, 0.5, 0.3])
    p = _quadratic_problem(np.eye(3), t, 1.0)
    c = solvers.solve_simplex_newton(p)
    assert np.max(np.abs(c - t)) < 1e-9


def test_simplex_two_dim_vs_line_scan():
    # brute-force oracle: scan the 1-simplex at 1e-4 resolution
    S = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([0.4, 1.1])
    mass = 1.0
    p = _quadratic_problem(S, b, mass)
    c = solvers.solve_simplex_newton(p)
    ts = np.linspace(0.0, mass, 10_001)
    cands = np.stack([ts, mass - ts], axis=1)
    objs = 0.5 * np.einsum("ni,ij,nj->n", cands, S, cands) - cands @ b
    assert p.objective(c) <= float(np.min(objs)) + 1e-7


def test_simplex_two_starts_agree():
    g = np.array([[1.0, 0.5, 0.2], [0.3, 1.2, 0.1], [0.2, 0.4, 2.0], [0.9, 0.1, 0.3]])
    w = np.array([0.5, 1.0, 0.7, 0.3])
    p = solvers.SimplexProblem(
        dim=3, mass=2.0,
        objective=lambda c: -float(w @ np.log(g @ c)),
        gradient=lambda c: -(w / (g @ c)) @ g,
        hessian=lambda c: (g.T * (w / (g @ c) ** 2)) @ g)
    c1 = solvers.solve_simplex_newton(p, start=np.array([1.8, 0.1, 0.1]))
    c2 = solvers.solve_simplex_newton(p, start=np.array([0.1, 0.1, 1.8]))
    assert np.max(np.abs(c1 - c2)) < 1e-8


def test_simplex_kkt_residual_small():
    S = np.array([[3.0, 0.1], [0.1, 0.5]])
    b = np.array([-1.0, 2.0])
    p = _quadratic_problem(S, b, 1.5)
    c = solvers.solve_simplex_newton(p)
    assert solvers.simplex_kkt_residual(c, S @ c - b, 1.5) <= 1e-9


def test_simplex_nonfinite_objective_rejected():
    p = solvers.SimplexProblem(dim=2, mass=1.0,
                               objective=lambda c: math.inf,
                               gradient=lambda c: np.zeros(2),
                               hessian=lambda c: np.eye(2))
    with pytest.raises(NumericalError, match="not finite"):
        solvers.solve_simplex_newton(p)


def test_simplex_cap_message_reports_the_failed_step_test():
    # two equal exponents trade charge along a direction the Hessian barely
    # constrains: the KKT residual passes, the step test |x - c| does not
    radial = grids.build_radial(80, 10.0, "log")
    w = proatoms.SlaterShells(exponents=(2.0,), coefficients=[1.0]).profile(radial.nodes)
    model = proatoms.GaussianExpansion(exponents=(0.5, 0.5, 2.0), coefficients=[1.0, 1.0, 1.0])
    with pytest.raises(ConvergenceError,
                       match=r"KKT residual \S+, bound 1e-09; "
                             r"step \|x - c\| [1-9]\.\d\de-0[1-9], bound 1e-10\)$"):
        partition.lisa_step2(w, radial, 1.0, model)


def test_qp_identity_target():
    t = np.array([0.2, 0.5, 0.3])
    q = solvers.QpProblem(S=np.eye(3), b=t, mass=1.0)
    assert np.allclose(solvers.solve_qp_nonneg(q), t, atol=1e-12)


def test_qp_uniform_for_zero_linear_term():
    q = solvers.QpProblem(S=np.eye(4), b=np.zeros(4), mass=2.0)
    assert np.allclose(solvers.solve_qp_nonneg(q), 0.5, atol=1e-12)


def test_qp_active_bound_matches_reduced_kkt():
    # hand oracle: c = (t, N - t), minimize over t in [0, N]
    S = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([-5.0, 1.0])
    N = 1.0
    ts = np.linspace(0, N, 200_001)
    objs = 0.5 * (S[0, 0] * ts**2 + S[1, 1] * (N - ts) ** 2) - b[0] * ts - b[1] * (N - ts)
    t_opt = ts[np.argmin(objs)]
    c = solvers.solve_qp_nonneg(solvers.QpProblem(S=S, b=b, mass=N))
    assert c[0] == pytest.approx(t_opt, abs=1e-5)
    assert c[0] == 0.0  # the bound is active in this instance
    assert c.sum() == pytest.approx(N, abs=1e-12)


def test_qp_mass_zero():
    q = solvers.QpProblem(S=np.eye(2), b=np.ones(2), mass=0.0)
    assert np.all(solvers.solve_qp_nonneg(q) == 0.0)


def test_qp_feasibility_exact():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        A = rng.normal(size=(m, m))
        S = A @ A.T + 0.3 * np.eye(m)
        b = rng.normal(size=m)
        mass = float(rng.uniform(0.2, 4.0))
        c = solvers.solve_qp_nonneg(solvers.QpProblem(S=S, b=b, mass=mass))
        assert abs(c.sum() - mass) < 1e-12
        assert c.min() >= -1e-14
        assert solvers.simplex_kkt_residual(c, S @ c - b, mass) <= 1e-9


def test_qp_vs_simplex_newton_cross_check():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, m))
        S = A @ A.T + 0.5 * np.eye(m)
        b = rng.normal(size=m)
        mass = float(rng.uniform(0.5, 3.0))
        cq = solvers.solve_qp_nonneg(solvers.QpProblem(S=S, b=b, mass=mass))
        cs = solvers.solve_simplex_newton(_quadratic_problem(S, b, mass))
        assert np.max(np.abs(cq - cs)) < 1e-8


def test_qp_monotone_objective():
    # the solver raises internally if the objective ever increases; a normal
    # solve returning proves monotonicity held
    rng = np.random.default_rng(13)
    A = rng.normal(size=(6, 6))
    S = A @ A.T + 0.1 * np.eye(6)
    b = rng.normal(size=6) * 3
    start = np.full(6, 0.5)
    c = solvers.solve_qp_nonneg(solvers.QpProblem(S=S, b=b, mass=3.0), start=start)
    obj = lambda x: 0.5 * x @ S @ x - b @ x
    assert obj(c) <= obj(start) + 1e-12


@settings(deadline=None)
@given(start=st.lists(st.floats(1e-8, 1.0), min_size=4, max_size=4))
@example(start=[0.458943, 0.053255, 0.126219, 0.564623])
def test_lisa_step2_stationary_on_support(lisa_subproblem, start):
    # every shell holding charge sees the same gradient, the multiplier; a
    # solver that stops at the first KKT pass leaves 5e-8 on the example
    shells = (0.1, 0.5, 2.0, 8.0)
    radial, w, N = lisa_subproblem()
    r, weights = radial.nodes, radial.weights
    start = np.array(start) * (N / sum(start))
    model = proatoms.GaussianExpansion(exponents=shells, coefficients=start)
    c = partition.lisa_step2(w, radial, N, model).coefficients
    basis = proatoms.GaussianExpansion(exponents=shells, coefficients=np.ones(4)).basis_profiles(r)
    g = -(basis / (c @ basis)) @ (weights * r**2 * w)
    lam = float(c @ g) / N
    support = c >= 1e-6 * N
    assert np.max(np.abs(g[support] - lam)) <= 1e-9


@pytest.mark.parametrize("S, b, match", [
    (np.array([[1.0, 0.2], [0.1, 1.0]]), np.zeros(2), "symmetric"),
    (np.eye(3), np.zeros(2), "dimensions disagree"),
    (np.eye(2)[:, :1], np.zeros(2), "dimensions disagree"),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), np.zeros(2), "finite"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2), "symmetric|finite"),
    (np.eye(2), np.array([0.0, np.nan]), "finite"),
], ids=["asymmetric", "shape-square", "shape-column", "S-inf", "S-nan", "b-nan"])
def test_qp_problem_refuses_bad_data(S, b, match):
    with pytest.raises(ValueError, match=match):
        solvers.QpProblem(S=S, b=b, mass=1.0)


@pytest.mark.parametrize("start", [[1.2, -0.2], [0.6, 0.6], [0.5, 0.4], [1.0], [0.5, 0.5, 0.0]],
                         ids=["negative", "mass-high", "mass-low", "short", "long"])
def test_qp_refuses_infeasible_start(start):
    q = solvers.QpProblem(S=np.eye(2), b=np.zeros(2), mass=1.0)
    with pytest.raises(ValueError, match="start must be feasible"):
        solvers.solve_qp_nonneg(q, start=np.array(start))


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.2, -0.2], [0.6, 0.6], [1.0]],
                         ids=["zero", "negative", "mass-high", "short"])
def test_simplex_refuses_start_not_strictly_feasible(start):
    p = _quadratic_problem(np.eye(2), np.array([0.3, 0.7]), 1.0)
    with pytest.raises(ValueError, match="start must be strictly feasible"):
        solvers.solve_simplex_newton(p, start=np.array(start))


def test_simplex_refuses_newton_model_that_overflows():
    # H is finite, but (H + H^T)/2 overflows, so b = S c - g is not finite
    big = np.array([[1e308, 0.0], [0.0, 1.0]])
    p = solvers.SimplexProblem(dim=2, mass=1.0, objective=lambda c: 0.0,
                               gradient=lambda c: np.zeros(2), hessian=lambda c: big)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="QP data must be finite"):
        solvers.solve_simplex_newton(p)


def test_simplex_refuses_gradient_of_another_shape():
    p = solvers.SimplexProblem(dim=2, mass=1.0, objective=lambda c: 0.0,
                               gradient=lambda c: np.zeros((2, 1)), hessian=lambda c: np.eye(2))
    with pytest.raises(ValueError, match="dimensions disagree"):
        solvers.solve_simplex_newton(p)


def _reference_qp(S, b, mass, c):
    """The set-based active-set loop the solver's core replaced, kept as an oracle."""
    m = b.size

    def objective(x):
        return 0.5 * float(x @ S @ x) - float(b @ x)

    active = {k for k in range(m) if c[k] <= 0.0}
    obj = objective(c)
    for _ in range(100 * (m + 1)):
        free = sorted(set(range(m)) - active)
        if not free:
            active.discard(min(active))
            continue
        idx = np.array(free)
        nf = len(free)
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = S[np.ix_(idx, idx)]
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        sol = np.linalg.solve(kkt, np.concatenate([b[idx], [mass]]))
        c_free, lam = sol[:nf], sol[nf]
        if np.all(c_free >= -1e-14):
            trial = np.zeros(m)
            trial[idx] = np.maximum(c_free, 0.0)
            s = S @ trial - b + lam
            viol = [k for k in sorted(active) if s[k] < -1e-11]
            c, obj = trial, objective(trial)
            if not viol:
                return c
            active.discard(viol[0])
            continue
        d = np.zeros(m)
        d[idx] = c_free - c[idx]
        blocking, alpha = None, 1.0
        for k in free:
            if d[k] < -1e-15:
                step = -c[k] / d[k]
                if step < alpha - 1e-15:
                    alpha, blocking = step, k
        c = c + alpha * d
        if blocking is None:
            c = np.maximum(c, 0.0)
            continue
        c[blocking] = 0.0
        active.add(blocking)
        obj = objective(c)
    raise AssertionError("reference QP did not terminate")


def test_qp_core_matches_set_based_reference_bitwise():
    # the mask-based core takes the same steps in the same order: equal bits,
    # on starts with and without pinned coordinates and on active optima
    rng = np.random.default_rng(17)
    pinned_runs = 0
    for _ in range(300):
        m = int(rng.integers(1, 9))
        A = rng.normal(size=(m, m))
        S = A @ A.T + 0.05 * np.eye(m)
        b = rng.normal(size=m) * 3
        mass = float(rng.uniform(0.1, 5.0))
        start = rng.uniform(0.0, 1.0, size=m) * (rng.uniform(size=m) < 0.7)
        if start.sum() == 0.0:
            start[0] = 1.0
        start *= mass / start.sum()
        ref = _reference_qp(S, b, mass, start.copy())
        got = solvers.solve_qp_nonneg(solvers.QpProblem(S=S, b=b, mass=mass), start=start)
        assert np.array_equal(got, ref)
        pinned_runs += bool(np.any(got == 0.0))
    assert pinned_runs > 50
