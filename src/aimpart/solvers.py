"""Small dense constrained optimizers for the per-atom fitting subproblems.

Both problems live on the scaled simplex {c >= 0, sum(c) = mass}, and one
engine solves them: solve_qp_nonneg is a primal active-set QP (the GISA fit),
and solve_simplex_newton minimizes a smooth strictly convex objective (the
L-ISA fit) by sequential QP, one call of solve_qp_nonneg's active-set core per
Newton model. QP data are checked once, at the public entry (QpProblem).
Problem dimensions are shell counts (<= ~10), so everything is dense direct
linear algebra with deterministic lowest-index tie-breaking.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, NumericalError

__all__ = ["SimplexProblem", "QpProblem", "solve_simplex_newton", "solve_qp_nonneg"]

KKT_TOL = 1e-9
_FEAS_CLAMP = -1e-14
MAX_NEWTON = 200   # SQP steps per simplex solve


@dataclass
class SimplexProblem:
    """Smooth strictly convex objective over {c >= 0, sum(c) = mass}."""
    dim: int
    mass: float
    objective: Callable
    gradient: Callable
    hessian: Callable


@dataclass
class QpProblem:
    """min 1/2 c^T S c - b^T c  over {c >= 0, sum(c) = mass}."""
    S: np.ndarray
    b: np.ndarray
    mass: float

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        n = self.b.size
        if self.S.shape != (n, n):
            raise ValueError("S and b dimensions disagree")
        if not np.all(np.isfinite(self.S)) or not np.all(np.isfinite(self.b)):
            raise ValueError("QP data must be finite")
        if not np.allclose(self.S, self.S.T, atol=1e-12):
            raise ValueError("S must be symmetric")

    @property
    def dim(self):
        return self.b.size


def simplex_kkt_residual(c, grad, mass):
    """Max violation of the KKT system of min F over {c>=0, sum c = mass}.

    The equality multiplier is estimated as the charge-weighted mean
    gradient, which equals the common gradient value on the support at an
    exact solution.
    """
    low = float(grad.min())
    lam = float(c @ grad) / mass if mass > 0 else low
    comp = float(np.abs(c * (grad - lam)).max()) if c.size else 0.0
    dual = max(0.0, lam - low)
    prim = abs(float(c.sum()) - mass)
    return max(comp, dual, prim)


def solve_simplex_newton(problem, start=None):
    """Minimize a smooth strictly convex objective over the scaled simplex.

    Sequential QP: each step minimizes the Newton model 1/2 x^T S x - (S c - g)^T x,
    S = (H + H^T)/2 + 1e-12 I, over the simplex by the active-set core of
    solve_qp_nonneg warm-started at c, then moves toward x, at most 0.99 of the way
    to the nearest bound so that every iterate stays strictly positive, with Armijo
    backtracking unless the predicted decrease is at round-off scale. Returns c once
    its KKT residual is <= KKT_TOL and |x - c| <= 1e-10 max(1, mass): the c-weighted
    residual alone would accept a small shell whose gradient still misses the
    multiplier. The objective, gradient and Hessian are called once each per step,
    once at the start and once per Armijo trial point.
    """
    m, mass = problem.dim, problem.mass
    if mass <= 0:
        raise ValueError("simplex mass must be positive")
    if start is None:
        c = np.full(m, mass / m)
    else:
        c = np.asarray(start, dtype=float).copy()
        if c.shape != (m,) or np.any(c <= 0) or abs(c.sum() - mass) > 1e-9 * max(1.0, mass):
            raise ValueError("start must be strictly feasible")
        c *= mass / c.sum()
    if not np.isfinite(problem.objective(c)):
        raise NumericalError("objective not finite at the starting point "
                             "(basis decays too fast for this profile)")

    damping = 1e-12 * np.eye(m)
    step_tol = 1e-10 * max(1.0, mass)
    res = step = math.inf
    for _ in range(MAX_NEWTON):
        f = problem.objective(c)
        g = problem.gradient(c)
        H = problem.hessian(c)
        if not (np.isfinite(g).all() and np.isfinite(H).all()):
            raise NumericalError("non-finite gradient or Hessian in the simplex solver")
        # S is symmetric bit for bit and, with c > 0, finite wherever b is,
        # so the model skips QpProblem; only b's shape and finiteness are checked
        S = 0.5 * (H + H.T) + damping
        b = S @ c - g
        if b.shape != c.shape:
            raise ValueError("S and b dimensions disagree")
        if not np.isfinite(b).all():
            raise ValueError("QP data must be finite")
        d = _active_set(S, b, mass, c * (mass / c.sum())) - c
        res = simplex_kkt_residual(c, g, mass)
        step = float(np.abs(d).max())
        if res <= KKT_TOL and step <= step_tol:
            return c
        neg = d < 0
        alpha = min(1.0, 0.99 * float((-c[neg] / d[neg]).min())) if neg.any() else 1.0
        slope = float(g @ d)
        if -slope > 1e-13 * max(1.0, abs(f)):
            # Armijo backtracking; skipped once the predicted decrease is at
            # round-off scale, where the objective comparison is noise
            while alpha > 1e-14:
                trial = problem.objective(c + alpha * d)
                if np.isfinite(trial) and trial <= f + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
        c = c + alpha * d
    raise ConvergenceError(f"simplex SQP exceeded {MAX_NEWTON} steps "
                           f"(KKT residual {res:.2e}, bound {KKT_TOL:.0e}; "
                           f"step |x - c| {step:.2e}, bound {step_tol:.0e})")


def solve_qp_nonneg(problem, start=None):
    """Primal active-set method for the nonnegative mass-constrained QP.

    Returns c with c >= 0 (clamped at -1e-14), sum(c) = mass exactly to
    1e-12, and stationarity residual <= 1e-9. Ties in the blocking- and
    release-constraint choices go to the lowest index, which together with
    the monotone objective decrease rules out cycling. The problem's data
    were checked by QpProblem; the start is checked here. An objective that
    overflows double precision raises NumericalError.
    """
    m, mass = problem.dim, problem.mass
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    if mass == 0.0:
        return np.zeros(m)
    if start is None:
        c = np.full(m, mass / m)
    else:
        c = np.asarray(start, dtype=float).copy()
        if c.shape != (m,) or np.any(c < _FEAS_CLAMP) or abs(c.sum() - mass) > 1e-9 * max(1.0, mass):
            raise ValueError("start must be feasible")
        c = np.maximum(c, 0.0)
        c *= mass / c.sum()
    return _active_set(problem.S, problem.b, mass, c)


def _active_set(S, b, mass, c):
    """The active-set iterations of solve_qp_nonneg on data it trusts.

    S is symmetric and finite, b finite, mass > 0, and c >= 0 sums to mass.
    While no bound is active, the common case inside the simplex solver, the
    KKT system is S bordered by ones, built without index gathers.
    """
    m = b.size
    max_iter = 100 * (m + 1)

    def objective(x):
        # x^T S x grows as mass^2, so it can overflow where the data do not
        with np.errstate(over="ignore", invalid="ignore"):
            value = 0.5 * float(x @ S @ x) - float(b @ x)
        if not math.isfinite(value):
            raise NumericalError(f"the QP objective overflows double precision at mass "
                                 f"{mass:.3g}: its quadratic term grows as the mass squared")
        return value

    active = c <= 0.0
    obj = objective(c)
    for _ in range(max_iter):
        if active.any():
            idx = np.flatnonzero(~active)
            Sff, bf, cf = S[idx[:, None], idx], b[idx], c[idx]
        else:
            idx, Sff, bf, cf = None, S, b, c
        nf = bf.size
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = Sff
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        rhs = np.empty(nf + 1)
        rhs[:nf] = bf
        rhs[nf] = mass
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "singular reduced KKT system (S indefinite beyond regularization)"
            ) from exc
        c_free = sol[:nf]
        lam = sol[nf]

        if c_free.min() >= _FEAS_CLAMP:
            x = np.maximum(c_free, 0.0)
            if idx is None:
                trial = x
            else:
                trial = np.zeros(m)
                trial[idx] = x
            new_obj = objective(trial)
            if new_obj > obj + 1e-10 * max(1.0, abs(obj)):
                raise NumericalError("QP objective increased across an active-set step")
            c, obj = trial, new_obj
            if idx is None:
                return c
            # on free coordinates (S c - b)_f = -lam, so the equality multiplier
            # is -lam and dual feasibility of pinned coordinates reads
            # nu_k = (S c - b)_k + lam >= 0
            viol = active & (S @ trial - b + lam < -1e-11)
            if not viol.any():
                return c
            active[viol.argmax()] = False
            continue

        # partial step toward the reduced minimizer, stop at the first bound;
        # pinned coordinates have d = 0, so only free ones can block
        if idx is None:
            d = c_free - c
        else:
            d = np.zeros(m)
            d[idx] = c_free - cf
        blocking, alpha = None, 1.0
        for k in np.flatnonzero(d < -1e-15).tolist():
            step = -c[k] / d[k]
            if step < alpha - 1e-15:
                alpha, blocking = step, k
        c = c + alpha * d
        if blocking is None:
            # numerical edge: the full step was feasible after all
            c = np.maximum(c, 0.0)
            continue
        c[blocking] = 0.0
        active[blocking] = True
        obj = objective(c)
    raise ConvergenceError(f"active-set QP did not terminate in {max_iter} iterations")
