"""Small dense constrained optimizers for the per-atom fitting subproblems.

Both problems live on the scaled simplex {c >= 0, sum(c) = mass}, and one
engine solves them: solve_qp_nonneg is a primal active-set QP (the GISA fit),
and solve_simplex_newton minimizes a smooth strictly convex objective (the
L-ISA fit) by sequential QP, one solve_qp_nonneg call per Newton model.
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
        if not np.allclose(self.S, self.S.T, atol=1e-12):
            raise ValueError("S must be symmetric")
        if not np.all(np.isfinite(self.S)) or not np.all(np.isfinite(self.b)):
            raise ValueError("QP data must be finite")

    @property
    def dim(self):
        return self.b.size


def simplex_kkt_residual(c, grad, mass):
    """Max violation of the KKT system of min F over {c>=0, sum c = mass}.

    The equality multiplier is estimated as the charge-weighted mean
    gradient, which equals the common gradient value on the support at an
    exact solution.
    """
    lam = float(c @ grad) / mass if mass > 0 else float(np.min(grad))
    comp = float(np.max(np.abs(c * (grad - lam)))) if c.size else 0.0
    dual = max(0.0, lam - float(np.min(grad)))
    prim = abs(float(np.sum(c)) - mass)
    return max(comp, dual, prim)


def solve_simplex_newton(problem, start=None):
    """Minimize a smooth strictly convex objective over the scaled simplex.

    Sequential QP: each step minimizes the Newton model 1/2 x^T S x - (S c - g)^T x,
    S = (H + H^T)/2 + 1e-12 I, over the simplex by solve_qp_nonneg warm-started at c,
    then moves toward x, at most 0.99 of the way to the nearest bound so that every
    iterate stays strictly positive, with Armijo backtracking unless the predicted
    decrease is at round-off scale. Returns c once its KKT residual is <= KKT_TOL and
    |x - c| <= 1e-10 max(1, mass): the c-weighted residual alone would accept a small
    shell whose gradient still misses the multiplier.
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
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            raise NumericalError("non-finite gradient or Hessian in the simplex solver")
        S = 0.5 * (H + H.T) + damping
        d = solve_qp_nonneg(QpProblem(S=S, b=S @ c - g, mass=mass), start=c) - c
        res = simplex_kkt_residual(c, g, mass)
        step = float(np.max(np.abs(d)))
        if res <= KKT_TOL and step <= step_tol:
            return c
        neg = d < 0
        alpha = min(1.0, 0.99 * float(np.min(-c[neg] / d[neg]))) if np.any(neg) else 1.0
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
    the monotone objective decrease rules out cycling.
    """
    S, b, mass = problem.S, problem.b, problem.mass
    m = problem.dim
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    if mass == 0.0:
        return np.zeros(m)
    max_iter = 100 * (m + 1)

    if start is None:
        c = np.full(m, mass / m)
    else:
        c = np.asarray(start, dtype=float).copy()
        if c.shape != (m,) or np.any(c < _FEAS_CLAMP) or abs(c.sum() - mass) > 1e-9 * max(1.0, mass):
            raise ValueError("start must be feasible")
        c = np.maximum(c, 0.0)
        c *= mass / c.sum()

    def objective(x):
        return 0.5 * float(x @ S @ x) - float(b @ x)

    active = {k for k in range(m) if c[k] <= 0.0}
    obj = objective(c)
    for _ in range(max_iter):
        free = sorted(set(range(m)) - active)
        if not free:
            # all mass pinned at zero is infeasible for mass > 0; release the
            # lowest-index constraint and retry
            active.discard(min(active))
            continue
        idx = np.array(free)
        Sff = S[np.ix_(idx, idx)]
        nf = len(free)
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = Sff
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        rhs = np.concatenate([b[idx], [mass]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "singular reduced KKT system (S indefinite beyond regularization)"
            ) from exc
        c_free = sol[:nf]
        lam = sol[nf]

        if np.all(c_free >= _FEAS_CLAMP):
            trial = np.zeros(m)
            trial[idx] = np.maximum(c_free, 0.0)
            # on free coordinates (S c - b)_f = -lam, so the equality multiplier
            # is -lam and dual feasibility of pinned coordinates reads
            # nu_k = (S c - b)_k + lam >= 0
            s = S @ trial - b + lam
            viol = [k for k in sorted(active) if s[k] < -1e-11]
            new_obj = objective(trial)
            if new_obj > obj + 1e-10 * max(1.0, abs(obj)):
                raise NumericalError("QP objective increased across an active-set step")
            c, obj = trial, new_obj
            if not viol:
                return c
            active.discard(viol[0])
            continue

        # partial step toward the reduced minimizer, stop at the first bound
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
            # numerical edge: the full step was feasible after all
            c = np.maximum(c, 0.0)
            continue
        c[blocking] = 0.0
        active.add(blocking)
        obj = objective(c)
    raise ConvergenceError(f"active-set QP did not terminate in {max_iter} iterations")
