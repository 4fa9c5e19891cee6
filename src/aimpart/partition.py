"""The alternating atoms-in-molecules engine and its six pro-atom strategies.

One iteration of the generic scheme:

* Step 1 (explicit): stockholder allocation. Each atom receives
  rho_a(r) = [w_a(|r|) / sum_b w_b(|r - R_b + R_a|)] * rho(R_a + r), with
  the 0/0 -> 0 convention where the pro-molecule vanishes.
* Step 2 (method-specific): refit each atom's radial pro-atom to its current
  share under the charge constraint. A radial refit sees the share only
  through its spherical average on the atom's radial nodes and its charge.

The total relative entropy S = sum_a s_KL(rho_a | rho_a^0) is recorded every
iteration; for ISA and L-ISA it must not increase (it is a Lyapunov function
of the exact iteration), and a rise beyond slack aborts the run because it
can only come from a quadrature or solver defect.
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import total_charge
from .errors import ConvergenceError, EntropyIncreaseError, NumericalError, ValidationError
from .grids import AtomicGridSet, integrate_atom, integrate_radial, spherical_average
from .moments import atomic_moments
from .proatoms import (
    GaussianExpansion,
    SlaterShells,
    TabulatedProfile,
    default_exponents,
    default_shell_count,
)
from .solvers import QpProblem, SimplexProblem, solve_qp_nonneg, solve_simplex_newton

__all__ = [
    "METHODS",
    "PartitionOptions",
    "PartitionResult",
    "StockholderEngine",
    "isa_step2",
    "hirshfeld_i_step2",
    "lisa_step2",
    "gisa_step2",
    "mbisa_update",
    "kl_entropy",
    "run_partition",
]

METHODS = ("hirshfeld", "hirshfeld-i", "isa", "gisa", "lisa", "mbisa")

ENTROPY_SLACK = 1e-8
LOST_CHARGE_WARN = 1e-6
ISA_GUESS_EXPONENT = 2.0   # Slater exponent of the ISA initial pro-atoms
SHELL_FLOOR = 1e-12        # MB-ISA shells with less charge are frozen at zero
TINY = 5e-324              # least positive double: the floor of 0/0 = 0 and 0 log 0 = 0
_MOVED = (None, None)      # shell-stack cache entry of a pair whose exponents moved


@dataclass
class PartitionOptions:
    tol: float = 1e-8
    tol_l2: float = 1e-8
    max_iter: int = 500
    exponents: list = None       # per-atom exponent lists (gisa/lisa/mbisa)
    init_coefficients: str | list = "balanced"   # or one coefficient row per atom
    proatom_tables: dict = None  # hirshfeld: {atom: TabulatedProfile};
                                 # hirshfeld-i: {atom: HirshfeldITable}


@dataclass
class PartitionResult:
    method: str
    converged: bool
    iterations: int
    charges: np.ndarray            # N_a
    dipoles: np.ndarray            # (M, 3) about each atom
    second_moments: np.ndarray     # (M, 3, 3)
    profiles: list                 # per atom (radial nodes, w_a values)
    pro_models: list
    entropy_trace: list
    charge_history: list           # per-iteration N_a arrays
    l2_step_sq_history: list       # per-iteration sum_a |drho_a|_L2^2
    density_sup: float
    lost_charge: float
    elapsed_seconds: float
    messages: list = field(default_factory=list)


class StockholderEngine:
    """Step 1 of every method: stockholder shares on a fixed grid set.

    Pro-atoms are radial, so an atom's own pro-atom on its own grid is
    evaluated once per atom as an (N_r, 1) column, O(N_r) per iteration;
    only the cross terms w_b (b != a) read the distance tables, and only on
    atom a's U distinct angular columns (`AtomicGridSet.fold`): the
    pro-molecule is summed on (N_r, U) and expanded to (N_r, N_Omega) once
    per atom and iteration. A TabulatedProfile is read through the grid
    set's per-pair RadialStencil. The stacked shells of a ShellExpansion are
    cached per atom pair with the kernel class and exponents they were built
    for, so iterations with fixed exponents (GISA, L-ISA) only pay for a
    coefficient contraction; once the exponents differ from the cached ones
    (MB-ISA), the stack is dropped for good and the model's own `profile`
    sums the shells one by one.
    """

    def __init__(self, grids: AtomicGridSet):
        if grids.samples is None:
            raise ValueError("grid set has no cached density samples")
        self.grids = grids
        self._basis_cache = {}

    def _profile_values(self, model, a, b):
        """w_b on atom a's grid: (N_r, 1) for b == a, else (N_r, U) on the folded columns."""
        if isinstance(model, TabulatedProfile):
            return self.grids.stencil(a, b, model.nodes, model.rmax)(model.values)
        dists = self.grids.folded_distances(a, b)
        kernel = (type(model), model.exponents)
        cached = self._basis_cache.get((a, b))
        if cached is None:
            cached = (kernel, model.basis_profiles(dists))
            self._basis_cache[(a, b)] = cached
        if cached[0] == kernel:
            return np.tensordot(model.coefficients, cached[1], axes=1)
        # the exponents moved since the stack was built (MB-ISA): they will
        # not come back, and a new stack would be contracted only once
        self._basis_cache[(a, b)] = _MOVED
        return model.profile(dists)

    def promolecule(self, pro_models, a):
        """sum_b w_b(|r - R_b + R_a|) on atom a's grid, summed in b order.

        The sum runs on atom a's distinct angular columns; the gather that
        expands it keeps the result C-ordered, the layout the later
        contractions over the angular weights are summed in.
        """
        nr, n_omega = self.grids.samples[a].shape
        fold = self.grids.fold(a)
        total = np.zeros((nr, n_omega if fold is None else fold[0].size))
        for b, model in enumerate(pro_models):
            total += self._profile_values(model, a, b)
        return total if fold is None else np.take(total, fold[1], axis=1)

    def allocate(self, pro_models):
        """Stockholder shares of the cached density for the given pro-atoms.

        Returns (shares, lost_charge): per-atom sample arrays, plus the
        charge sitting where the pro-molecule vanishes but the density does
        not (allocated to nobody by the 0/0 convention). Where the pro-molecule
        vanishes so does the own pro-atom, one of its nonnegative terms, so
        flooring the pro-molecule at TINY makes that share 0/TINY = 0.
        """
        shares = []
        lost = 0.0
        for a in range(self.grids.natom):
            rho = self.grids.samples[a]
            own = self._profile_values(pro_models[a], a, a)
            denom = self.promolecule(pro_models, a)
            if denom.min() <= 0.0:
                dead = (denom <= 0.0) & (rho > 0.0)
                lost = max(lost, integrate_atom(self.grids, a, np.where(dead, rho, 0.0)))
            share = own / np.maximum(denom, TINY, out=denom)
            share *= rho
            shares.append(share)
        return shares, lost


def kl_entropy(samples, pro_model, grids, atom, average=None):
    """s_KL(rho_a | rho_a^0) on one atom's grid, honoring the 0-conventions.

    S = int rho_a log rho_a - int rho_a log w0. The pro-atom w0 is radial, so
    the second term is a radial integral of the spherical average of rho_a
    against log w0 on the radial nodes. `average` is that spherical average
    when the caller already holds it; by default it is computed from
    `samples`. Both logs are of values floored at TINY, so rho_a = 0
    contributes 0 * log(TINY) = 0 (0 log 0 = 0). A point with rho_a > 0 on a
    radial row where w0 <= 0 makes the divergence +inf; that is tested point
    by point, not on the average, because Lebedev weights can be negative.
    Raises NumericalError, naming the atom, when the divergence is otherwise
    not finite: the share's values then overflow rho log rho.
    """
    rho = np.asarray(samples, dtype=float)
    w0 = pro_model.profile(grids.radial[atom].nodes)
    if (rho[w0 <= 0.0] > 0.0).any():
        return math.inf
    # log rho and log w0 apart, not log(rho / w0): the quotient overflows
    # where a tight pro-atom is denormal under a diffuse share
    rho_log_rho = np.maximum(rho, TINY)
    np.log(rho_log_rho, out=rho_log_rho)
    log_w0 = np.log(np.maximum(w0, TINY))
    if average is None:
        average = spherical_average(rho, grids.angular[atom])
    with np.errstate(over="ignore", invalid="ignore"):
        rho_log_rho *= rho
        cross = integrate_radial(grids.radial[atom], average * log_w0)
        s = integrate_atom(grids, atom, rho_log_rho) - cross
    if not math.isfinite(s):
        raise NumericalError("the density's values overflow rho log rho: the relative "
                             f"entropy is not finite at atom {atom}")
    return s


def isa_step2(w, radial):
    """The share's spherical average w, tabulated on the atom's radial nodes."""
    return TabulatedProfile(nodes=radial.nodes, values=np.maximum(w, 0.0), rmax=radial.rmax)


def hirshfeld_i_step2(N_a, table):
    """Pro-atom for the current fractional electron count (see HirshfeldITable)."""
    return table.interpolated(N_a)


def lisa_step2(w, radial, N_a, model):
    """KL-optimal nonnegative Gaussian expansion of a radial profile.

    Minimizes F(c) = -int r^2 w(r) log(sum_k c_k g_k(r)) dr over the simplex
    {c >= 0, sum c = N_a}, where g_k are the normalized Gaussian shells of
    `model`, with the atom's radial quadrature. The solve starts from the
    model's coefficients rescaled to N_a when all are positive, else from the
    balanced point. Objective, gradient and Hessian share one evaluation of
    the last point they were called at (mix = c @ basis, F and g_k / mix),
    so the solver's repeated calls at one point cost one evaluation.
    """
    exponents = model.exponents
    if N_a <= 0:
        return GaussianExpansion(exponents=exponents, coefficients=np.zeros(len(exponents)))
    quad = radial.weights * radial.nodes**2 * w
    basis = model.basis_profiles(radial.nodes)
    support = quad > 0.0   # nodes where mix must stay positive
    terms = quad != 0.0    # nodes with a log term
    last = {}   # what has been computed at the last point, under its bytes

    def at(c):
        key = c.tobytes()   # a copy of the values: a point changed in place misses
        if last.get("key") != key:
            last.clear()
            last["key"] = key
            last["mix"] = c @ basis
        return last

    def objective(c):
        point = at(c)
        if "f" not in point:
            mix = point["mix"]
            if ((mix <= 0.0) & support).any():
                point["f"] = math.inf
            else:
                log = np.log(mix, out=np.zeros_like(mix), where=terms)
                point["f"] = -float((quad * log).sum())
        return point["f"]

    def ratio(c):
        point = at(c)
        if "ratio" not in point:
            mix = point["mix"]   # g_k / mix <= 1/c_k stays finite where mix is denormal
            point["ratio"] = np.divide(basis, mix, out=np.zeros_like(basis), where=mix > 0.0)
        return point["ratio"]

    def gradient(c):
        return -ratio(c) @ quad

    def hessian(c):
        r = ratio(c)
        return (r * quad) @ r.T

    cur = model.coefficients
    start = cur * (N_a / cur.sum()) if np.all(cur > 0) else None
    problem = SimplexProblem(dim=len(exponents), mass=float(N_a),
                             objective=objective, gradient=gradient, hessian=hessian)
    c = solve_simplex_newton(problem, start=start)
    return GaussianExpansion(exponents=exponents, coefficients=np.maximum(c, 0.0))


def gisa_overlap(exponents):
    """[S]_kl = 2 int zeta_k zeta_l = (2/pi^{3/2}) (a_k a_l)^{3/2} (a_k+a_l)^{-3/2}."""
    a = np.asarray(exponents, dtype=float)
    num = (a[:, None] * a[None, :]) ** 1.5
    den = (a[:, None] + a[None, :]) ** 1.5
    return 2.0 / math.pi**1.5 * num / den


def gisa_step2(w, radial, N_a, model):
    """L2-optimal nonnegative Gaussian expansion of the share (a small QP).

    Minimizes |sum_k c_k zeta_k - rho_a|_L2^2 over {c >= 0, sum c = N_a}, with
    zeta_k the shells of `model`, i.e. 1/2 c^T S c - c^T b with the
    closed-form overlaps S = 2 int zeta zeta and b_k = 2 int zeta_k rho_a =
    2 int zeta_k w (the shells are radial, so only the spherical average w
    enters). An ill-conditioned overlap is regularized on the diagonal by
    1e-12 and the regularization is reported in the returned messages.
    """
    exponents = model.exponents
    S = gisa_overlap(exponents)
    messages = []
    cond = np.linalg.cond(S)
    if cond > 1e14:
        S = S + 1e-12 * np.eye(len(exponents))
        messages.append(f"ill-conditioned shell overlap (cond {cond:.1e}); "
                        "diagonal regularized by 1e-12")
    wr = radial.volume * w
    b = 2.0 * (model.basis_profiles(radial.nodes) @ wr)
    c = solve_qp_nonneg(QpProblem(S=S, b=b, mass=float(N_a)))
    return GaussianExpansion(exponents=exponents, coefficients=np.maximum(c, 0.0)), messages


def mbisa_update(w, radial, model):
    """Explicit shell update: c_k = shell share charge, a_k = 3 c_k / <|r|>.

    Shell k receives c_k s_k(r) / w_0(r) of the atom's stockholder share,
    with w_0 = sum_k c_k s_k the current pro-atom `model`. That fraction is
    radial, so each shell's charge and first moment is a contraction of a
    (K, N_r) radial table with the share's spherical average w. A shell whose
    charge falls below SHELL_FLOOR is frozen at zero (its exponent kept) and
    reported in the returned messages.
    """
    if not isinstance(model, SlaterShells):
        raise ValueError("mbisa_update requires SlaterShells pro-atoms")
    shells = model.coefficients[:, None] * model.basis_profiles(radial.nodes)
    own = shells.sum(axis=0)
    table = shells * np.divide(radial.volume * w, own, out=np.zeros_like(own), where=own > 0.0)
    new_c = table.sum(axis=1)
    moment1 = table @ radial.nodes
    new_a = np.array(model.exponents, dtype=float)
    messages = []
    for k, ck in enumerate(model.coefficients):
        if new_c[k] < SHELL_FLOOR:
            if ck != 0.0:
                messages.append(f"shell {k}: charge underflow ({new_c[k]:.1e}); frozen at 0")
            new_c[k] = 0.0
            continue
        new_a[k] = 3.0 * new_c[k] / moment1[k]
    return SlaterShells(exponents=tuple(new_a), coefficients=new_c), messages


def _init_models(method, Z, grids, opts, N_total):
    M = grids.natom
    if method in ("hirshfeld", "hirshfeld-i"):
        tables = opts.proatom_tables or {}
        missing = [a for a in range(M) if a not in tables]
        if missing:
            raise ValidationError([f"missing pro-atom table for atom {a}" for a in missing])
        if method == "hirshfeld":
            return [tables[a] for a in range(M)]
        # initial charges proportional to Z, rescaled so they sum to N
        scale = N_total / sum(Z)
        return [hirshfeld_i_step2(Z[a] * scale, tables[a]) for a in range(M)]
    if method == "isa":
        return [isa_step2(SlaterShells((ISA_GUESS_EXPONENT,), [Z[a]]).profile(radial.nodes),
                          radial) for a, radial in enumerate(grids.radial)]
    # expansion methods: atom a has one shell per entry of exponents[a]
    exponents = opts.exponents or [default_exponents(z, default_shell_count(z)) for z in Z]
    if len(exponents) != M or not all(len(row) for row in exponents):
        raise ValidationError(["need one nonempty exponent list per atom"])
    init = opts.init_coefficients
    if isinstance(init, str):
        if init != "balanced":
            raise ValidationError([f"init_coefficients {init!r}: expected 'balanced' "
                                   "or one coefficient row per atom"])
        init = [np.full(len(row), z / len(row)) for z, row in zip(Z, exponents)]
    if len(init) != M:
        raise ValidationError([f"init_coefficients has {len(init)} rows for {M} atoms"
                               + "".join(f"; atom {a} has none" for a in range(len(init), M))])
    cls = SlaterShells if method == "mbisa" else GaussianExpansion
    models, problems = [], []
    for a, row in enumerate(init):
        c = np.asarray(row, dtype=float)
        if c.size != len(exponents[a]):
            problems.append(f"atom {a}: initial guess has {c.size} entries "
                            f"for {len(exponents[a])} exponents")
        # a float sum overflows to inf without the warning numpy's would give
        elif not (np.all(c >= 0) and math.isfinite(sum(c.tolist()))):
            problems.append(f"atom {a}: initial guess {c.tolist()} must be "
                            "finite and nonnegative")
        else:
            try:
                models.append(cls(exponents=tuple(exponents[a]), coefficients=c))
            except ValueError as exc:   # an exponent outside EXPONENT_RANGE
                problems.append(f"atom {a}: {exc}")
    if problems:
        raise ValidationError(problems)
    return models


def run_partition(method, rho, grids, options=None, Z=None):
    """Alternate Step 1 / Step 2 for the chosen method until convergence.

    `rho` is a density model, used for its exact total charge and its
    samples: the grid set's cached samples serve when they were taken of
    `rho.eval`, else the grid set samples `rho.eval` again. `Z` gives
    per-atom pro-atom masses for the initial guess, one finite positive
    entry per atom (defaults to 1 per atom for synthetic densities).

    Convergence requires both max_a |N_a change| < tol and
    max_a ||rho_a change||_L2 < tol_l2; tolerances of 0 run all max_iter
    iterations, and negative ones or max_iter < 1 raise ValidationError.
    Non-convergence returns a result flagged converged=False; an entropy
    increase beyond slack for ISA/L-ISA raises EntropyIncreaseError, and a
    density whose values overflow the L2 step raises NumericalError. A
    NumericalError or ConvergenceError from a step-2 refit is raised again
    as the same type with " (iteration k, atom a)" appended.
    """
    if method not in METHODS:
        raise ValidationError([f"unknown method {method!r}; choose from {METHODS}"])
    opts = options or PartitionOptions()
    problems = [f"{name} must be nonnegative, got {value!r}"
                for name, value in (("tol", opts.tol), ("tol_l2", opts.tol_l2))
                if not value >= 0]
    if not opts.max_iter >= 1:
        problems.append(f"max_iter must be at least 1, got {opts.max_iter!r}")
    M = grids.natom
    if Z is None:
        Z = [1] * M
    if len(Z) != M:
        problems.append(f"Z has {len(Z)} entries for {M} atoms")
    problems += [f"Z[{a}] must be finite and positive, got {z!r}"
                 for a, z in enumerate(Z) if not (z > 0 and math.isfinite(z))]
    if problems:
        raise ValidationError(problems)
    grids.check_axial()
    if grids.sampled_from != rho.eval:
        grids.sample_density(rho.eval)

    t0 = time.perf_counter()
    engine = StockholderEngine(grids)
    N_total = total_charge(rho)
    pro_models = _init_models(method, Z, grids, opts, N_total)
    density_sup = max(float(np.max(s)) for s in grids.samples)

    prev_shares = None
    prev_charges = np.full(M, math.nan)
    entropy_trace = []
    charge_history = []
    l2_hist = []
    messages = []
    lost_worst = 0.0
    converged = False

    max_iter = 1 if method == "hirshfeld" else opts.max_iter
    for m_iter in range(1, max_iter + 1):
        # Step 1: explicit stockholder allocation
        shares, lost = engine.allocate(pro_models)
        lost_worst = max(lost_worst, lost)
        avg = [spherical_average(shares[a], grids.angular[a]) for a in range(M)]
        charges = np.array([integrate_radial(grids.radial[a], avg[a]) for a in range(M)])
        charge_history.append(charges)

        # step norms against the previous allocation, squared in the previous
        # share's array, which is not read again; a change above about 1e154
        # squares past the largest double
        if prev_shares is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                for a in range(M):
                    np.subtract(shares[a], prev_shares[a], out=prev_shares[a])
                    np.square(prev_shares[a], out=prev_shares[a])
                norms_sq = np.array([integrate_atom(grids, a, prev_shares[a]) for a in range(M)])
            if not np.isfinite(norms_sq).all():
                raise NumericalError(
                    "the density's values overflow the L2 step: |rho_a change|^2 is not "
                    f"finite at atom {int(np.argmin(np.isfinite(norms_sq)))}")
        else:
            norms_sq = np.full(M, math.inf)
        l2_hist.append(float(np.sum(norms_sq)))

        # Step 2: refit each pro-atom to its share's spherical average and charge
        for a in range(M):
            w, radial, N_a, model = avg[a], grids.radial[a], charges[a], pro_models[a]
            msgs = []
            try:
                if method == "isa":
                    model = isa_step2(w, radial)
                elif method == "hirshfeld-i":
                    model = hirshfeld_i_step2(N_a, opts.proatom_tables[a])
                elif method == "lisa":
                    model = lisa_step2(w, radial, N_a, model)
                elif method == "gisa":
                    model, msgs = gisa_step2(w, radial, N_a, model)
                elif method == "mbisa":
                    model, msgs = mbisa_update(w, radial, model)
            except (NumericalError, ConvergenceError) as exc:
                raise type(exc)(f"{exc} (iteration {m_iter}, atom {a})") from exc
            pro_models[a] = model
            messages.extend(f"iteration {m_iter}: atom {a}: {msg}" for msg in msgs)

        S = sum(kl_entropy(shares[a], pro_models[a], grids, a, avg[a]) for a in range(M))
        if (method in ("isa", "lisa") and entropy_trace
                and S > entropy_trace[-1] + ENTROPY_SLACK):
            raise EntropyIncreaseError(
                f"{method} entropy rose from {entropy_trace[-1]:.12g} to {S:.12g} "
                f"at iteration {m_iter}")
        entropy_trace.append(S)

        dN = float(np.max(np.abs(charges - prev_charges)))
        dL2 = float(np.sqrt(np.max(norms_sq)))
        prev_charges, prev_shares = charges, shares
        if method == "hirshfeld" or (dN < opts.tol and dL2 < opts.tol_l2):
            converged = True
            break

    if lost_worst > LOST_CHARGE_WARN * N_total:
        msg = (f"convention-zero allocation lost {lost_worst:.3e} charge "
               f"(> {LOST_CHARGE_WARN:g} of N = {N_total:g})")
        messages.append(msg)
        warnings.warn(msg, stacklevel=2)

    dipoles = np.empty((M, 3))
    seconds = np.empty((M, 3, 3))
    profiles = []
    for a in range(M):
        mom = atomic_moments(prev_shares[a], grids, a)
        dipoles[a] = mom.p
        seconds[a] = mom.Q
        profiles.append((grids.radial[a].nodes.copy(), avg[a]))

    return PartitionResult(
        method=method,
        converged=converged,
        iterations=len(charge_history),
        charges=prev_charges,
        dipoles=dipoles,
        second_moments=seconds,
        profiles=profiles,
        pro_models=pro_models,
        entropy_trace=entropy_trace,
        charge_history=charge_history,
        l2_step_sq_history=l2_hist,
        density_sup=density_sup,
        lost_charge=lost_worst,
        elapsed_seconds=time.perf_counter() - t0,
        messages=messages,
    )
