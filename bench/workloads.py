"""Seeded inputs, set-up, timed operations and correctness checks.

Two workloads run every operation the benchmark times, in two regimes:

* ``bent3``: a mirror-symmetric bent 3-atom molecule (an O-like centre made
  of Slater and Gaussian terms, N=8, and two H-like Slater centres) on a log
  radial grid of 200 nodes with Lebedev 110, about 22k points (176 KB) per
  atom array, so one atom's arrays sit in a core's L2 cache. Its DMA input is
  27 primitives (s/p/d, one exponent per centre) on 5 sites, with products
  up to rank 4.
* ``dense2``: the axial Slater + Gaussian diatomic of acceptance criterion 3
  on a Gauss-Legendre radial grid of 1000 nodes with an axial angular grid of
  100, about 100k points (800 KB) per atom array; step 1 for one atom reads
  and writes five such arrays (4 MB, twice a core's L2), so it streams from
  memory. Its DMA input is 16 primitives (s/p x 2 exponents on two centres)
  on 3 sites, where per-call overhead dominates.

The sizes keep every operation within a few seconds, so that a run of a
minute times each of them several times.

The seed perturbs geometry and exponents by at most 0.1 % and draws the DMA
coefficient matrix, keeping the bent molecule mirror-symmetric. The library
only sees the generated inputs.
"""

import json
import math
import pathlib
from dataclasses import dataclass, replace

import numpy as np

from aimpart import CONVENTIONS_VERSION, density, dma, grids, partition, proatoms

WORKLOADS = ("bent3", "dense2")
DEFAULT_SEED = 0
REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

PARTITION_OPS = tuple(f"solve_{m.replace('-', '_')}" for m in partition.METHODS)
OPS = PARTITION_OPS + ("dma_stone", "dma_vigne_maeder", "esp_multipole", "esp_exact")
METHOD_OF_OP = dict(zip(PARTITION_OPS, partition.METHODS))

DMA_LMAX = 4
JITTER = 0.001

# Charge-sum tolerances |sum_a N_a - N|, a few times the largest defect each
# method showed over seeds 0-9. The defect is the grid's, recorded as it
# is: tabulated pro-atoms carry the O(h^2) bias of piecewise-linear
# interpolation, and each atom's grid integrates shares that switch sharply
# near the other nuclei. On bent3 the compact bundled O pro-atom (a = 2Z)
# hands O valence density to the H grids, so hirshfeld and hirshfeld-i miss N
# by 6-10 %. On dense2 hirshfeld, hirshfeld-i and isa all miss N by
# 3.0e-5 on every seed. A conservation bug moves the sum by more than these
# bounds.
DEFECT_TOL = {
    "bent3": {"hirshfeld": 0.2, "hirshfeld-i": 0.3, "isa": 1e-2,
              "gisa": 3e-3, "lisa": 2e-3, "mbisa": 5e-5},
    "dense2": {"hirshfeld": 1e-4, "hirshfeld-i": 1e-4, "isa": 1e-4,
               "gisa": 1e-7, "lisa": 1e-7, "mbisa": 1e-8},
}
# Reference comparison at the default seed. Partition answers are converged
# to tol = 1e-6 per iteration; 1e-4 leaves room for a different but correct
# iteration path (for example an accelerated step 2). DMA and ESP are exact
# arithmetic, so only summation order may move them.
PARTITION_ATOL = 1e-4
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-10
MIRROR_TOL = 1e-8
DMA_CHARGE_TOL = 1e-10
DIPOLE_TOL = 1e-9
ESP_AGREE_RTOL = 1e-3


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; the self-tests shrink them."""
    name: str
    nr: int
    radial_kind: str
    rmax: float
    angular: int
    angular_kind: str
    tol: float
    dma_l: tuple           # angular momenta of the DMA primitives
    n_far: int = 200       # far-field points for esp_multipole
    n_exact: int = 5       # of those, points for esp_exact
    esp_nr: int = 60
    esp_angular: int = 50
    esp_rmax: float = 10.0


SPECS = {
    "bent3": Spec("bent3", 200, "log", 14.0, 110, "lebedev", 1e-6, (0, 1, 2)),
    "dense2": Spec("dense2", 1000, "gauss_legendre", 14.0, 100, "axial", 1e-6, (0, 1)),
}


def small_spec(name):
    """A few-second version of a workload for the self-tests."""
    spec = SPECS[name]
    if name == "bent3":
        return replace(spec, nr=60, angular=26, tol=1e-5, dma_l=(0, 1), n_far=20,
                       n_exact=2, esp_nr=30, esp_angular=26)
    return replace(spec, nr=300, angular=40, tol=1e-5, dma_l=(0,), n_far=20,
                   n_exact=2, esp_nr=30, esp_angular=26)


@dataclass
class Inputs:
    spec: Spec
    positions: np.ndarray
    Z: list
    terms: list              # AnalyticDensity terms
    exponents: dict          # method -> per-atom exponent ladders; absent: defaults
    dma_exponents: list      # per-atom tuple of primitive exponents
    dma_sites: np.ndarray
    dma_labels: list
    P_factor: np.ndarray     # P = P_factor @ P_factor.T, then scaled to N
    far_points: np.ndarray


def make_inputs(spec, seed):
    rng = np.random.default_rng(seed)

    def jitter(x):
        return x * (1.0 + JITTER * rng.uniform(-1.0, 1.0))

    if spec.name == "bent3":
        r_oh, angle = jitter(1.81), math.radians(jitter(104.5))
        hx, hz = r_oh * math.sin(angle / 2), r_oh * math.cos(angle / 2)
        positions = np.array([[0.0, 0.0, 0.0], [hx, 0.0, hz], [-hx, 0.0, hz]])
        a_h = jitter(2.0)
        terms = [("slater_s", positions[0], jitter(15.0), 2.0),
                 ("slater_s", positions[0], jitter(3.0), 5.0),
                 ("gaussian_s", positions[0], jitter(1.0), 1.0),
                 ("slater_s", positions[1], a_h, 1.0),
                 ("slater_s", positions[2], a_h, 1.0)]
        Z = [8, 1, 1]
        # gisa and lisa need a diffuse ladder: the default one fails here (see
        # the lisa-defaults probe); mbisa starts from the defaults
        ladders = [[0.2, 0.8, 3.0, 12.0, 48.0, 190.0]] + [[0.1, 0.4, 1.6, 6.4]] * 2
        exponents = {"gisa": ladders, "lisa": ladders}
        dma_exponents = [(jitter(1.2),)] + [(jitter(0.8),)] * 2
        sites = np.vstack([positions, 0.5 * (positions[0] + positions[1]),
                           0.5 * (positions[0] + positions[2])])
        labels = ["O", "H1", "H2", "O-H1", "O-H2"]
    elif spec.name == "dense2":
        sep = jitter(2.0)
        positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, sep]])
        terms = [("slater_s", positions[0], jitter(1.8), 1.0),
                 ("gaussian_s", positions[1], jitter(0.7), 1.0)]
        Z = [1, 1]
        # the smooth ladder of acceptance criterion 3
        ladders = [[0.2, 0.8, 3.0, 12.0]] * 2
        exponents = {"gisa": ladders, "lisa": ladders, "mbisa": ladders}
        dma_exponents = [(jitter(0.5), jitter(1.8)), (jitter(0.4), jitter(1.4))]
        sites = np.vstack([positions, 0.5 * (positions[0] + positions[1])])
        labels = ["A", "B", "A-B"]
    else:
        raise ValueError(f"unknown workload {spec.name!r}")
    n_prim = sum(map(len, dma_exponents)) * sum(2 * l + 1 for l in spec.dma_l)
    P_factor = 0.3 * rng.normal(size=(n_prim, 10))
    directions = rng.normal(size=(spec.n_far, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    far = directions * rng.uniform(15.0, 25.0, size=(spec.n_far, 1))
    return Inputs(spec=spec, positions=positions, Z=Z, terms=terms,
                  exponents=exponents,
                  dma_exponents=dma_exponents, dma_sites=sites, dma_labels=labels,
                  P_factor=P_factor, far_points=far)


def _primitives(inputs):
    return [density.PrimitiveGaussian(center=center, l=l, m=m, exponent=e)
            for center, exps in zip(inputs.positions, inputs.dma_exponents)
            for l in inputs.spec.dma_l for e in exps for m in range(-l, l + 1)]


def normalised_P(inputs):
    """The DMA coefficient matrix, scaled so the density holds N = sum(Z).

    This is part of making the input, not of set-up; the exact charge of the
    DMA density is N by construction.
    """
    P = inputs.P_factor @ inputs.P_factor.T
    raw = density.GtoDensity(primitives=tuple(_primitives(inputs)), P=P)
    return P * (sum(inputs.Z) / density.total_charge(raw))


@dataclass
class Prepared:
    rho: density.AnalyticDensity
    N: float
    gs: grids.AtomicGridSet
    tables: dict
    itables: dict
    gto: density.GtoDensity
    sites: dma.SiteSet
    esp_grids: grids.AtomicGridSet


def setup(inputs, P):
    """Everything an operation needs that a user builds once per input.

    Partition: grids, density samples, the distance tables the engine
    reads lazily, and pro-atom tables. DMA: the primitive basis and its
    density, the site set, and the small grid esp_exact integrates on.
    """
    spec = inputs.spec
    rho = density.AnalyticDensity(terms=inputs.terms)
    radial = grids.build_radial(spec.nr, spec.rmax, spec.radial_kind)
    gs = grids.AtomicGridSet(inputs.positions, radial,
                             grids.build_angular(spec.angular, spec.angular_kind))
    gs.sample_density(rho.eval)
    for a in range(gs.natom):
        for b in range(gs.natom):
            gs.distances(a, b)
    nodes = radial.nodes
    tables = {a: proatoms.synthetic_proatom_table(z, z, nodes, spec.rmax)
              for a, z in enumerate(inputs.Z)}
    itables = {a: proatoms.HirshfeldITable(z, {
        n: proatoms.synthetic_proatom_table(z, n, nodes, spec.rmax) for n in range(z + 3)})
        for a, z in enumerate(inputs.Z)}
    gto = density.GtoDensity(primitives=tuple(_primitives(inputs)), P=P)
    sites = dma.SiteSet(positions=inputs.dma_sites, labels=list(inputs.dma_labels))
    esp_grids = grids.AtomicGridSet(inputs.positions,
                                    grids.build_radial(spec.esp_nr, spec.esp_rmax, "log"),
                                    grids.build_angular(spec.esp_angular))
    return Prepared(rho=rho, N=density.total_charge(rho), gs=gs, tables=tables,
                    itables=itables, gto=gto, sites=sites, esp_grids=esp_grids)


def partition_options(inputs, prep, method, defaults=False):
    tol = inputs.spec.tol
    opts = partition.PartitionOptions(tol=tol, tol_l2=tol, max_iter=1000)
    if defaults:
        return opts
    if method == "hirshfeld":
        opts.proatom_tables = prep.tables
    elif method == "hirshfeld-i":
        opts.proatom_tables = prep.itables
    elif method in inputs.exponents:
        ladders = inputs.exponents[method]
        opts.shells = [len(x) for x in ladders]
        opts.exponents = [list(x) for x in ladders]
    return opts


def _series_array(series):
    return np.array([[s.coeffs[(l, m)] for l in range(DMA_LMAX + 1) for m in range(-l, l + 1)]
                     for s in series])


def run_op(op, inputs, prep, outputs):
    """Run one operation through the public API; returns its output dict.

    `outputs` holds the latest output of each earlier operation of the pass;
    the ESP operations read the stone site multipoles from it.
    """
    if op in METHOD_OF_OP:
        method = METHOD_OF_OP[op]
        res = partition.run_partition(method, prep.rho, prep.gs,
                                      partition_options(inputs, prep, method), Z=inputs.Z)
        return {"charges": res.charges, "dipoles": res.dipoles,
                "converged": res.converged, "iterations": res.iterations}
    if op.startswith("dma_"):
        series, _ = dma.run_dma(prep.gto, prep.sites, strategy=op[4:], lmax=DMA_LMAX)
        return {"series": series, "multipoles": _series_array(series)}
    series = outputs["dma_stone"]["series"]
    if op == "esp_multipole":
        return {"values": np.array([dma.esp_multipole(series, p) for p in inputs.far_points])}
    if op == "esp_exact":
        pts = inputs.far_points[:inputs.spec.n_exact]
        return {"values": np.array([dma.esp_exact(prep.gto, p, prep.esp_grids) for p in pts])}
    raise ValueError(f"unknown operation {op!r}")


def total_dipole(series):
    return sum(s.cartesian_dipole() + s.center * s.charge() for s in series)


def check(op, out, inputs, prep, outputs, reference=None):
    """Problems with one operation's output; an empty list means it passed.

    Invariants are checked for every seed; `reference` (this operation's
    stored fingerprint) is given only at the default seed.
    """
    problems = invariant_problems(op, out, inputs, prep, outputs)
    if reference is not None:
        problems += reference_problems(out, reference)
    return problems


def invariant_problems(op, out, inputs, prep, outputs):
    name = inputs.spec.name
    problems = []
    if op in METHOD_OF_OP:
        method = METHOD_OF_OP[op]
        q = np.asarray(out["charges"])
        if not out["converged"]:
            problems.append(f"not converged after {out['iterations']} iterations")
        defect = float(np.sum(q)) - prep.N
        if not abs(defect) <= DEFECT_TOL[name][method]:
            problems.append(f"charge sum misses N by {defect:.3e}")
        if name == "bent3" and not abs(q[1] - q[2]) <= MIRROR_TOL:
            problems.append(f"mirror H charges differ by {abs(q[1] - q[2]):.3e}")
    elif op.startswith("dma_"):
        q_exact = float(sum(inputs.Z))  # normalised_P makes the exact charge N
        q_sites = float(np.sum(out["multipoles"][:, 0]))
        if not abs(q_sites - q_exact) <= DMA_CHARGE_TOL:
            problems.append(f"site charges miss the exact charge by {q_sites - q_exact:.3e}")
        if op == "dma_vigne_maeder" and "dma_stone" in outputs:
            diff = total_dipole(out["series"]) - total_dipole(outputs["dma_stone"]["series"])
            if not np.max(np.abs(diff)) <= DIPOLE_TOL:
                problems.append(f"total dipole differs from stone by {np.max(np.abs(diff)):.3e}")
    else:
        values = out["values"]
        if not np.all(np.isfinite(values)):
            problems.append("non-finite potential")
        if op == "esp_exact" and "esp_multipole" in outputs:
            far = outputs["esp_multipole"]["values"][:values.size]
            rel = np.max(np.abs(far - values) / np.abs(values))
            if not rel <= ESP_AGREE_RTOL:
                problems.append(f"multipolar and exact ESP differ by {rel:.3e} (relative)")
    return problems


# (rtol, atol) of each fingerprint array against the reference
REFERENCE_TOL = {"charges": (0.0, PARTITION_ATOL), "dipoles": (0.0, PARTITION_ATOL),
                 "multipoles": (EXACT_RTOL, EXACT_ATOL), "values": (EXACT_RTOL, EXACT_ATOL)}


def fingerprint(out):
    """The JSON-ready part of an output that the reference pins."""
    fp = {key: np.asarray(out[key]).tolist() for key in REFERENCE_TOL if key in out}
    if "converged" in out:
        fp["converged"] = bool(out["converged"])
    return fp


def reference_problems(out, reference):
    problems = []
    for key, expected in reference.items():
        if key == "converged":
            if bool(out[key]) != expected:
                problems.append(f"converged is {bool(out[key])}, reference {expected}")
            continue
        rtol, atol = REFERENCE_TOL[key]
        got = np.asarray(out[key])
        if got.shape != np.shape(expected) or not np.allclose(got, expected, rtol=rtol, atol=atol):
            problems.append(f"{key} differ from the reference")
    return problems


class ReferenceError(RuntimeError):
    """The stored fingerprints do not belong to this library version."""


def load_reference(path=REFERENCE_PATH):
    """Fingerprints stored for the default seed, for this conventions version.

    References are keyed by aimpart.CONVENTIONS_VERSION; any other version
    raises instead of comparing numbers made under other conventions.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    by_version = doc["by_conventions_version"]
    if CONVENTIONS_VERSION not in by_version:
        raise ReferenceError(
            f"{path} holds fingerprints for conventions version(s) "
            f"{sorted(by_version)}, but aimpart reports {CONVENTIONS_VERSION!r}; "
            f"regenerate them with bench/make_reference.py")
    return by_version[CONVENTIONS_VERSION]
