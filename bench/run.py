"""aimpart benchmark: time-to-solution of every partition method, DMA and ESP.

    python3 bench/run.py --workload bent3 --seed 0 --seconds 60 --trace 0

Runs the workload's operations (the same public calls the CLI's
``partition``, ``dma`` and ``esp-compare`` subcommands make) in one process,
in rounds, for about ``--seconds`` seconds, and checks every output. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it, ``{"info": ...}``, records
the environment, sizes, sample counts, raw wall-time medians, the host
speed factors, iterations and every problem found.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run of times normalised to a reference host speed (see calibrate.py). Each
round also times one set-up in a fresh process (see setup_once.py). With
``--trace 1`` one untraced round is followed by traced rounds, and the
metrics are per-layer figures, in wall seconds, for one pass of the
workload (each operation once); the spans are written to ``.bench_out/``
in the checkout.

BLAS is pinned to one thread: everything runs single-threaded.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import calibrate

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# In each round an operation shorter than SLOT_SECONDS repeats back to back.
SLOT_SECONDS = 0.3
# Normalising by the median of the calibrations within CAL_WINDOW_S of a
# group uses several of them, so one odd calibration does not move it, yet
# still follows the host's drift over tens of seconds; in a 270 s trial on
# bent3 it left run-sized medians steadier than the two calibrations
# bracketing the group or the median over the whole run.
CAL_WINDOW_S = 4.0
CHILD_TIMEOUT_S = 60
# L2 per core of the 2-core Xeon the workload sizes were chosen for; the
# benchmark reads nothing outside its checkout, so it is stated, not probed.
L2_BYTES_PER_CORE_ASSUMED = 2 * 1024 * 1024
MAX_PROBLEMS_SHOWN = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Executes operations in rounds, times them, checks their outputs.

    A round runs the cold set-up once and then each operation in turn; an
    operation shorter than SLOT_SECONDS repeats back to back until the slot
    is spent. The host's speed is calibrated (see calibrate.py) after every
    such group, and normalise() divides each group's wall times by the
    median speed factor from CAL_WINDOW_S before it to CAL_WINDOW_S after it.
    """

    def __init__(self, workloads, inputs, prep, reference, setup_cmd=None):
        self.w = workloads
        self.inputs = inputs
        self.prep = prep
        self.reference = reference            # {op: fingerprint} or None
        self.setup_cmd = setup_cmd            # a cold set-up in a fresh process
        self.outputs = {}
        self.raw_samples = {op: [] for op in workloads.OPS}   # untraced wall seconds
        self.groups = []                      # (kind, op, start, end, wall times)
        self.calibrations = []                # (time, speed factor)
        self.last_wall_s = {}                 # op or "setup" -> its last wall time
        self.raw_setup_s = []
        self.setup_layers = {}
        self.warning_counts = {op: [] for op in workloads.OPS}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.normalise()

    def execute(self, op, tracer=None):
        def call():
            return self.w.run_op(op, self.inputs, self.prep, self.outputs)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.begin_op(op)
                call = tracer.wrap("op." + op, call)
            error = None
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        self.warning_counts[op].append(len(caught))
        self.attempted += 1
        if out is not None:
            ref = self.reference.get(op) if self.reference is not None else None
            problems = self.w.check(op, out, self.inputs, self.prep, self.outputs, ref)
            self.outputs[op] = out
        else:
            problems = [error]
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
        return seconds

    def _calibrate(self):
        start = time.perf_counter()
        factor = calibrate.speed_factor()
        self.calibrations.append(((start + time.perf_counter()) / 2, factor))

    def _timed_group(self, kind, op, body):
        """Run body() (it returns a list of seconds) and calibrate after it."""
        if not self.calibrations:
            self._calibrate()
        start = time.perf_counter()
        times = body()
        self.groups.append((kind, op, start, time.perf_counter(), times))
        self._calibrate()
        return times

    def normalise(self):
        """Fill samples, traced_samples and setup_s with normalised seconds."""
        self.samples = {op: [] for op in self.w.OPS}
        self.traced_samples = {op: [] for op in self.w.OPS}
        self.setup_s = []
        for kind, op, start, end, times in self.groups:
            factor = statistics.median(
                f for t, f in self.calibrations
                if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S)
            out = {"setup": self.setup_s, "op": self.samples.get(op),
                   "traced": self.traced_samples.get(op)}[kind]
            out.extend(t / factor for t in times)

    def _fits(self, predicted, deadline):
        return deadline is None or time.perf_counter() + predicted <= deadline

    def cold_setup(self, deadline, trace):
        """One set-up timing from a fresh process; see setup_once.py."""
        if not self._fits(self.last_wall_s.get("setup", 0.0), deadline):
            return False

        def body():
            start = time.perf_counter()
            proc = subprocess.run(self.setup_cmd + [str(trace)], capture_output=True,
                                  text=True, check=True, timeout=CHILD_TIMEOUT_S)
            self.last_wall_s["setup"] = time.perf_counter() - start
            result = json.loads(proc.stdout.splitlines()[-1])
            if trace:
                self.setup_layers = result["layers"]
            return [result["setup_s"]]

        self.raw_setup_s.extend(self._timed_group("setup", "setup", body))
        return True

    def group(self, op, deadline, tracer=None):
        """Run op back to back for SLOT_SECONDS (at least once). Without a
        deadline it always runs; with one, no execution starts that would
        end past it, predicted from the operation's last time."""
        if op in self.last_wall_s and not self._fits(self.last_wall_s[op], deadline):
            return False

        def body():
            times = []
            while True:
                times.append(self.execute(op, tracer))
                self.last_wall_s[op] = times[-1]
                if sum(times) >= SLOT_SECONDS or not self._fits(times[-1], deadline):
                    return times

        times = self._timed_group("op" if tracer is None else "traced", op, body)
        if tracer is None:
            self.raw_samples[op].extend(times)
        return True

    def rounds(self, deadline, tracer=None, setups=True):
        """Rounds until nothing fits before the deadline, or one round if
        deadline is None. The first round ignores the deadline, so that every
        operation runs at least once."""
        bound = None
        while True:
            ran = False
            if setups:
                ran |= self.cold_setup(bound, 0)
            for op in self.w.OPS:
                ran |= self.group(op, bound, tracer)
            if not ran or deadline is None:
                break
            bound = deadline
        self.normalise()


def lisa_defaults_probe(workloads, inputs, prep):
    """Untimed: L-ISA with the default exponent ladder (ROADMAP item 4)."""
    from aimpart import partition

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = partition.run_partition(
                "lisa", prep.rho, prep.gs,
                workloads.partition_options(inputs, prep, "lisa", defaults=True), Z=inputs.Z)
            outcome = "converged" if res.converged else "not converged"
        except Exception as exc:  # the probe records the failure it exists to show
            outcome = f"{type(exc).__name__}: {exc}"
    return {"failed": int(outcome != "converged"), "outcome": outcome,
            "runtime_warnings": len(caught)}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_pinned": {var: os.environ[var] for var in BLAS_VARS}}


def sizes(inputs, prep):
    gs = prep.gs
    points = [int(gs.radial[a].nodes.size * gs.angular[a].weights.size)
              for a in range(gs.natom)]
    array_bytes = [8 * n for n in points]
    return {"points_per_atom": points,
            "atom_array_bytes_computed": array_bytes,
            # step 1 for one atom reads its density samples and M distance
            # tables and writes the pro-molecule sum and the share
            "step1_bytes_per_atom_computed": [(gs.natom + 3) * b for b in array_bytes],
            "l2_bytes_per_core_assumed": L2_BYTES_PER_CORE_ASSUMED,
            "dma_primitives": len(prep.gto.primitives),
            "dma_pairs": len(prep.gto.primitives) * (len(prep.gto.primitives) + 1) // 2,
            "dma_sites": len(prep.sites.labels),
            "esp_multipole_points": inputs.spec.n_far,
            "esp_exact_points": inputs.spec.n_exact}


def median_of(samples):
    return statistics.median(samples) if samples else float("nan")


def end_to_end_metrics(runner, inputs, setup_s):
    med = {op: median_of(runner.samples[op]) for op in runner.w.OPS}
    metrics = {"setup_s": (setup_s, "s")}
    for op in runner.w.PARTITION_OPS + ("dma_stone", "dma_vigne_maeder"):
        metrics[op + "_s"] = (med[op], "s")
    metrics["esp_multipole_points_per_s"] = (inputs.spec.n_far / med["esp_multipole"], "1/s")
    metrics["esp_exact_points_per_s"] = (inputs.spec.n_exact / med["esp_exact"], "1/s")
    metrics["workload_s"] = (sum(med.values()), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_pass_layers(tracer):
    """Per-layer [calls, s, self_s] for one pass, and the same per operation.

    An operation that ran k times contributes its totals divided by k, so a
    pass counts each operation once however often it repeated.
    """
    runs = {}
    for idx, op in enumerate(tracer.ops):
        runs.setdefault(op, []).append(idx)
    totals = tracer.layer_totals()
    per_op = {}
    for op, indices in runs.items():
        acc = {}
        for idx in indices:
            for name, rec in totals.get(idx, {}).items():
                cur = acc.setdefault(name, [0.0, 0.0, 0.0])
                for i in range(3):
                    cur[i] += rec[i] / len(indices)
        counters = {}
        for idx in indices:
            for key, n in tracer.counters.get(idx, {}).items():
                counters[key] = counters.get(key, 0.0) + n / len(indices)
        per_op[op] = (acc, counters)
    layers = {}
    for acc, _ in per_op.values():
        for name, rec in acc.items():
            cur = layers.setdefault(name, [0.0, 0.0, 0.0])
            for i in range(3):
                cur[i] += rec[i]
    return layers, per_op


def per_layer_metrics(runner, tracer, setup_layers, inputs, probe):
    w = runner.w
    layers, per_op = per_pass_layers(tracer)
    for name, rec in setup_layers.items():
        cur = layers.setdefault(name, [0.0, 0.0, 0.0])
        for i in range(3):
            cur[i] += rec[i]

    def get(name, i, op=None):
        src = layers if op is None else per_op.get(op, ({}, {}))[0]
        return src.get(name, [0.0, 0.0, 0.0])[i]

    m = {}

    def calls_s(name):
        m[name + ".calls"] = (get(name, 0), "count")
        m[name + ".s"] = (get(name, 1), "s")

    m["grids.build_radial.s"] = (get("grids.build_radial", 1), "s")
    m["grids.sample_density.s"] = (get("grids.sample_density", 1), "s")
    for name in ("grids.interpolate_radial", "grids.spherical_average", "grids.integrate_atom",
                 "proatoms.profile", "proatoms.basis_profiles", "proatoms.interpolated"):
        calls_s(name)
    iterations = {op: runner.outputs[op]["iterations"] for op in w.PARTITION_OPS
                  if op in runner.outputs}
    natom = len(inputs.Z)
    mb_iters = iterations.get("solve_mbisa", 0)
    m["proatoms.basis_profiles_per_pair_iter"] = (
        get("proatoms.basis_profiles", 0, "solve_mbisa") / (natom**2 * mb_iters)
        if mb_iters else 0.0, "ratio")
    m["partition.allocate.self_s"] = (get("partition.allocate", 2), "s")
    calls_s("partition.promolecule")
    for op, method in (("solve_isa", "isa"), ("solve_mbisa", "mbisa")):
        it = iterations.get(op, 0)
        m[f"partition.promolecule_per_atom_iter.{method}"] = (
            get("partition.promolecule", 0, op) / (natom * it) if it else 0.0, "ratio")
    for step in ("isa_step2", "hirshfeld_i_step2", "gisa_step2", "lisa_step2"):
        m[f"partition.{step}.s"] = (get(f"partition.{step}", 1), "s")
    m["partition.mbisa_update.self_s"] = (get("partition.mbisa_update", 2), "s")
    calls_s("partition.kl_entropy")
    m["partition.run_partition.self_s"] = (get("partition.run_partition", 2), "s")
    for op, method in w.METHOD_OF_OP.items():
        m[f"partition.iterations.{method}"] = (iterations.get(op, 0), "count")

    calls_s("solvers.simplex_newton")
    counters = {}
    for _, cnt in per_op.values():
        for key, n in cnt.items():
            counters[key] = counters.get(key, 0.0) + n
    solves = get("solvers.simplex_newton", 0)
    steps = counters.get("hessian", 0.0)
    # objective calls: one feasibility check per solve, one merit value per
    # Newton step, and the rest are line-search trial points
    m["solvers.simplex_newton.newton_steps"] = (steps, "count")
    m["solvers.simplex_newton.line_search_evals"] = (
        counters.get("objective", 0.0) - solves - steps, "count")
    calls_s("solvers.qp_nonneg")
    calls_s("moments.atomic_moments")
    calls_s("density.product_center")
    calls_s("density.GtoDensity.eval")

    for strategy in ("stone", "vigne_maeder"):
        op = "dma_" + strategy
        pre = f"dma.{strategy}."
        for name in ("natural_multipoles", "m2m_translate", "to_basis"):
            m[pre + name + ".calls"] = (get("dma." + name, 0, op), "count")
            m[pre + name + ".s"] = (get("dma." + name, 1, op), "s")
        pairs = get("dma.natural_multipoles", 0, op)
        m[pre + "translations_per_pair"] = (
            get("dma.m2m_translate", 0, op) / pairs if pairs else 0.0, "ratio")
        m[pre + "redistribution_weights.s"] = (get("dma.redistribution_weights", 1, op), "s")
        m[pre + "run_dma.self_s"] = (get("dma.run_dma", 2, op), "s")
    calls_s("dma.esp_multipole")
    calls_s("dma.esp_exact")

    untraced = sum(median_of(runner.samples[op]) for op in w.OPS)
    traced = sum(median_of(runner.traced_samples[op]) for op in w.OPS)
    m["trace_overhead"] = (traced / untraced, "ratio")
    roots = [get("op." + op, 1) for op in w.OPS]
    root_self = [get("op." + op, 2) for op in w.OPS]
    m["trace.accounted_share"] = (1.0 - sum(root_self) / sum(roots), "ratio")
    m["runtime_warnings"] = (runtime_warnings_per_pass(runner), "count")
    m["probe.lisa_defaults.failed"] = (probe["failed"], "count")
    return m


def runtime_warnings_per_pass(runner):
    return sum(statistics.mean(c) for c in runner.warning_counts.values() if c)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "aimpart" / "__init__.py").is_file():
        print(f"error: aimpart sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        reference = workloads.load_reference()
    except workloads.ReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ref = (reference["workloads"][args.workload]
           if args.seed == reference["seed"] else None)

    inputs = workloads.make_inputs(workloads.SPECS[args.workload], args.seed)
    P = workloads.normalised_P(inputs)
    prep = workloads.setup(inputs, P)
    probe = lisa_defaults_probe(workloads, inputs, prep)

    setup_cmd = [sys.executable, str(HERE / "setup_once.py"), args.workload, str(args.seed)]
    runner = Runner(workloads, inputs, prep, ref, setup_cmd)
    deadline = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        runner.cold_setup(None, 1)
        runner.rounds(None, setups=False)
        tracer = spans.Tracer()
        with tracer:
            runner.rounds(deadline, tracer, setups=False)
    else:
        runner.rounds(deadline)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "sizes": sizes(inputs, prep),
        "setup_s_samples": runner.setup_s,
        "setup_s_raw_samples": runner.raw_setup_s,
        "samples_s": runner.samples,
        "raw_samples_s": runner.raw_samples,
        "raw_medians_s": {op: median_of(v) for op, v in runner.raw_samples.items()},
        "traced_samples_s": runner.traced_samples,
        "speed_factors": [f for _, f in runner.calibrations],
        "iterations": {op: out["iterations"] for op, out in runner.outputs.items()
                       if "iterations" in out},
        "charge_defects": {op: float(sum(out["charges"])) - prep.N
                           for op, out in runner.outputs.items() if "charges" in out},
        "runtime_warnings_per_op": {op: statistics.mean(c)
                                    for op, c in runner.warning_counts.items() if c},
        "probe_lisa_defaults": probe,
        "reference_compared": ref is not None,
        "fail_ratio": runner.failed / runner.attempted,
        "problems": runner.problems[:MAX_PROBLEMS_SHOWN],
    }
    if tracer is not None:
        metrics = per_layer_metrics(runner, tracer, runner.setup_layers, inputs, probe)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": info["env"]})
        info["spans_file"] = str(path.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end_metrics(runner, inputs, statistics.median(runner.setup_s))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
