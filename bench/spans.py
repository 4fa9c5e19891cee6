"""Outside-in layer tracing: timing wrappers around the library's public names.

A Tracer patches each traced function where the library looks it up (a
module global such as ``partition.solve_simplex_newton``, or a class
attribute such as ``StockholderEngine.allocate``) and restores the original
objects afterwards. Each call records a span (name, start, end, parent, op)
in memory. A span's self time is its duration minus the time its children
cover; calls are sequential, so the children never overlap.
"""

import dataclasses
import json
import time
from collections import Counter, defaultdict

from aimpart import density, dma, grids, partition, proatoms


def patch_table():
    """(owner, attribute, span name) for every traced lookup site."""
    return [
        (grids, "build_radial", "grids.build_radial"),
        (grids.AtomicGridSet, "sample_density", "grids.sample_density"),
        (proatoms, "interpolate_radial", "grids.interpolate_radial"),
        (partition, "spherical_average", "grids.spherical_average"),
        (partition, "integrate_atom", "grids.integrate_atom"),
        (dma, "integrate_atom", "grids.integrate_atom"),
        (proatoms.TabulatedProfile, "profile", "proatoms.profile"),
        (proatoms.GaussianExpansion, "profile", "proatoms.profile"),
        (proatoms.SlaterShells, "profile", "proatoms.profile"),
        (proatoms.GaussianExpansion, "basis_profiles", "proatoms.basis_profiles"),
        (proatoms.SlaterShells, "basis_profiles", "proatoms.basis_profiles"),
        (proatoms.HirshfeldITable, "interpolated", "proatoms.interpolated"),
        (partition.StockholderEngine, "allocate", "partition.allocate"),
        (partition.StockholderEngine, "promolecule", "partition.promolecule"),
        (partition, "isa_step2", "partition.isa_step2"),
        (partition, "hirshfeld_i_step2", "partition.hirshfeld_i_step2"),
        (partition, "gisa_step2", "partition.gisa_step2"),
        (partition, "lisa_step2", "partition.lisa_step2"),
        (partition, "mbisa_update", "partition.mbisa_update"),
        (partition, "kl_entropy", "partition.kl_entropy"),
        (partition, "run_partition", "partition.run_partition"),
        (partition, "solve_simplex_newton", "solvers.simplex_newton"),
        (partition, "solve_qp_nonneg", "solvers.qp_nonneg"),
        (partition, "atomic_moments", "moments.atomic_moments"),
        (dma, "product_center", "density.product_center"),
        (density, "product_center", "density.product_center"),
        (density.GtoDensity, "eval", "density.GtoDensity.eval"),
        (dma, "natural_multipoles", "dma.natural_multipoles"),
        (dma, "m2m_translate", "dma.m2m_translate"),
        (dma, "redistribution_weights", "dma.redistribution_weights"),
        (dma.MultipoleSeries, "to_basis", "dma.to_basis"),
        (dma, "run_dma", "dma.run_dma"),
        (dma, "esp_multipole", "dma.esp_multipole"),
        (dma, "esp_exact", "dma.esp_exact"),
    ]


class Tracer:
    """Collects spans and call counters while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, op index or -1]
        self.ops = []          # op index -> op name
        self.counters = defaultdict(Counter)   # op index -> counter name -> count
        self._stack = []
        self._op = -1
        self._saved = []

    # -- operations -------------------------------------------------------
    def begin_op(self, name):
        self.ops.append(name)
        self._op = len(self.ops) - 1
        return self._op

    def end_op(self):
        self._op = -1

    # -- wrappers ---------------------------------------------------------
    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self._op]

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, fn):
        def counted(*args):
            self.counters[self._op][key] += 1
            return fn(*args)
        return counted

    def _wrap_simplex(self, name, fn):
        """Also count the objective / gradient / Hessian evaluations a solve makes."""
        def solve(problem, *args, **kwargs):
            problem = dataclasses.replace(
                problem,
                objective=self._count("objective", problem.objective),
                gradient=self._count("gradient", problem.gradient),
                hessian=self._count("hessian", problem.hessian))
            return fn(problem, *args, **kwargs)
        return self.wrap(name, solve)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in patch_table():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if attr == "solve_simplex_newton":
                setattr(owner, attr, self._wrap_simplex(name, original))
            else:
                setattr(owner, attr, self.wrap(name, original))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ---------------------------------------------------------
    def layer_totals(self):
        """{op index: {span name: [calls, inclusive s, self s]}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op < 0:
                continue
            rec = out[op][name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        return out

    def write(self, path, header):
        """Write a header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, ops=self.ops,
                                     counters={str(k): v for k, v in self.counters.items()}))
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
