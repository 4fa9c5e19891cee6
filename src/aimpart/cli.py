"""Batch front end: JSON run configs in, JSON result documents and plain-text
plot data out.

Subcommands:

    aimpart partition --input cfg.json [--method M --grid nr=,rmax=,angular=
                       --tol T --max-iter N] --out result.json
    aimpart dma --input cfg.json [--sites atoms|atoms+bonds|FILE
                 --strategy stone|vigne-maeder --lmax L] --out result.json
    aimpart profile --result result.json --atom A --out profile.dat
    aimpart esp-compare --input cfg.json --points points.dat [--lmax L]

Exit codes: 0 success, 2 validation error, 3 non-convergence, 4 numerical
failure.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import CONVENTIONS_VERSION
from .density import AnalyticDensity, Atom, GtoDensity, PrimitiveGaussian, total_charge
from .dma import (
    COINCIDENCE_TOL,
    SiteSet,
    bond_midpoint_sites,
    esp_exact,
    esp_multipole,
    load_site_file,
    run_dma,
)
from .errors import AimpartError, ConvergenceError, NumericalError, ValidationError
from .grids import AtomicGridSet, build_angular, build_radial
from .partition import METHODS, PartitionOptions, run_partition
from .proatoms import HirshfeldITable, read_proatom_table
from .units import BOHR_PER_ANGSTROM

__all__ = ["RunConfig", "parse_input", "emit_config", "cmd_partition", "cmd_dma",
           "cmd_profile", "cmd_esp_compare", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_NUMERICAL = 4

_GRID_DEFAULTS = {"nr": 300, "rmax": 15.0, "radial": "gauss_legendre",
                  "angular": "lebedev", "order": 170}
_TOL_DEFAULTS = {key: getattr(PartitionOptions, key) for key in ("tol", "tol_l2", "max_iter")}
_GRID_KINDS = {"radial": ("gauss_legendre", "log"), "angular": ("lebedev", "axial")}
# Numeric config keys: None marks a positive float, an int the least integer.
_GRID_NUMBERS = {"nr": 2, "order": 1, "rmax": None}
_TOL_NUMBERS = {"tol": None, "tol_l2": None, "max_iter": 1}


@dataclass
class RunConfig:
    """Validated, unit-normalized run description (canonical form: bohr)."""
    atoms: list
    density: object
    method: dict = field(default_factory=dict)
    grid: dict = field(default_factory=lambda: dict(_GRID_DEFAULTS))
    tolerances: dict = field(default_factory=lambda: dict(_TOL_DEFAULTS))
    dma: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, RunConfig):
            return NotImplemented
        return emit_config(self) == emit_config(other)


def _parse_density(spec, scale, problems):
    kind = spec.get("kind")
    if kind == "analytic":
        terms = []
        for i, term in enumerate(spec.get("terms", [])):
            tkind = term.get("kind")
            if tkind not in ("gaussian_s", "slater_s"):
                problems.append(f"density.terms[{i}]: unknown kind {tkind!r}")
                continue
            try:
                center = np.asarray(term["center"], dtype=float) * scale
                exponent = float(term["exponent"])
                coefficient = float(term["coefficient"])
            except (KeyError, TypeError, ValueError):
                problems.append(f"density.terms[{i}]: needs center/exponent/coefficient")
                continue
            if scale != 1.0 and tkind == "gaussian_s":
                exponent /= scale**2
            elif scale != 1.0:
                exponent /= scale
            terms.append((tkind, center, exponent, coefficient))
        if not terms:
            problems.append("density: no valid terms")
            return None
        try:
            return AnalyticDensity(terms=terms)
        except ValueError as exc:
            problems.append(f"density: {exc}")
            return None
    if kind == "gto":
        prims = []
        for i, p in enumerate(spec.get("primitives", [])):
            try:
                prims.append(PrimitiveGaussian(
                    center=np.asarray(p["center"], dtype=float) * scale,
                    l=int(p["l"]), m=int(p["m"]),
                    exponent=float(p["exponent"]) / scale**2))
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"density.primitives[{i}]: {exc}")
        P = spec.get("P")
        if P is None:
            problems.append("density: gto form needs a coefficient matrix P")
            return None
        if problems:
            return None
        try:
            return GtoDensity(primitives=prims, P=np.asarray(P, dtype=float))
        except ValueError as exc:
            problems.append(f"density: {exc}")
            return None
    problems.append(f"density: unknown kind {kind!r} (expected analytic|gto)")
    return None


def parse_input(path):
    """Read and validate a JSON run config; collects every problem found."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: malformed JSON: {exc}"]) from exc
    return parse_config_dict(doc)


def _number(where, value, problems, least=None):
    """`value` as a positive float, or as an integer >= `least` when given.

    Anything else (a non-number, a non-integral value for an integer key,
    an out-of-range value) records a problem naming `where` and gives None.
    """
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or not math.isfinite(x):
        problem = "expected a number"
    elif least is None:
        if x > 0:
            return x
        problem = "expected a positive number"
    elif x.is_integer() and x >= least:
        return int(x)
    else:
        problem = f"expected an integer >= {least}"
    problems.append(f"{where}: {problem}, got {value!r}")
    return None


def _convert(prefix, spec, kinds, problems):
    """Convert the numeric keys of one config block in place (see _number)."""
    for key, least in kinds.items():
        if key in spec:
            spec[key] = _number(f"{prefix}.{key}", spec[key], problems, least)


def parse_config_dict(doc):
    problems = []
    units = doc.get("units", "bohr")
    if units not in ("bohr", "angstrom"):
        problems.append(f"units must be bohr or angstrom, got {units!r}")
        units = "bohr"
    scale = BOHR_PER_ANGSTROM if units == "angstrom" else 1.0

    atoms = []
    for i, a in enumerate(doc.get("atoms", [])):
        try:
            atoms.append(Atom(symbol=str(a["symbol"]), Z=int(a["Z"]),
                              position=np.asarray(a["position"], dtype=float) * scale))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"atoms[{i}]: {exc}")
    if not atoms:
        problems.append("no atoms given")

    dens = None
    if "density" in doc:
        dens = _parse_density(doc["density"], scale, problems)
    else:
        problems.append("no density given")

    method = dict(doc.get("method", {}))
    name = method.get("name")
    if name is not None and name not in METHODS:
        problems.append(f"unknown method {name!r}; choose from {METHODS}")
    shells = method.get("shells")
    exponents = method.get("exponents")
    if shells is not None:
        if isinstance(shells, list):
            shells = method["shells"] = [_number(f"method.shells[{i}]", s, problems, 1)
                                         for i, s in enumerate(shells)]
        else:
            problems.append("method.shells: expected one shell count per atom")
    if exponents is not None:
        if isinstance(exponents, list) and all(isinstance(row, list) for row in exponents):
            exponents = method["exponents"] = [
                [_number(f"method.exponents[{i}][{k}]", e, problems) for k, e in enumerate(row)]
                for i, row in enumerate(exponents)]
        else:
            problems.append("method.exponents: expected one exponent list per atom")
    if isinstance(shells, list) and isinstance(exponents, list) and atoms:
        if len(shells) != len(atoms) or len(exponents) != len(atoms):
            problems.append("method.shells and method.exponents need one entry per atom")
        else:
            for i, atom in enumerate(atoms):
                if shells[i] is not None and len(exponents[i]) != shells[i]:
                    problems.append(
                        f"atom {i} ({atom.symbol}): shells={shells[i]} but "
                        f"{len(exponents[i])} exponents given")

    grid = dict(_GRID_DEFAULTS)
    grid.update(doc.get("grid", {}))
    for key, kinds in _GRID_KINDS.items():
        if grid[key] not in kinds:
            problems.append(f"grid.{key} must be {' or '.join(kinds)}, got {grid[key]!r}")
    _convert("grid", grid, _GRID_NUMBERS, problems)
    if "per_atom" in grid:
        overrides = grid["per_atom"]
        if isinstance(overrides, list) and all(isinstance(o, dict) and "atom" in o
                                               for o in overrides):
            grid["per_atom"] = [dict(o) for o in overrides]
            for i, override in enumerate(grid["per_atom"]):
                _convert(f"grid.per_atom[{i}]", override, dict(_GRID_NUMBERS, atom=0),
                         problems)
                if override["atom"] is not None and override["atom"] >= len(atoms):
                    problems.append(f"grid.per_atom[{i}].atom: no atom {override['atom']} "
                                    f"in a config of {len(atoms)} atoms")
        else:
            problems.append("grid.per_atom: expected a list of overrides, each with an atom")

    tolerances = dict(_TOL_DEFAULTS)
    tolerances.update(doc.get("tolerances", {}))
    _convert("tolerances", tolerances, _TOL_NUMBERS, problems)

    dma_spec = dict(doc.get("dma", {}))
    _convert("dma", dma_spec, {"lmax": 0}, problems)
    strategy = dma_spec.get("strategy", "stone")
    if strategy not in ("stone", "vigne-maeder", "vigne_maeder"):
        problems.append(f"dma.strategy must be stone or vigne-maeder, got {strategy!r}")

    if problems:
        raise ValidationError(problems)
    return RunConfig(atoms=atoms, density=dens, method=method, grid=grid,
                     tolerances=tolerances, dma=dma_spec)


def emit_config(config):
    """Canonical JSON-ready form of a config (bohr units). parse(emit(c)) == c."""
    dens = {"kind": "analytic",
            "terms": [{"kind": k, "center": list(map(float, c)),
                       "exponent": e, "coefficient": q}
                      for k, c, e, q in config.density.terms]} \
        if isinstance(config.density, AnalyticDensity) else \
        {"kind": "gto",
         "primitives": [{"center": list(map(float, p.center)), "l": p.l, "m": p.m,
                         "exponent": p.exponent} for p in config.density.primitives],
         "P": [[float(x) for x in row] for row in config.density.P]}
    return {
        "units": "bohr",
        "atoms": [{"symbol": a.symbol, "Z": a.Z,
                   "position": list(map(float, a.position))} for a in config.atoms],
        "density": dens,
        "method": config.method,
        "grid": dict(config.grid),
        "tolerances": dict(config.tolerances),
        "dma": dict(config.dma),
    }


def _build_grids(config):
    base = config.grid
    overrides = {o["atom"]: o for o in base.get("per_atom", [])}

    def spec_for(a):
        merged = {k: v for k, v in base.items() if k != "per_atom"}
        merged.update(overrides.get(a, {}))
        return merged

    radial, angular = [], []
    for a in range(len(config.atoms)):
        spec = spec_for(a)
        radial.append(build_radial(spec["nr"], spec["rmax"], kind=spec["radial"]))
        angular.append(build_angular(spec["order"], kind=spec["angular"]))
    positions = np.array([a.position for a in config.atoms])
    return AtomicGridSet(positions, radial, angular)


def _load_tables(config):
    """Pro-atom tables for hirshfeld / hirshfeld-i from files named in the config."""
    paths = config.method.get("proatom_tables", [])
    per_z = {}
    for path in paths:
        Z, n, table = read_proatom_table(path)
        per_z.setdefault(Z, {})[n] = table
    name = config.method.get("name")
    tables = {}
    problems = []
    for a, atom in enumerate(config.atoms):
        if atom.Z not in per_z:
            problems.append(f"atom {a} ({atom.symbol}): no pro-atom table for Z={atom.Z}")
            continue
        if name == "hirshfeld":
            if atom.Z not in per_z[atom.Z]:
                problems.append(f"atom {a}: need the neutral table n={atom.Z}")
                continue
            tables[a] = per_z[atom.Z][atom.Z]
        else:
            tables[a] = HirshfeldITable(atom.Z, per_z[atom.Z])
    if problems:
        raise ValidationError(problems)
    return tables


def _partition_options(config):
    method = config.method
    tol = config.tolerances
    opts = PartitionOptions(tol=tol["tol"], tol_l2=tol["tol_l2"], max_iter=tol["max_iter"])
    if method.get("shells") is not None:
        opts.shells = list(method["shells"])
    if method.get("exponents") is not None:
        opts.exponents = [list(row) for row in method["exponents"]]
    init = method.get("init", "balanced")
    if isinstance(init, list):
        try:
            init = [np.asarray(row, dtype=float) for row in init]
        except (TypeError, ValueError) as exc:
            raise ValidationError([f"method.init: rows must be numbers ({exc})"]) from exc
    opts.init_coefficients = init
    if method.get("name") in ("hirshfeld", "hirshfeld-i"):
        opts.proatom_tables = _load_tables(config)
    return opts


def cmd_partition(config):
    """Run the configured partition; returns the result document dict."""
    name = config.method.get("name")
    if name is None:
        raise ValidationError(["method.name is required for partitioning"])
    gs = _build_grids(config)
    opts = _partition_options(config)
    Z = [a.Z for a in config.atoms]
    result = run_partition(name, config.density, gs, options=opts, Z=Z)
    doc = {
        "config": emit_config(config),
        "conventions_version": CONVENTIONS_VERSION,
        "method": result.method,
        "converged": result.converged,
        "iterations": result.iterations,
        "total_charge": total_charge(config.density),
        "atoms": [
            {
                "symbol": config.atoms[a].symbol,
                "Z": config.atoms[a].Z,
                "population": float(result.charges[a]),
                "net_charge": float(config.atoms[a].Z - result.charges[a]),
                "dipole": [float(x) for x in result.dipoles[a]],
                "second_moment": [[float(x) for x in row]
                                  for row in result.second_moments[a]],
            }
            for a in range(len(config.atoms))
        ],
        "profiles": [
            {"atom": a, "r": [float(x) for x in nodes],
             "w": [float(x) for x in values]}
            for a, (nodes, values) in enumerate(result.profiles)
        ],
        "entropy_trace": [float(s) if math.isfinite(s) else None
                          for s in result.entropy_trace],
        "charge_conservation": [float(abs(sum(c) - total_charge(config.density)))
                                for c in result.charge_history],
        "lost_charge": float(result.lost_charge),
        "elapsed_seconds": result.elapsed_seconds,
        "messages": result.messages,
    }
    return doc, result


def _resolve_sites(config):
    spec = config.dma.get("sites", "atoms")
    positions = [a.position for a in config.atoms]
    labels = [f"{a.symbol}{i}" for i, a in enumerate(config.atoms)]
    if spec == "atoms":
        return SiteSet(positions=np.array(positions), labels=labels)
    if spec == "atoms+bonds":
        mids, mid_labels = bond_midpoint_sites(config.atoms)
        return SiteSet(positions=np.array(positions + mids),
                       labels=labels + mid_labels)
    return load_site_file(spec)


def cmd_dma(config):
    """Distributed multipole analysis per the config's dma block."""
    if not isinstance(config.density, GtoDensity):
        raise ValidationError(["dma requires a gto density"])
    sites = _resolve_sites(config)
    strategy = config.dma.get("strategy", "stone").replace("-", "_")
    lmax = config.dma.get("lmax", 4)
    series, flags = run_dma(config.density, sites, strategy=strategy, lmax=lmax)
    q_exact = total_charge(config.density)
    q_sites = sum(s.charge() for s in series)
    doc = {
        "config": emit_config(config),
        "conventions_version": CONVENTIONS_VERSION,
        "strategy": strategy,
        "lmax": lmax,
        "truncated": flags["truncated"],
        "sites": [
            {
                "label": sites.labels[j],
                "position": [float(x) for x in sites.positions[j]],
                "multipoles": {f"{l},{m}": float(series[j].coeffs[l, m])
                               for l in range(lmax + 1) for m in range(-l, l + 1)},
            }
            for j in range(len(sites.labels))
        ],
        "checks": {
            "total_charge_exact": q_exact,
            "total_charge_sites": q_sites,
            "charge_conservation_error": abs(q_exact - q_sites),
        },
    }
    return doc, series, sites


def cmd_profile(result_doc, atom, out_path):
    """Write r vs log(4 pi r^2 w(r)) plot data for one atom of a result."""
    profiles = result_doc.get("profiles", [])
    match = [p for p in profiles if p["atom"] == atom]
    if not match:
        raise ValidationError([f"result has no profile for atom {atom}"])
    prof = match[0]
    dropped = 0
    lines = ["# r_bohr  log(4*pi*r^2*w)"]
    for r, w in zip(prof["r"], prof["w"]):
        val = 4.0 * math.pi * r**2 * w
        if val <= 0.0:
            dropped += 1
            continue
        lines.append(f"{r:.12e} {math.log(val):.12e}")
    if dropped:
        lines.append(f"# dropped {dropped} rows with w = 0 (log undefined)")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return dropped


def cmd_esp_compare(config, points):
    """Exact vs multipolar ESP (config's dma block) at field points (rows of 3)."""
    if not isinstance(config.density, GtoDensity):
        raise ValidationError(["esp-compare requires a gto density"])
    sites = _resolve_sites(config)
    on_site = [f"field point {i} {[float(x) for x in point]} coincides with site "
               f"{sites.labels[j]}; the multipole potential is singular there"
               for i, point in enumerate(points)
               for j in range(len(sites.labels))
               if np.linalg.norm(sites.positions[j] - point) < COINCIDENCE_TOL]
    if on_site:
        raise ValidationError(on_site)
    _, series, _ = cmd_dma(config)
    gs = _build_grids(config)
    points = np.reshape(np.asarray(points, dtype=float), (-1, 3))
    if points.shape[0] == 0:
        return []
    exact = esp_exact(config.density, points, gs)
    approx = esp_multipole(series, points)
    rel = np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-300)
    return [{"point": [float(x) for x in point], "exact": float(e),
             "multipole": float(v), "rel_error": float(r)}
            for point, e, v, r in zip(points, exact, approx, rel)]


def _read_points(path):
    pts, problems = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                problems.append(f"{path}:{lineno}: expected '<x> <y> <z>'")
                continue
            try:
                pts.append([float(x) for x in fields])
            except ValueError:
                problems.append(f"{path}:{lineno}: non-numeric coordinate")
    if problems:
        raise ValidationError(problems)
    return np.asarray(pts, dtype=float)


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="aimpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="run an AIM density partition")
    p_part.add_argument("--input", required=True)
    p_part.add_argument("--method", choices=METHODS)
    p_part.add_argument("--grid", help="nr=<int>,rmax=<float>,angular=<lebedev|axial>,order=<int>")
    p_part.add_argument("--tol", type=float)
    p_part.add_argument("--max-iter", type=int)
    p_part.add_argument("--out", required=True)

    p_dma = sub.add_parser("dma", help="distributed multipole analysis")
    p_dma.add_argument("--input", required=True)
    p_dma.add_argument("--sites", help="atoms | atoms+bonds | site file path")
    p_dma.add_argument("--strategy", choices=["stone", "vigne-maeder"])
    p_dma.add_argument("--lmax", type=int)
    p_dma.add_argument("--out", required=True)

    p_prof = sub.add_parser("profile", help="emit radial profile plot data")
    p_prof.add_argument("--result", required=True)
    p_prof.add_argument("--atom", type=int, required=True)
    p_prof.add_argument("--out", required=True)

    p_esp = sub.add_parser("esp-compare", help="exact vs multipolar ESP table")
    p_esp.add_argument("--input", required=True)
    p_esp.add_argument("--points", required=True)
    p_esp.add_argument("--lmax", type=int)
    p_esp.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (NumericalError, AimpartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args):
    if args.command == "partition":
        config = parse_input(args.input)
        if args.method:
            config.method["name"] = args.method
        if args.grid:
            for item in args.grid.split(","):
                key, _, value = item.partition("=")
                if key in _GRID_KINDS:
                    if value not in _GRID_KINDS[key]:
                        raise ValidationError(
                            [f"--grid {item}: must be {' or '.join(_GRID_KINDS[key])}"])
                    config.grid[key] = value
                elif key in _GRID_NUMBERS:
                    problems = []
                    config.grid[key] = _number(f"--grid {item}", value, problems,
                                               _GRID_NUMBERS[key])
                    if problems:
                        raise ValidationError(problems)
                else:
                    raise ValidationError([f"unknown grid key {key!r}"])
        problems = []
        if args.tol is not None:
            tol = _number("--tol", args.tol, problems)
            config.tolerances.update(tol=tol, tol_l2=tol)
        if args.max_iter is not None:
            config.tolerances["max_iter"] = _number("--max-iter", args.max_iter, problems, 1)
        if problems:
            raise ValidationError(problems)
        doc, result = cmd_partition(config)
        _write_json(doc, args.out)
        for a in doc["atoms"]:
            print(f"{a['symbol']:4s} population {a['population']: .6f} "
                  f"net {a['net_charge']:+.6f} dipole_z {a['dipole'][2]: .6f}")
        if not result.converged:
            print("error: partition did not converge within max_iter", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        return EXIT_OK

    if args.command == "dma":
        config = parse_input(args.input)
        if args.sites:
            config.dma["sites"] = args.sites
        if args.strategy:
            config.dma["strategy"] = args.strategy
        if args.lmax is not None:
            config.dma["lmax"] = args.lmax
        doc, _, _ = cmd_dma(config)
        _write_json(doc, args.out)
        err = doc["checks"]["charge_conservation_error"]
        print(f"sites: {len(doc['sites'])}  total charge error {err:.3e}"
              + ("  [truncated]" if doc["truncated"] else ""))
        return EXIT_OK

    if args.command == "profile":
        with open(args.result, encoding="utf-8") as fh:
            result_doc = json.load(fh)
        dropped = cmd_profile(result_doc, args.atom, args.out)
        print(f"wrote {args.out}" + (f" ({dropped} zero rows dropped)" if dropped else ""))
        return EXIT_OK

    if args.command == "esp-compare":
        config = parse_input(args.input)
        if args.lmax is not None:
            config.dma["lmax"] = args.lmax
        points = _read_points(args.points)
        rows = cmd_esp_compare(config, points)
        lines = ["# x y z V_exact V_multipole rel_error"]
        for row in rows:
            x, y, z = row["point"]
            lines.append(f"{x: .6f} {y: .6f} {z: .6f} {row['exact']: .10e} "
                         f"{row['multipole']: .10e} {row['rel_error']:.3e}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(text, end="")
        return EXIT_OK

    raise ValidationError([f"unknown command {args.command!r}"])


if __name__ == "__main__":
    sys.exit(main())
