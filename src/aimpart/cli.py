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
from dataclasses import dataclass

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
from .errors import AimpartError, ConvergenceError, ValidationError
from .grids import AtomicGridSet, build_angular, build_radial, checked_position
from .partition import METHODS, PartitionOptions, run_partition
from .proatoms import HirshfeldITable, read_proatom_table
from .textio import read_rows
from .units import BOHR_PER_ANGSTROM

__all__ = ["RunConfig", "parse_input", "emit_config", "cmd_partition", "cmd_dma",
           "cmd_profile", "cmd_esp_compare", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_NUMERICAL = 4

# One rule per checked key of each config block, for JSON values and flags
# alike: a tuple of accepted words, None for a positive number, an int for
# the least integer allowed, str for free text. grid rules also apply to each
# grid.per_atom[i]; other keys in these blocks are refused.
_RULES = {
    "grid": {"nr": 2, "rmax": None, "radial": ("gauss_legendre", "log"),
             "angular": ("lebedev", "axial"), "order": 1},
    "tolerances": {"tol": None, "tol_l2": None, "max_iter": 1},
    "dma": {"sites": str, "strategy": ("stone", "vigne-maeder", "vigne_maeder"), "lmax": 0},
}
_METHOD_KEYS = ("name", "exponents", "init", "proatom_tables")
_DEFAULTS = {
    "grid": {"nr": 300, "rmax": 15.0, "radial": "gauss_legendre", "angular": "lebedev",
             "order": 170},
    "tolerances": {key: getattr(PartitionOptions, key) for key in _RULES["tolerances"]},
}


@dataclass
class RunConfig:
    """Validated, unit-normalized run description (canonical form: bohr)."""
    atoms: list
    density: object
    method: dict
    grid: dict
    tolerances: dict
    dma: dict

    def __eq__(self, other):
        if not isinstance(other, RunConfig):
            return NotImplemented
        return emit_config(self) == emit_config(other)


def _typed(where, value, kind, problems):
    """`value` when it is a list or dict as `kind` asks, else None with a
    problem naming `where`."""
    if isinstance(value, kind):
        return value
    problems.append(f"{where}: expected {'a list' if kind is list else 'an object'}, "
                    f"got {value!r}")
    return None


def _parse_density(spec, scale, problems):
    if _typed("density", spec, dict, problems) is None:
        return None
    kind = spec.get("kind")
    if kind == "analytic":
        terms = []
        for i, term in enumerate(_typed("density.terms", spec.get("terms", []), list,
                                        problems) or ()):
            if _typed(f"density.terms[{i}]", term, dict, problems) is None:
                continue
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
            exponent /= scale**2 if tkind == "gaussian_s" else scale
            terms.append((tkind, center, exponent, coefficient))
        if not terms:
            problems.append("density: no valid terms")
            return None
        try:
            return AnalyticDensity(terms=terms)
        except (ValueError, ValidationError) as exc:
            problems.append(f"density: {exc}")
            return None
    if kind == "gto":
        prims = []
        for i, p in enumerate(_typed("density.primitives", spec.get("primitives", []), list,
                                     problems) or ()):
            where = f"density.primitives[{i}]"
            if _typed(where, p, dict, problems) is None:
                continue
            try:
                l = _check(f"{where}.l", p["l"], 0, problems)
                m = _check(f"{where}.m", p["m"], -l, problems) if l is not None else None
                if m is not None:
                    prims.append(PrimitiveGaussian(
                        center=np.asarray(p["center"], dtype=float) * scale, l=l, m=m,
                        exponent=float(p["exponent"]) / scale**2))
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                problems.append(f"{where}: {exc}")
        P = spec.get("P")
        if P is None:
            problems.append("density: gto form needs a coefficient matrix P")
            return None
        try:
            P = np.asarray(P, dtype=float)
        except (TypeError, ValueError):
            problems.append(f"density.P: expected a matrix of numbers, got {P!r}")
        if problems:
            return None
        try:
            return GtoDensity(primitives=prims, P=P)
        except ValueError as exc:
            problems.append(f"density: {exc}")
            return None
    problems.append(f"density: unknown kind {kind!r} (expected analytic|gto)")
    return None


def _read_json(path):
    """The JSON object stored at `path`; any failure is a ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: malformed JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ValidationError([f"{path}: expected a JSON object"])
    return doc


def parse_input(path, flags=()):
    """Read and validate a JSON run config; collects every problem found."""
    return parse_config_dict(_read_json(path), flags)


def _check(where, value, rule, problems):
    """`value` converted by `rule` (see _RULES), or None with a problem naming `where`.

    A number rule takes any finite number or numeric text: a positive float
    for None, or an integral value >= the rule's int, returned as int.
    """
    if isinstance(rule, tuple):
        if value in rule:
            return value
        problem = f"must be {', '.join(rule[:-1])} or {rule[-1]}"
    elif rule is str:
        if isinstance(value, str):
            return value
        problem = "expected text"
    else:
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan
        if isinstance(value, bool) or not math.isfinite(x):
            problem = "expected a number"
        elif rule is None:
            if x > 0:
                return x
            problem = "expected a positive number"
        elif x.is_integer() and x >= rule:
            return int(x)
        else:
            problem = f"expected an integer >= {rule}"
    problems.append(f"{where}: {problem}, got {value!r}")
    return None


def _set(spec, where, key, value, rules, problems):
    """Store `value` checked by `rules[key]` in `spec`; an unknown key is a problem."""
    if key in rules:
        spec[key] = _check(where, value, rules[key], problems)
    else:
        problems.append(f"{where}: unknown key; expected one of {', '.join(rules)}")


def parse_config_dict(doc, flags=()):
    """Validate a config document and the (flag, block, key, value) overrides
    in `flags`; collects every problem found, naming each flag by itself."""
    problems = []
    units = doc.get("units", "bohr")
    if units not in ("bohr", "angstrom"):
        problems.append(f"units must be bohr or angstrom, got {units!r}")
        units = "bohr"
    scale = BOHR_PER_ANGSTROM if units == "angstrom" else 1.0

    atoms = []
    for i, a in enumerate(_typed("atoms", doc.get("atoms", []), list, problems) or ()):
        if _typed(f"atoms[{i}]", a, dict, problems) is None:
            continue
        try:
            Z = _check(f"atoms[{i}].Z", a["Z"], 1, problems)
            if Z is not None:
                atoms.append(Atom(symbol=str(a["symbol"]), Z=Z,
                                  position=np.asarray(a["position"], dtype=float) * scale))
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            problems.append(f"atoms[{i}]: {exc}")
    if not atoms:
        problems.append("no atoms given")

    dens = None
    if "density" in doc:
        dens = _parse_density(doc["density"], scale, problems)
    else:
        problems.append("no density given")

    method = dict(_typed("method", doc.get("method", {}), dict, problems) or {})
    name = method.get("name")
    if name is not None and name not in METHODS:
        problems.append(f"unknown method {name!r}; choose from {METHODS}")
    for key in method:
        if key == "shells":
            problems.append("method.shells: not a setting; each atom has one shell per "
                            "entry of its method.exponents row")
        elif key not in _METHOD_KEYS:
            problems.append(f"method.{key}: unknown key; expected one of "
                            f"{', '.join(_METHOD_KEYS)}")
    tables = method.get("proatom_tables", [])
    if not (isinstance(tables, list) and all(isinstance(t, str) for t in tables)):
        problems.append(f"method.proatom_tables: expected a list of file names, got {tables!r}")
    exponents = method.get("exponents")
    if exponents is not None:
        if isinstance(exponents, list) and all(isinstance(row, list) for row in exponents):
            exponents = method["exponents"] = [
                [_check(f"method.exponents[{i}][{k}]", e, None, problems)
                 for k, e in enumerate(row)]
                for i, row in enumerate(exponents)]
        else:
            problems.append("method.exponents: expected one exponent list per atom")

    blocks = {block: dict(_DEFAULTS.get(block, {})) for block in _RULES}
    entries = []
    for block in _RULES:
        spec = doc.get(block, {})
        if isinstance(spec, dict):
            entries += [(f"{block}.{key}", block, key, value) for key, value in spec.items()]
        else:
            problems.append(f"{block}: expected an object, got {spec!r}")
    for where, block, key, value in entries + list(flags):
        if where == "grid.per_atom":  # checked below, once the atoms are known
            blocks[block][key] = value
        else:
            _set(blocks[block], where, key, value, _RULES[block], problems)
    grid = blocks["grid"]
    if "per_atom" in grid:
        overrides = grid["per_atom"]
        if isinstance(overrides, list) and all(isinstance(o, dict) and "atom" in o
                                               for o in overrides):
            rules = dict(_RULES["grid"], atom=0)
            grid["per_atom"] = checked = [{} for _ in overrides]
            first = {}   # atom -> index of its first override
            for i, override in enumerate(overrides):
                for key, value in override.items():
                    _set(checked[i], f"grid.per_atom[{i}].{key}", key, value, rules, problems)
                atom = checked[i]["atom"]
                if atom is not None and atom >= len(atoms):
                    problems.append(f"grid.per_atom[{i}].atom: no atom {atom} "
                                    f"in a config of {len(atoms)} atoms")
                elif atom is not None and first.setdefault(atom, i) != i:
                    problems.append(f"grid.per_atom[{i}].atom: atom {atom} already has an "
                                    f"override at grid.per_atom[{first[atom]}]")
        else:
            problems.append("grid.per_atom: expected a list of overrides, each with an atom")

    if problems:
        # --tol sets both tolerances, so its one problem would show twice
        raise ValidationError(list(dict.fromkeys(problems)))
    return RunConfig(atoms=atoms, density=dens, method=method, **blocks)


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
    overrides = {o["atom"]: o for o in config.grid.get("per_atom", [])}
    radial, angular, problems = [], [], []
    for a in range(len(config.atoms)):
        spec = {**config.grid, **overrides.get(a, {})}
        try:
            radial.append(build_radial(spec["nr"], spec["rmax"], kind=spec["radial"]))
            angular.append(build_angular(spec["order"], kind=spec["angular"]))
        except ValueError as exc:
            problems.append(f"grid of atom {a}: {exc}")
    if problems:
        raise ValidationError(problems)
    positions = np.array([a.position for a in config.atoms])
    return AtomicGridSet(positions, radial, angular)


def _load_tables(config):
    """Pro-atom tables for hirshfeld / hirshfeld-i from files named in the config."""
    per_z = {}
    first = {}   # (Z, n) -> index of the first file that held it
    problems = []
    paths = config.method.get("proatom_tables", [])
    for i, path in enumerate(paths):
        try:
            Z, n, table = read_proatom_table(path)
        except ValidationError as exc:
            problems += exc.problems
            continue
        if first.setdefault((Z, n), i) != i:
            problems.append(f"{paths[first[Z, n]]} and {path} hold the same Z={Z}, n={n}")
        per_z.setdefault(Z, {})[n] = table
    if problems:
        raise ValidationError(problems)
    name = config.method.get("name")
    tables = {}
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
    opts = PartitionOptions(**config.tolerances)
    if method.get("exponents") is not None:
        opts.exponents = [list(row) for row in method["exponents"]]
    init = method.get("init", "balanced")
    if isinstance(init, list):
        try:
            init = [np.asarray(row, dtype=float) for row in init]
        except (TypeError, ValueError) as exc:
            raise ValidationError([f"method.init: rows must be numbers ({exc})"]) from exc
    elif not isinstance(init, str):
        raise ValidationError([f"method.init: expected text or a list of rows, got {init!r}"])
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
    q_total = total_charge(config.density)
    doc = {
        "config": emit_config(config),
        "conventions_version": CONVENTIONS_VERSION,
        "method": result.method,
        "converged": result.converged,
        "iterations": result.iterations,
        "total_charge": q_total,
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
        "charge_conservation": [float(abs(sum(c) - q_total)) for c in result.charge_history],
        "lost_charge": float(result.lost_charge),
        "elapsed_seconds": result.elapsed_seconds,
        "messages": result.messages,
    }
    return doc, result


def _resolve_sites(config):
    spec = config.dma.get("sites", "atoms")
    if spec not in ("atoms", "atoms+bonds"):
        return load_site_file(spec)
    mids, mid_labels = bond_midpoint_sites(config.atoms) if spec == "atoms+bonds" else ([], [])
    return SiteSet(positions=np.array([a.position for a in config.atoms] + mids),
                   labels=[f"{a.symbol}{i}" for i, a in enumerate(config.atoms)] + mid_labels)


def cmd_dma(config):
    """Distributed multipole analysis per the config's dma block."""
    if not isinstance(config.density, GtoDensity):
        raise ValidationError(["dma requires a gto density"])
    return _dma_document(config, _resolve_sites(config))


def _dma_document(config, sites):
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
    if not isinstance(profiles, list):
        raise ValidationError([f"profiles: expected a list, got {profiles!r}"])
    i = next((i for i, p in enumerate(profiles)
              if isinstance(p, dict) and p.get("atom") == atom), None)
    if i is None:
        raise ValidationError([f"result has no profile for atom {atom}"])
    try:
        rs, ws = (np.asarray(profiles[i][key], dtype=float) for key in ("r", "w"))
    except (KeyError, TypeError, ValueError):
        rs = ws = None
    if rs is None or rs.ndim != 1 or rs.shape != ws.shape:
        raise ValidationError([f"profiles[{i}]: expected lists r and w of numbers "
                               "of one length"])
    dropped = 0
    lines = ["# r_bohr  log(4*pi*r^2*w)"]
    for r, w in zip(rs.tolist(), ws.tolist()):
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
    _, series, _ = _dma_document(config, sites)
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
    _, rows, problems = read_rows(path, ("x", "y", "z"), "coordinate")
    for i, row in enumerate(rows):
        try:
            checked_position(row, f"field point {i}")
        except ValidationError as exc:
            problems += exc.problems
    if problems:
        raise ValidationError(problems)
    return np.asarray(rows, dtype=float)


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
    p_dma.add_argument("--strategy", help="stone | vigne-maeder")
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
    except AimpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_NUMERICAL


# argparse destination -> (block, key, ...) of the config values a flag sets
_FLAG_KEYS = {"tol": ("tolerances", "tol", "tol_l2"), "max_iter": ("tolerances", "max_iter"),
              "sites": ("dma", "sites"), "strategy": ("dma", "strategy"), "lmax": ("dma", "lmax")}


def _flags(args):
    """The (flag, block, key, value) config overrides given on the command line."""
    grid = getattr(args, "grid", None)
    flags = [(f"--grid {item}", "grid", *item.partition("=")[::2])
             for item in (grid.split(",") if grid else ())]
    return flags + [(f"--{dest.replace('_', '-')}", block, key, getattr(args, dest))
                    for dest, (block, *keys) in _FLAG_KEYS.items()
                    if getattr(args, dest, None) is not None for key in keys]


def _dispatch(args):
    if args.command == "profile":
        dropped = cmd_profile(_read_json(args.result), args.atom, args.out)
        print(f"wrote {args.out}" + (f" ({dropped} zero rows dropped)" if dropped else ""))
        return EXIT_OK

    config = parse_input(args.input, _flags(args))
    if args.command == "partition":
        if args.method:
            config.method["name"] = args.method
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
        doc, _, _ = cmd_dma(config)
        _write_json(doc, args.out)
        err = doc["checks"]["charge_conservation_error"]
        print(f"sites: {len(doc['sites'])}  total charge error {err:.3e}"
              + ("  [truncated]" if doc["truncated"] else ""))
        return EXIT_OK

    if args.command == "esp-compare":
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


if __name__ == "__main__":
    sys.exit(main())
