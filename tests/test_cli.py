import json
import math
import pathlib

import numpy as np
import pytest

from aimpart import cli, partition, proatoms
from aimpart.errors import ConvergenceError, EntropyIncreaseError, NumericalError, ValidationError
from aimpart.units import BOHR_PER_ANGSTROM

DATA = pathlib.Path(__file__).parent / "data"


def _analytic_config(tmp_path, **overrides):
    cfg = {
        "units": "bohr",
        "atoms": [
            {"symbol": "X1", "Z": 1, "position": [0, 0, 0]},
            {"symbol": "X2", "Z": 1, "position": [0, 0, 1.131]},
        ],
        "density": {"kind": "analytic", "terms": [
            {"kind": "gaussian_s", "center": [0, 0, 0], "exponent": 0.1,
             "coefficient": 1.0},
            {"kind": "gaussian_s", "center": [0, 0, 1.131], "exponent": 0.5,
             "coefficient": 1.0},
        ]},
        "method": {"name": "isa"},
        "grid": {"nr": 200, "rmax": 14.0, "angular": "axial", "order": 80},
        "tolerances": {"tol": 1e-6, "tol_l2": 1e-6, "max_iter": 60},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


def _gto_config(tmp_path):
    cfg = {
        "units": "bohr",
        "atoms": [
            {"symbol": "A", "Z": 1, "position": [0, 0, 0]},
            {"symbol": "B", "Z": 1, "position": [0, 0, 1.8]},
        ],
        "density": {"kind": "gto",
                    "primitives": [
                        {"center": [0, 0, 0], "l": 0, "m": 0, "exponent": 0.9},
                        {"center": [0, 0, 1.8], "l": 0, "m": 0, "exponent": 1.3},
                    ],
                    "P": [[1.0, 0.15], [0.15, 0.8]]},
        "dma": {"sites": "atoms", "strategy": "stone", "lmax": 4},
        "grid": {"nr": 150, "rmax": 12.0, "angular": "lebedev", "order": 110},
    }
    path = tmp_path / "gto.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


def test_parse_minimal_config_fills_defaults(tmp_path):
    path, _ = _analytic_config(tmp_path)
    config = cli.parse_input(path)
    assert config.grid["radial"] == "gauss_legendre"
    assert config.tolerances["max_iter"] == 60
    assert len(config.atoms) == 2


def test_per_atom_grid_overrides(tmp_path):
    path, _ = _analytic_config(
        tmp_path,
        grid={"nr": 120, "rmax": 12.0, "angular": "axial", "order": 40,
              "per_atom": [{"atom": 1, "nr": 200, "rmax": 9.0}]})
    config = cli.parse_input(path)
    gs = cli._build_grids(config)
    assert gs.radial[0].nodes.size == 120 and gs.radial[0].rmax == 12.0
    assert gs.radial[1].nodes.size == 200 and gs.radial[1].rmax == 9.0
    assert gs.angular[1].weights.size == 40


def test_parse_angstrom_positions_converted(tmp_path):
    path, cfg = _analytic_config(tmp_path, units="angstrom")
    config = cli.parse_input(path)
    assert config.atoms[1].position[2] == pytest.approx(1.131 * BOHR_PER_ANGSTROM)
    # Gaussian exponents scale as inverse length squared
    assert config.density.terms[1][2] == pytest.approx(0.5 / BOHR_PER_ANGSTROM**2)


def test_parse_collects_all_errors(tmp_path):
    path, cfg = _analytic_config(tmp_path)
    bad = json.loads(path.read_text())
    bad["method"] = {"name": "gisa",
                     "exponents": [[0.01, 0.1, 1, 2, 5, 10], [0.05, 0.5, 2, 4, 10]]}
    bad["units"] = "parsec"
    bad["grid"] = {"angular": "cube"}
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        cli.parse_input(path)
    text = "\n".join(err.value.problems)
    assert "units" in text
    assert "angular" in text


def test_config_roundtrip_canonical(tmp_path):
    path, _ = _analytic_config(tmp_path, units="bohr")
    config = cli.parse_input(path)
    emitted = cli.emit_config(config)
    path2 = tmp_path / "roundtrip.json"
    path2.write_text(json.dumps(emitted), encoding="utf-8")
    config2 = cli.parse_input(path2)
    assert config == config2
    assert cli.emit_config(config2) == emitted


def test_partition_command_runs_and_reports(tmp_path, capsys):
    path, _ = _analytic_config(tmp_path)
    out = tmp_path / "result.json"
    rc = cli.main(["partition", "--input", str(path), "--out", str(out),
                   "--tol", "1e-5", "--max-iter", "400"])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["conventions_version"]
    assert doc["converged"] is True
    assert abs(sum(a["population"] for a in doc["atoms"]) - 2.0) < 1e-3
    assert doc["config"]["units"] == "bohr"
    assert len(doc["entropy_trace"]) == doc["iterations"]


def test_partition_nonconvergence_exit_code(tmp_path):
    path, _ = _analytic_config(tmp_path)
    out = tmp_path / "result.json"
    rc = cli.main(["partition", "--input", str(path), "--out", str(out),
                   "--max-iter", "3"])
    assert rc == cli.EXIT_NONCONVERGENCE


def test_partition_validation_exit_code(tmp_path):
    path, _ = _analytic_config(tmp_path, method={"name": "mulliken"})
    rc = cli.main(["partition", "--input", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == cli.EXIT_VALIDATION


@pytest.mark.parametrize("init", ["delta:-1", "delta:9", "delta:x", "delta:1"])
def test_partition_bad_delta_initial_guess_exit_code(tmp_path, capsys, init):
    path, _ = _analytic_config(tmp_path, method={
        "name": "mbisa", "exponents": [[0.1, 1.0], [0.5, 2.0]],
        "init": init})
    rc = cli.main(["partition", "--input", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "expected 'balanced' or one coefficient row per atom" in capsys.readouterr().err


@pytest.mark.parametrize("init, atom", [
    ([[0.5, 0.5]], "atom 1 has none"),
    ([[-0.5, 1.5], [0.5, 0.5]], "atom 0:"),
    ([[0.5, 0.5], [math.nan, 1.0]], "atom 1:"),
], ids=["short", "negative", "nan"])
def test_partition_bad_explicit_initial_guess_exit_code(tmp_path, capsys, init, atom):
    path, _ = _analytic_config(tmp_path, method={
        "name": "mbisa", "exponents": [[0.1, 1.0], [0.5, 2.0]],
        "init": init})
    rc = cli.main(["partition", "--input", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == cli.EXIT_VALIDATION
    assert atom in capsys.readouterr().err


def test_partition_hirshfeld_with_table_files(tmp_path):
    nodes = np.linspace(0.001, 14.0, 400)
    table = proatoms.synthetic_proatom_table(1, 1, nodes, 14.0)
    tab_path = tmp_path / "proatom_z1_n1.dat"
    proatoms.write_proatom_table(tab_path, 1, 1, table)
    path, _ = _analytic_config(
        tmp_path, method={"name": "hirshfeld", "proatom_tables": [str(tab_path)]})
    out = tmp_path / "result.json"
    rc = cli.main(["partition", "--input", str(path), "--out", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["iterations"] == 1


def test_partition_hirshfeld_i_with_table_files(tmp_path):
    # the CLI reads one file per electron count into a HirshfeldITable per atom
    nodes = np.linspace(0.001, 14.0, 400)
    paths = []
    for n in range(3):
        paths.append(tmp_path / f"proatom_z1_n{n}.dat")
        proatoms.write_proatom_table(paths[-1], 1, n,
                                     proatoms.synthetic_proatom_table(1, n, nodes, 14.0))
    path, _ = _analytic_config(
        tmp_path, method={"name": "hirshfeld-i", "proatom_tables": list(map(str, paths))})
    out = tmp_path / "result.json"
    assert cli.main(["partition", "--input", str(path), "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    config = cli.parse_input(path)
    tables = {n: table for _, n, table in map(proatoms.read_proatom_table, paths)}
    opts = partition.PartitionOptions(
        **config.tolerances, proatom_tables={a: proatoms.HirshfeldITable(1, tables)
                                             for a in range(2)})
    res = partition.run_partition("hirshfeld-i", config.density, cli._build_grids(config),
                                  options=opts, Z=[1, 1])
    assert doc["method"] == "hirshfeld-i" and doc["iterations"] == res.iterations > 1
    assert [a["population"] for a in doc["atoms"]] == res.charges.tolist()


def test_partition_method_flag_overrides_config(tmp_path):
    table = tmp_path / "proatom_z1_n1.dat"
    proatoms.write_proatom_table(table, 1, 1, proatoms.synthetic_proatom_table(
        1, 1, np.linspace(0.001, 14.0, 400), 14.0))
    docs = []
    for name, flag in (("isa", ["--method", "hirshfeld"]), ("hirshfeld", [])):
        path, _ = _analytic_config(tmp_path, method={"name": name,
                                                     "proatom_tables": [str(table)]})
        out = tmp_path / f"{name}.json"
        assert cli.main(["partition", "--input", str(path), *flag, "--out", str(out)]) \
            == cli.EXIT_OK
        docs.append(json.loads(out.read_text()))
    flagged, named = docs
    assert flagged["method"] == flagged["config"]["method"]["name"] == "hirshfeld"
    assert flagged["atoms"] == named["atoms"]


@pytest.mark.parametrize("error, code", [
    (ConvergenceError("inner solver hit its iteration cap"), cli.EXIT_NONCONVERGENCE),
    (NumericalError("quadrature defect"), cli.EXIT_NUMERICAL),
    (EntropyIncreaseError("isa entropy rose"), cli.EXIT_NUMERICAL),
], ids=["convergence", "numerical", "entropy"])
def test_partition_library_errors_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "run_partition", fail)
    path, _ = _analytic_config(tmp_path)
    assert cli.main(["partition", "--input", str(path), "--out", str(tmp_path / "x.json")]) \
        == code
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("command, expected", [
    (["dma"], "error: site multipoles are not finite at B1; the density's data overflow"),
    (["partition", "--method", "isa"],
     "error: the density on the grid of atom 0 has non-finite samples or charge"),
], ids=["dma", "partition"])
def test_overflowing_density_exits_numerical(tmp_path, capsys, command, expected):
    # P is finite, but the population 2 P_01 of the off-diagonal pair (which
    # Stone gives to B1) and the charge overflow double precision
    _, cfg = _gto_config(tmp_path)
    cfg["density"]["P"] = [[1e308, 1e308], [1e308, 1e308]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "x.json"
    assert cli.main([command[0], "--input", str(path), *command[1:], "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_profile_command_slater_tail_slope(tmp_path):
    # Slater pro-atom profile: emitted log(4 pi r^2 w) has a straight tail
    # with slope -alpha
    alpha = 1.7
    nodes = np.linspace(0.05, 12.0, 300)
    w = alpha**3 / (8 * math.pi) * np.exp(-alpha * nodes)
    result = {"profiles": [{"atom": 0, "r": nodes.tolist(), "w": w.tolist()}]}
    res_path = tmp_path / "res.json"
    res_path.write_text(json.dumps(result), encoding="utf-8")
    out = tmp_path / "profile.dat"
    rc = cli.main(["profile", "--result", str(res_path), "--atom", "0",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    rows = [line.split() for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    data = np.array(rows, dtype=float)
    tail = data[-60:]
    slope = np.polyfit(tail[:, 0], tail[:, 1], 1)[0]
    assert slope == pytest.approx(-alpha + 2.0 / tail[:, 0].mean(), abs=0.02)


def test_profile_drops_zero_rows(tmp_path):
    result = {"profiles": [{"atom": 0, "r": [0.5, 1.0, 2.0], "w": [1.0, 0.0, 0.5]}]}
    res_path = tmp_path / "res.json"
    res_path.write_text(json.dumps(result), encoding="utf-8")
    out = tmp_path / "profile.dat"
    rc = cli.main(["profile", "--result", str(res_path), "--atom", "0",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = out.read_text()
    assert "dropped 1 rows" in text
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 2


def test_profile_unknown_atom(tmp_path):
    res_path = tmp_path / "res.json"
    res_path.write_text(json.dumps({"profiles": []}), encoding="utf-8")
    rc = cli.main(["profile", "--result", str(res_path), "--atom", "5",
                   "--out", str(tmp_path / "p.dat")])
    assert rc == cli.EXIT_VALIDATION


def test_dma_command(tmp_path):
    path, _ = _gto_config(tmp_path)
    out = tmp_path / "dma.json"
    rc = cli.main(["dma", "--input", str(path), "--out", str(out),
                   "--strategy", "vigne-maeder", "--lmax", "3"])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["strategy"] == "vigne_maeder"
    assert doc["checks"]["charge_conservation_error"] < 1e-10
    assert len(doc["sites"]) == 2
    assert "0,0" in doc["sites"][0]["multipoles"]
    # one "l,m" key per |m| <= l <= lmax, each the site table's [l, m] entry
    config = cli.parse_input(path)
    config.dma.update(strategy="vigne-maeder", lmax=3)
    _, series, _ = cli.cmd_dma(config)
    for site, ser in zip(doc["sites"], series):
        assert set(site["multipoles"]) == {f"{l},{m}" for l in range(4)
                                           for m in range(-l, l + 1)}
        for key, value in site["multipoles"].items():
            l, m = map(int, key.split(","))
            assert value == ser.coeffs[l, m]


def test_dma_rejects_analytic_density(tmp_path):
    path, _ = _analytic_config(tmp_path, dma={"sites": "atoms"})
    rc = cli.main(["dma", "--input", str(path), "--out", str(tmp_path / "d.json")])
    assert rc == cli.EXIT_VALIDATION


def test_dma_site_file(tmp_path):
    path, _ = _gto_config(tmp_path)
    sites = tmp_path / "sites.txt"
    sites.write_text("left 0 0 0\nmid 0 0 0.9\nright 0 0 1.8\n", encoding="utf-8")
    out = tmp_path / "dma.json"
    rc = cli.main(["dma", "--input", str(path), "--out", str(out),
                   "--sites", str(sites)])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert [s["label"] for s in doc["sites"]] == ["left", "mid", "right"]


def test_esp_compare_command(tmp_path, capsys):
    path, _ = _gto_config(tmp_path)
    pts = tmp_path / "points.dat"
    pts.write_text("0 0 30\n0 25 0\n", encoding="utf-8")
    out = tmp_path / "esp.dat"
    rc = cli.main(["esp-compare", "--input", str(path), "--points", str(pts),
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 2
    rels = [float(l.split()[-1]) for l in lines]
    assert max(rels) < 1e-6  # far field: multipoles match the exact ESP


def test_esp_compare_lmax_flag_sets_multipole_order(tmp_path, capsys):
    # the config asks for lmax 4; --lmax overrides it only when given
    cfg = DATA / "synthetic_gto.json"
    pts = tmp_path / "points.dat"
    pts.write_text("0 0 20\n0 0 -18\n", encoding="utf-8")
    columns = {}
    for flag in ([], ["--lmax", "0"], ["--lmax", "4"]):
        out = tmp_path / "esp.dat"
        rc = cli.main(["esp-compare", "--input", str(cfg), "--points", str(pts),
                       "--out", str(out)] + flag)
        assert rc == cli.EXIT_OK
        rows = [l.split() for l in out.read_text().splitlines() if not l.startswith("#")]
        columns[" ".join(flag)] = [float(row[4]) for row in rows]
    assert columns["--lmax 4"] == columns[""]
    assert columns["--lmax 0"] != columns["--lmax 4"]


def test_esp_compare_refuses_off_axis_point_on_axial_grid(tmp_path, capsys):
    # the config's axial grid samples one meridian; (18, 0, -6) is off the axis
    pts = tmp_path / "points.dat"
    pts.write_text("0 0 20\n18 0 -6\n", encoding="utf-8")
    rc = cli.main(["esp-compare", "--input", str(DATA / "synthetic_gto.json"),
                   "--points", str(pts)])
    assert rc == cli.EXIT_VALIDATION
    assert "Lebedev" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["esp-compare", "--input", "{gto}", "--points", "{short}"],
     "short.dat:2: expected '<x> <y> <z>'"),
    (["esp-compare", "--input", "{gto}", "--points", "{text}"],
     "text.dat:2: non-numeric coordinate"),
    (["partition", "--input", "{gto}", "--method", "isa", "--grid", "nr=abc",
      "--out", "{out}"], "--grid nr=abc"),
    (["partition", "--input", "{init}", "--out", "{out}"], "method.init"),
    (["dma", "--input", "{gto}", "--lmax", "-1", "--out", "{out}"], "lmax"),
    (["partition", "--input", "{tol}", "--out", "{out}"],
     "tolerances.tol: expected a number, got 'abc'"),
    (["partition", "--input", "{max_iter}", "--out", "{out}"],
     "tolerances.max_iter: expected an integer >= 1, got 2.5"),
    (["partition", "--input", "{nr}", "--out", "{out}"],
     "grid.nr: expected a number, got 'abc'"),
    (["partition", "--input", "{per_atom}", "--out", "{out}"],
     "grid.per_atom[0].rmax: expected a positive number, got -9.0"),
    (["partition", "--input", "{per_atom_no_atom}", "--out", "{out}"],
     "grid.per_atom: expected a list of overrides, each with an atom"),
    (["partition", "--input", "{exponents}", "--out", "{out}"],
     "method.exponents[1][0]: expected a number, got 'x'"),
    (["partition", "--input", "{shells}", "--out", "{out}"],
     "method.shells: not a setting; each atom has one shell per entry of its "
     "method.exponents row"),
    (["dma", "--input", "{lmax}", "--out", "{out}"], "dma.lmax: expected a number, got 'x'"),
    (["partition", "--input", "{gto}", "--method", "isa", "--grid", "nr=1",
      "--out", "{out}"], "--grid nr=1: expected an integer >= 2, got '1'"),
    (["dma", "--input", "{gto}", "--sites", "{empty}", "--out", "{out}"],
     "site set must be nonempty"),
    (["partition", "--input", "{gto}", "--method", "isa", "--grid", "angular=foo",
      "--out", "{out}"], "--grid angular=foo: must be lebedev or axial"),
    (["partition", "--input", "{gto}", "--method", "isa", "--tol", "-1", "--out", "{out}"],
     "--tol: expected a positive number, got -1.0"),
    (["partition", "--input", "{gto}", "--method", "isa", "--tol", "0", "--out", "{out}"],
     "--tol: expected a positive number, got 0.0"),
    (["partition", "--input", "{gto}", "--method", "isa", "--max-iter", "0",
      "--out", "{out}"], "--max-iter: expected an integer >= 1, got 0"),
    (["partition", "--input", "{per_atom_unknown_atom}", "--out", "{out}"],
     "grid.per_atom[0].atom: no atom 5 in a config of 2 atoms"),
    (["partition", "--input", "{nan_table}", "--out", "{out}"],
     "nan_table.dat:3: non-finite entry"),
    (["dma", "--input", "{gto}", "--sites", "{nan_sites}", "--out", "{out}"],
     "nan_sites.txt:3: non-finite coordinate"),
    (["esp-compare", "--input", "{gto}", "--points", "{nan_points}"],
     "nan_points.dat:2: non-finite coordinate"),
    (["partition", "--input", "{missing_table}", "--out", "{out}"],
     "cannot read no_such_table.dat: "),
    (["dma", "--input", "{gto}", "--sites", "no_such_sites.txt", "--out", "{out}"],
     "cannot read no_such_sites.txt: "),
    (["esp-compare", "--input", "{gto}", "--points", "no_such_points.dat"],
     "cannot read no_such_points.dat: "),
    (["profile", "--result", "no_such_result.json", "--atom", "0", "--out", "{out}"],
     "cannot read no_such_result.json: "),
    (["profile", "--result", "{bad_json}", "--atom", "0", "--out", "{out}"],
     "bad_json.json: malformed JSON"),
    (["partition", "--input", "{lebedev_7}", "--out", "{out}"],
     "grid of atom 0: unsupported Lebedev order 7; available: ["),
    (["partition", "--input", "{per_atom_cube}", "--out", "{out}"],
     "grid.per_atom[0].angular: must be lebedev or axial, got 'cube'"),
    (["partition", "--input", "{maxiter_key}", "--out", "{out}"],
     "tolerances.maxiter: unknown key; expected one of tol, tol_l2, max_iter"),
    (["partition", "--input", "{grid_key}", "--out", "{out}"], "grid.nodes: unknown key"),
    (["partition", "--input", "{per_atom_key}", "--out", "{out}"],
     "grid.per_atom[0].nodes: unknown key"),
    (["dma", "--input", "{dma_key}", "--out", "{out}"], "dma.order: unknown key"),
    (["dma", "--input", "{sites_number}", "--out", "{out}"],
     "dma.sites: expected text, got 5"),
    (["partition", "--input", "{exponents_empty}", "--out", "{out}"],
     "need one nonempty exponent list per atom"),
    (["profile", "--result", "{profile_not_list}", "--atom", "0", "--out", "{out}"],
     "profiles: expected a list, got 5"),
    (["profile", "--result", "{profile_no_rows}", "--atom", "0", "--out", "{out}"],
     "profiles[0]: expected lists r and w of numbers of one length"),
    (["profile", "--result", "{profile_lengths}", "--atom", "1", "--out", "{out}"],
     "profiles[1]: expected lists r and w of numbers of one length"),
    (["partition", "--input", "{neg_table}", "--out", "{out}"],
     "neg_table.dat:3: negative entry"),
    (["partition", "--input", "{init_number}", "--out", "{out}"],
     "method.init: expected text or a list of rows, got 5"),
    (["partition", "--input", "{init_dict}", "--out", "{out}"],
     "method.init: expected text or a list of rows, got {}"),
    (["partition", "--input", "{init_bool}", "--out", "{out}"],
     "method.init: expected text or a list of rows, got True"),
    (["partition", "--input", "{P_inf}", "--method", "isa", "--out", "{out}"],
     "density: P must be finite"),
    (["dma", "--input", "{P_inf}", "--out", "{out}"], "density: P must be finite"),
    (["partition", "--input", "{P_nan}", "--method", "isa", "--out", "{out}"],
     "density: P must be finite"),
    (["dma", "--input", "{P_nan}", "--out", "{out}"], "density: P must be finite"),
    (["partition", "--input", "{exponent_inf}", "--method", "isa", "--out", "{out}"],
     "density.primitives[0]: exponent must be finite and positive"),
    (["dma", "--input", "{exponent_inf}", "--out", "{out}"],
     "density.primitives[0]: exponent must be finite and positive"),
    (["dma", "--input", "{exponent_huge}", "--out", "{out}"],
     "density.primitives[0]: exponent 1e+300 is too large to normalise"),
    (["partition", "--input", "{term_exponent_huge}", "--out", "{out}"],
     "density: term exponent 1e+250 is too large to normalise"),
    (["partition", "--input", "{center_nan}", "--method", "isa", "--out", "{out}"],
     "density.primitives[0]: center must be a finite 3-vector"),
    (["dma", "--input", "{center_nan}", "--out", "{out}"],
     "density.primitives[0]: center must be a finite 3-vector"),
    (["partition", "--input", "{coefficient_inf}", "--out", "{out}"],
     "density: term coefficients must be finite and nonnegative"),
    (["partition", "--input", "{coefficient_nan}", "--out", "{out}"],
     "density: term coefficients must be finite and nonnegative"),
], ids=["points-short-row", "points-non-numeric", "grid-non-numeric",
        "init-non-numeric", "dma-negative-lmax", "tol-non-numeric",
        "max-iter-non-integral", "config-nr-non-numeric", "per-atom-rmax-negative",
        "per-atom-no-atom", "exponents-non-numeric", "shells-non-integral",
        "config-lmax-non-numeric", "grid-nr-too-small", "empty-site-file",
        "grid-unknown-angular", "tol-negative", "tol-zero", "max-iter-zero",
        "per-atom-unknown-atom", "proatom-table-nan", "site-file-nan", "points-nan",
        "missing-proatom-table", "missing-site-file", "missing-points-file",
        "missing-result-file", "malformed-result-file", "lebedev-order-unsupported",
        "per-atom-unknown-angular", "tolerances-unknown-key", "grid-unknown-key",
        "per-atom-unknown-key", "dma-unknown-key", "dma-sites-not-text",
        "exponents-empty-row", "result-profiles-not-list",
        "result-profile-without-rows", "result-profile-length-mismatch",
        "proatom-table-negative", "init-number", "init-dict", "init-bool",
        "partition-P-inf", "dma-P-inf", "partition-P-nan", "dma-P-nan",
        "partition-exponent-inf", "dma-exponent-inf", "dma-exponent-huge",
        "partition-term-exponent-huge", "partition-center-nan",
        "dma-center-nan", "coefficient-inf", "coefficient-nan"])
def test_cli_bad_input_exit_code(tmp_path, capsys, argv, expected):
    paths = {"gto": _gto_config(tmp_path)[0], "out": tmp_path / "x.json",
             "short": tmp_path / "short.dat", "text": tmp_path / "text.dat",
             "empty": tmp_path / "empty.txt"}
    _, base = _analytic_config(tmp_path)
    table = tmp_path / "nan_table.dat"
    table.write_text("# proatom Z=1 n=1\n0.1 2.0\nnan 1.0\n14.0 0.0\n", encoding="utf-8")
    neg_table = tmp_path / "neg_table.dat"
    neg_table.write_text("# proatom Z=1 n=1\n0.1 2.0\n0.5 -1.0\n14.0 0.0\n", encoding="utf-8")
    paths["init"], _ = _analytic_config(tmp_path, method={
        "name": "mbisa", "exponents": [[0.1, 1.0], [0.5, 2.0]],
        "init": [[1, 1], ["a", "b"]]})
    edits = {
        "tol": {"tolerances": {"tol": "abc", "tol_l2": 1e-6, "max_iter": 60}},
        "max_iter": {"tolerances": {"tol": 1e-6, "tol_l2": 1e-6, "max_iter": 2.5}},
        "nr": {"grid": {**base["grid"], "nr": "abc"}},
        "per_atom": {"grid": {**base["grid"], "per_atom": [{"atom": 1, "rmax": -9.0}]}},
        "per_atom_no_atom": {"grid": {**base["grid"], "per_atom": [{"nr": 100}]}},
        "per_atom_unknown_atom": {"grid": {**base["grid"],
                                           "per_atom": [{"atom": 5, "nr": 2}]}},
        "exponents": {"method": {"name": "gisa",
                                 "exponents": [[0.1, 1.0], ["x", 2.0]]}},
        "exponents_empty": {"method": {"name": "gisa", "exponents": [[], [0.5, 2.0]]}},
        "shells": {"method": {"name": "gisa", "shells": [1.5, 2],
                              "exponents": [[0.1, 1.0], [0.5, 2.0]]}},
        "nan_table": {"method": {"name": "hirshfeld", "proatom_tables": [str(table)]}},
        "neg_table": {"method": {"name": "hirshfeld", "proatom_tables": [str(neg_table)]}},
        "init_number": {"method": {"name": "gisa", "init": 5}},
        "init_dict": {"method": {"name": "gisa", "init": {}}},
        "init_bool": {"method": {"name": "gisa", "init": True}},
        "missing_table": {"method": {"name": "hirshfeld",
                                     "proatom_tables": ["no_such_table.dat"]}},
        "lebedev_7": {"grid": {**base["grid"], "angular": "lebedev", "order": 7}},
        "per_atom_cube": {"grid": {**base["grid"],
                                   "per_atom": [{"atom": 1, "angular": "cube"}]}},
        "maxiter_key": {"tolerances": {"maxiter": 5}},
        "grid_key": {"grid": {**base["grid"], "nodes": 5}},
        "per_atom_key": {"grid": {**base["grid"], "per_atom": [{"atom": 1, "nodes": 5}]}},
    }
    for name, value in (("coefficient_inf", math.inf), ("coefficient_nan", math.nan)):
        terms = [dict(base["density"]["terms"][0], coefficient=value),
                 base["density"]["terms"][1]]
        edits[name] = {"density": {"kind": "analytic", "terms": terms}}
    terms = [dict(base["density"]["terms"][0], exponent=1e250), base["density"]["terms"][1]]
    edits["term_exponent_huge"] = {"density": {"kind": "analytic", "terms": terms}}
    for name, edit in edits.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**base, **edit}), encoding="utf-8")
    _, gto = _gto_config(tmp_path)
    # a one-primitive density; json writes inf and nan as Infinity and NaN
    prim = gto["density"]["primitives"][0]
    for name, edit in (("P_inf", {"P": [[math.inf]]}), ("P_nan", {"P": [[math.nan]]}),
                       ("exponent_inf", {"primitives": [dict(prim, exponent=math.inf)]}),
                       ("exponent_huge", {"primitives": [dict(prim, exponent=1e300)]}),
                       ("center_nan", {"primitives": [dict(prim, center=[math.nan, 0, 0])]})):
        one = {"kind": "gto", "primitives": [prim], "P": [[1.0]], **edit}
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**gto, "density": one}), encoding="utf-8")
    paths["lmax"] = tmp_path / "lmax.json"
    paths["lmax"].write_text(json.dumps({**gto, "dma": {"lmax": "x"}}), encoding="utf-8")
    for name, dma_spec in (("dma_key", {"order": 2}), ("sites_number", {"sites": 5})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**gto, "dma": dma_spec}), encoding="utf-8")
    paths["nan_sites"] = tmp_path / "nan_sites.txt"
    paths["nan_sites"].write_text("A 0 0 0\nB 0 0 1.8\nC nan 0 0.9\n", encoding="utf-8")
    paths["nan_points"] = tmp_path / "nan_points.dat"
    paths["nan_points"].write_text("0 0 30\n0 inf 0\n", encoding="utf-8")
    paths["bad_json"] = tmp_path / "bad_json.json"
    paths["bad_json"].write_text("{not json", encoding="utf-8")
    for name, profiles in (("profile_not_list", 5), ("profile_no_rows", [{"atom": 0}]),
                           ("profile_lengths", [{"atom": 0, "r": [1.0], "w": [1.0]},
                                                {"atom": 1, "r": [0.5, 1.0], "w": [1.0]}])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"profiles": profiles}), encoding="utf-8")
    paths["empty"].write_text("# no sites\n", encoding="utf-8")
    paths["short"].write_text("0 0 30\n0 25\n", encoding="utf-8")
    paths["text"].write_text("# x y z\n0 0 x\n", encoding="utf-8")
    rc = cli.main([arg.format(**paths) for arg in argv])
    assert rc == cli.EXIT_VALIDATION
    assert expected in capsys.readouterr().err


def test_esp_compare_reads_the_site_file_once(tmp_path, monkeypatch, capsys):
    _, cfg = _gto_config(tmp_path)
    sites = tmp_path / "sites.txt"
    sites.write_text("left 0 0 0\nmid 0 0 0.9\nright 0 0 1.8\n", encoding="utf-8")
    path = tmp_path / "sites_config.json"
    path.write_text(json.dumps({**cfg, "dma": {"sites": str(sites)}}), encoding="utf-8")
    pts = tmp_path / "points.dat"
    pts.write_text("0 0 30\n", encoding="utf-8")
    calls = []
    load = cli.load_site_file
    monkeypatch.setattr(cli, "load_site_file", lambda p: calls.append(p) or load(p))
    rc = cli.main(["esp-compare", "--input", str(path), "--points", str(pts)])
    assert rc == cli.EXIT_OK
    assert calls == [str(sites)]


def test_partition_reports_every_unreadable_table(tmp_path, capsys):
    tables = [str(tmp_path / "a.dat"), str(tmp_path / "b.dat")]
    path, _ = _analytic_config(tmp_path, method={"name": "hirshfeld",
                                                 "proatom_tables": tables})
    rc = cli.main(["partition", "--input", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    for table in tables:
        assert f"error: cannot read {table}: " in err


def test_esp_compare_refuses_point_on_site(tmp_path, capsys):
    # the sites are the atoms; (0, 0, 1.8) is atom B, and it is refused
    # before any multipole or quadrature work starts
    path, _ = _gto_config(tmp_path)
    pts = tmp_path / "points.dat"
    pts.write_text("0 0 30\n0 0 1.8\n0 0 0\n", encoding="utf-8")
    rc = cli.main(["esp-compare", "--input", str(path), "--points", str(pts)])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "field point 1 [0.0, 0.0, 1.8] coincides with site B1" in err
    assert "field point 2 [0.0, 0.0, 0.0] coincides with site A0" in err
    assert "field point 0" not in err


def test_parse_converts_numeric_config_values(tmp_path):
    path, _ = _analytic_config(
        tmp_path, grid={"nr": 120.0, "rmax": "12", "angular": "axial", "order": 40,
                        "per_atom": [{"atom": 1.0, "nr": "200"}]},
        tolerances={"tol": "1e-6", "tol_l2": 1e-6, "max_iter": 60.0},
        dma={"lmax": 2.0})
    config = cli.parse_input(path)
    assert config.grid["nr"] == 120 and isinstance(config.grid["nr"], int)
    assert config.grid["rmax"] == 12.0 and isinstance(config.grid["rmax"], float)
    assert config.grid["per_atom"] == [{"atom": 1, "nr": 200}]
    assert config.tolerances == {"tol": 1e-6, "tol_l2": 1e-6, "max_iter": 60}
    assert isinstance(config.tolerances["max_iter"], int)
    assert config.dma["lmax"] == 2 and isinstance(config.dma["lmax"], int)


@pytest.mark.parametrize("block, key, value, flag", [
    ("grid", "nr", "1", ["--grid", "nr=1"]),
    ("grid", "order", "0", ["--grid", "order=0"]),
    ("grid", "angular", "cube", ["--grid", "angular=cube"]),
    ("tolerances", "tol", -1.0, ["--tol", "-1"]),
    ("tolerances", "max_iter", 0, ["--max-iter", "0"]),
    ("dma", "lmax", -1, ["--lmax", "-1"]),
    ("dma", "strategy", "foo", ["--strategy", "foo"]),
], ids=["nr", "order", "angular", "tol", "max-iter", "lmax", "strategy"])
def test_config_value_and_flag_are_refused_alike(tmp_path, capsys, block, key, value, flag):
    path, cfg = _gto_config(tmp_path)
    command = ["dma"] if block == "dma" else ["partition", "--method", "isa"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**cfg, block: {**cfg.get(block, {}), key: value}}),
                   encoding="utf-8")
    errors = []
    for argv in (["--input", str(bad)], ["--input", str(path)] + flag):
        rc = cli.main(command + argv + ["--out", str(tmp_path / "x.json")])
        assert rc == cli.EXIT_VALIDATION
        errors.append(capsys.readouterr().err)
    name = " ".join(flag) if flag[0] == "--grid" else flag[0]
    detail = errors[0].removeprefix(f"error: {block}.{key}: ")
    assert detail != errors[0] and "got" in detail
    assert errors[1] == f"error: {name}: {detail}"


def test_partition_document_computes_total_charge_once(tmp_path, monkeypatch):
    path, _ = _analytic_config(tmp_path)
    calls = []
    total_charge = cli.total_charge
    monkeypatch.setattr(cli, "total_charge", lambda dens: calls.append(1) or total_charge(dens))
    doc, result = cli.cmd_partition(cli.parse_input(path))
    assert len(calls) == 1
    assert len(doc["charge_conservation"]) == len(result.charge_history) > 1
