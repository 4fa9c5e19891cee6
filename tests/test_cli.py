import json
import math
import pathlib

import numpy as np
import pytest

from aimpart import cli, proatoms
from aimpart.errors import ValidationError
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
    bad["method"] = {"name": "gisa", "shells": [6, 6],
                     "exponents": [[0.01, 0.1, 1, 2, 5, 10], [0.05, 0.5, 2, 4, 10]]}
    bad["units"] = "parsec"
    bad["grid"] = {"angular": "cube"}
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        cli.parse_input(path)
    text = "\n".join(err.value.problems)
    assert "units" in text
    assert "X2" in text and "5 exponents" in text  # names the atom
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


@pytest.mark.parametrize("init", ["delta:-1", "delta:9", "delta:x"])
def test_partition_bad_delta_initial_guess_exit_code(tmp_path, capsys, init):
    path, _ = _analytic_config(tmp_path, method={
        "name": "mbisa", "shells": [2, 2], "exponents": [[0.1, 1.0], [0.5, 2.0]],
        "init": init})
    rc = cli.main(["partition", "--input", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == cli.EXIT_VALIDATION
    assert "atom 0" in capsys.readouterr().err


@pytest.mark.parametrize("init, atom", [
    ([[0.5, 0.5]], "atom 1 has none"),
    ([[-0.5, 1.5], [0.5, 0.5]], "atom 0:"),
    ([[0.5, 0.5], [math.nan, 1.0]], "atom 1:"),
], ids=["short", "negative", "nan"])
def test_partition_bad_explicit_initial_guess_exit_code(tmp_path, capsys, init, atom):
    path, _ = _analytic_config(tmp_path, method={
        "name": "mbisa", "shells": [2, 2], "exponents": [[0.1, 1.0], [0.5, 2.0]],
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
     "method.shells[0]: expected an integer >= 1, got 1.5"),
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
], ids=["points-short-row", "points-non-numeric", "grid-non-numeric",
        "init-non-numeric", "dma-negative-lmax", "tol-non-numeric",
        "max-iter-non-integral", "config-nr-non-numeric", "per-atom-rmax-negative",
        "per-atom-no-atom", "exponents-non-numeric", "shells-non-integral",
        "config-lmax-non-numeric", "grid-nr-too-small", "empty-site-file",
        "grid-unknown-angular", "tol-negative", "tol-zero", "max-iter-zero",
        "per-atom-unknown-atom", "proatom-table-nan"])
def test_cli_bad_input_exit_code(tmp_path, capsys, argv, expected):
    paths = {"gto": _gto_config(tmp_path)[0], "out": tmp_path / "x.json",
             "short": tmp_path / "short.dat", "text": tmp_path / "text.dat",
             "empty": tmp_path / "empty.txt"}
    _, base = _analytic_config(tmp_path)
    table = tmp_path / "nan_table.dat"
    table.write_text("# proatom Z=1 n=1\n0.1 2.0\nnan 1.0\n14.0 0.0\n", encoding="utf-8")
    paths["init"], _ = _analytic_config(tmp_path, method={
        "name": "mbisa", "shells": [2, 2], "exponents": [[0.1, 1.0], [0.5, 2.0]],
        "init": [[1, 1], ["a", "b"]]})
    edits = {
        "tol": {"tolerances": {"tol": "abc", "tol_l2": 1e-6, "max_iter": 60}},
        "max_iter": {"tolerances": {"tol": 1e-6, "tol_l2": 1e-6, "max_iter": 2.5}},
        "nr": {"grid": {**base["grid"], "nr": "abc"}},
        "per_atom": {"grid": {**base["grid"], "per_atom": [{"atom": 1, "rmax": -9.0}]}},
        "per_atom_no_atom": {"grid": {**base["grid"], "per_atom": [{"nr": 100}]}},
        "per_atom_unknown_atom": {"grid": {**base["grid"],
                                           "per_atom": [{"atom": 5, "nr": 2}]}},
        "exponents": {"method": {"name": "gisa", "shells": [2, 2],
                                 "exponents": [[0.1, 1.0], ["x", 2.0]]}},
        "shells": {"method": {"name": "gisa", "shells": [1.5, 2],
                              "exponents": [[0.1, 1.0], [0.5, 2.0]]}},
        "nan_table": {"method": {"name": "hirshfeld", "proatom_tables": [str(table)]}},
    }
    for name, edit in edits.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**base, **edit}), encoding="utf-8")
    _, gto = _gto_config(tmp_path)
    paths["lmax"] = tmp_path / "lmax.json"
    paths["lmax"].write_text(json.dumps({**gto, "dma": {"lmax": "x"}}), encoding="utf-8")
    paths["empty"].write_text("# no sites\n", encoding="utf-8")
    paths["short"].write_text("0 0 30\n0 25\n", encoding="utf-8")
    paths["text"].write_text("# x y z\n0 0 x\n", encoding="utf-8")
    rc = cli.main([arg.format(**paths) for arg in argv])
    assert rc == cli.EXIT_VALIDATION
    assert expected in capsys.readouterr().err


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
