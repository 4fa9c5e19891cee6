import math

import numpy as np
import pytest

from aimpart import proatoms
from aimpart.errors import ValidationError
from aimpart.units import ANGSTROM_PER_BOHR


def _gaussian_shell(a, r):
    return (a / math.pi) ** 1.5 * np.exp(-a * r**2)


def _slater_shell(a, r):
    return a**3 / (8 * math.pi) * np.exp(-a * r)


SHELL_FAMILIES = pytest.mark.parametrize(
    "cls, shell", [(proatoms.GaussianExpansion, _gaussian_shell),
                   (proatoms.SlaterShells, _slater_shell)], ids=["gaussian", "slater"])


@SHELL_FAMILIES
def test_shell_expansion_profile_and_charge(cls, shell):
    m = cls(exponents=(0.5, 2.0), coefficients=[1.0, 0.5])
    assert isinstance(m, proatoms.ShellExpansion)
    assert m.charge() == pytest.approx(1.5)
    r = np.array([0.0, 1.0])
    assert np.allclose(m.profile(r), shell(0.5, r) + 0.5 * shell(2.0, r))
    one = cls(exponents=(1.5,), coefficients=[2.0])
    assert one.charge() == pytest.approx(2.0)
    assert one.profile(np.zeros(1))[0] == pytest.approx(2.0 * shell(1.5, 0.0))


@SHELL_FAMILIES
@pytest.mark.parametrize("r", [0.7, np.linspace(0.0, 6.0, 7),
                               np.linspace(0.0, 6.0, 12).reshape(3, 4)],
                         ids=["scalar", "1d", "2d"])
def test_shell_basis_profiles_contract(cls, shell, r):
    exps = (0.3, 1.0, 4.0)
    m = cls(exponents=exps, coefficients=[0.2, 1.0, 0.0])
    basis = m.basis_profiles(r)
    assert basis.shape == (len(exps), *np.shape(r))
    for k, a in enumerate(exps):
        assert np.allclose(basis[k], shell(a, np.asarray(r)), rtol=1e-14, atol=0.0)
    expected = sum(c * basis[k] for k, c in enumerate(m.coefficients))
    assert np.shape(m.profile(r)) == np.shape(r)
    assert np.allclose(m.profile(r), expected, rtol=1e-14, atol=0.0)


def test_nonnegative_enforced():
    with pytest.raises(ValueError):
        proatoms.GaussianExpansion(exponents=(1.0,), coefficients=[-0.1])
    with pytest.raises(ValueError):
        proatoms.SlaterShells(exponents=(-1.0,), coefficients=[0.1])
    with pytest.raises(ValueError):
        proatoms.TabulatedProfile(nodes=[1.0, 0.5], values=[1.0, 1.0], rmax=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_proatoms_refused(bad):
    with pytest.raises(ValueError, match="must be finite"):
        proatoms.TabulatedProfile(nodes=[1.0, 2.0], values=[1.0, bad], rmax=2.0)
    with pytest.raises(ValueError, match="must be finite"):
        proatoms.TabulatedProfile(nodes=[1.0, bad], values=[1.0, 1.0], rmax=2.0)
    with pytest.raises(ValueError, match="must be finite"):
        proatoms.TabulatedProfile(nodes=[1.0, 2.0], values=[1.0, 1.0], rmax=bad)
    for cls in (proatoms.GaussianExpansion, proatoms.SlaterShells):
        with pytest.raises(ValueError, match="must be finite"):
            cls(exponents=(1.0, bad), coefficients=[0.5, 0.5])
        with pytest.raises(ValueError, match="must be finite"):
            cls(exponents=(1.0, 2.0), coefficients=[bad, 0.5])


def test_tabulated_rmax_not_below_last_node():
    # the tail rule makes w zero beyond rmax, so rmax inside the table is refused
    with pytest.raises(ValueError, match="below the last node"):
        proatoms.TabulatedProfile(nodes=[1.0, 2.0, 4.0], values=[3.0, 2.0, 1.0], rmax=2.5)
    tab = proatoms.TabulatedProfile(nodes=[1.0, 2.0, 4.0], values=[3.0, 2.0, 1.0], rmax=4.0)
    assert tab.profile(3.0) == 1.5 and tab.profile(4.0) == 1.0 and tab.profile(4.5) == 0.0


def test_hirshfeld_i_table_interpolation():
    nodes = np.linspace(0.01, 10.0, 50)
    tables = {n: proatoms.synthetic_proatom_table(1, n, nodes, 10.0) for n in range(4)}
    hit = proatoms.HirshfeldITable(1, tables)
    # integer count returns the table verbatim
    assert np.array_equal(hit.interpolated(2).values, tables[2].values)
    # n = 1.5 is the nodewise mean of tables 1 and 2
    mid = hit.interpolated(1.5)
    assert np.allclose(mid.values, 0.5 * (tables[1].values + tables[2].values))
    # saturation above n_max
    assert np.array_equal(hit.interpolated(7.2).values, tables[3].values)
    with pytest.raises(ValueError):
        hit.interpolated(-0.5)


def test_default_exponents_formula():
    a0 = ANGSTROM_PER_BOHR
    exps = proatoms.default_exponents(6, 6)
    assert exps[0] == pytest.approx(2 * 6 / a0)           # k = 1
    assert exps[-1] == pytest.approx(2 / a0)              # k = m
    assert exps[2] == pytest.approx(2 * 6**0.6 / a0)      # k = 3, Z = 6
    assert proatoms.default_exponents(4, 1) == [pytest.approx(8 / a0)]
    assert np.all(np.diff(exps) < 0)


def test_default_shell_counts():
    assert proatoms.default_shell_count(1) == 4
    assert proatoms.default_shell_count(2) == 4
    assert proatoms.default_shell_count(8) == 6
    assert proatoms.default_shell_count(18) == 6
    assert proatoms.default_shell_count(26) == 8


def test_proatom_table_roundtrip(tmp_path):
    nodes = np.linspace(0.05, 8.0, 40)
    table = proatoms.synthetic_proatom_table(3, 2, nodes, 8.0)
    path = tmp_path / "proatom_z3_n2.dat"
    proatoms.write_proatom_table(path, 3, 2, table)
    Z, n, back = proatoms.read_proatom_table(path)
    assert (Z, n) == (3, 2)
    assert np.allclose(back.nodes, table.nodes)
    assert np.allclose(back.values, table.values)


def test_proatom_table_reports_all_problems(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("# wrong header\n1.0 0.5\nabc def\n0.5 0.1\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        proatoms.read_proatom_table(path)
    text = "\n".join(err.value.problems)
    assert "bad header" in text
    assert "non-numeric" in text


def test_proatom_table_refuses_nonfinite_rows(tmp_path):
    path = tmp_path / "nonfinite.dat"
    path.write_text("# proatom Z=1 n=1\n0.1 2.0\n0.5 nan\n1.0 inf\n2.0 0.1\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        proatoms.read_proatom_table(path)
    assert err.value.problems == [f"{path}:3: non-finite entry", f"{path}:4: non-finite entry"]


def test_proatom_table_refuses_negative_values_with_other_problems(tmp_path):
    path = tmp_path / "negative.dat"
    path.write_text("# proatom Z=1 n=1\n0.1 2.0\n0.5 -1.0\n1.0 nan\n2.0 -0.0\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        proatoms.read_proatom_table(path)
    assert err.value.problems == [f"{path}:3: negative entry", f"{path}:4: non-finite entry"]


@pytest.mark.parametrize("header", ["# proatom Z=1 n=-1", "# proatom Z=0 n=1"])
def test_proatom_table_refuses_out_of_range_header(tmp_path, header):
    path = tmp_path / "range.dat"
    path.write_text(f"{header}\n0.1 2.0\n1.0 0.5\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        proatoms.read_proatom_table(path)
    assert err.value.problems == [f"{path}: bad header {header!r}, "
                                  "expected '# proatom Z=<int >= 1> n=<int >= 0>'"]
