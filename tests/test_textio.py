import pytest

from aimpart.errors import ValidationError
from aimpart.textio import read_rows


def test_read_rows_keeps_labels_and_skips_comments(tmp_path):
    path = tmp_path / "table.dat"
    path.write_text("# header line\n\nA 0 0.5 1e-3\n  # indented comment\nB -1 2 3\n",
                    encoding="utf-8")
    first, rows, problems = read_rows(path, ("label", "x", "y", "z"), "coordinate")
    assert first == "# header line"
    assert rows == [["A", 0.0, 0.5, 1e-3], ["B", -1.0, 2.0, 3.0]]
    assert problems == []


def test_read_rows_names_each_refused_line(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("1 2\n1 2 3\nx 2\n1 nan\n-inf 1\n4 5\n", encoding="utf-8")
    first, rows, problems = read_rows(path, ("r", "value"), "entry")
    assert first == "1 2"
    assert rows == [[1.0, 2.0], [4.0, 5.0]]
    assert problems == [f"{path}:2: expected '<r> <value>'", f"{path}:3: non-numeric entry",
                        f"{path}:4: non-finite entry", f"{path}:5: non-finite entry"]


def test_read_rows_refuses_negative_named_fields(tmp_path):
    path = tmp_path / "table.dat"
    path.write_text("-1 2\n1 -2\n1 -0.0\n-inf -1\n", encoding="utf-8")
    _, rows, problems = read_rows(path, ("r", "value"), "entry", nonnegative=("value",))
    assert rows == [[-1.0, 2.0], [1.0, -0.0]]
    assert problems == [f"{path}:2: negative entry", f"{path}:4: non-finite entry"]


@pytest.mark.parametrize("content", [None, b"\xff\xfe 1 2\n"], ids=["missing", "not-utf8"])
def test_read_rows_refuses_unreadable_file(tmp_path, content):
    path = tmp_path / "table.dat"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValidationError) as err:
        read_rows(path, ("r", "value"), "entry")
    assert err.value.problems[0].startswith(f"cannot read {path}: ")
