"""The CSV report of ``tools/output_identity.py``: rows of a key-value file
are paired by key, so a dropped row is named and shifts no other row."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_identity.py"


@pytest.fixture
def tool(monkeypatch):
    # the tool puts perfbench on sys.path and turns bytecode off as it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("output_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_rows(path, rows):
    path.write_text("".join(f"{a},{b}\n" for a, b in rows), encoding="utf-8")
    return path


ROWS = [("name", "value")] + [(f"key{i}", repr(1.5 * i + 1.0)) for i in range(50)]


def test_a_dropped_row_is_named_and_the_rest_pair_up(tool, tmp_path):
    old = write_rows(tmp_path / "old.csv", ROWS)
    new = write_rows(tmp_path / "new.csv", [row for row in ROWS if row[0] != "key20"])
    report = tool.csv_difference(old, new)
    assert "  keys only under REV: key20" in report
    assert "  0 of 50 rows paired by first cell differ" in report
    assert "  largest relative numeric difference: 0.000e+00" in report


def test_a_changed_value_is_found_under_its_key(tool, tmp_path):
    old = write_rows(tmp_path / "old.csv", ROWS)
    changed = [(k, "2.0") if k == "key3" else (k, v) for k, v in ROWS]
    report = tool.csv_difference(old, write_rows(tmp_path / "new.csv", changed))
    assert report[0] == "  first differing row: ['key3', '5.5'] -> ['key3', '2.0']"
    assert "  1 of 51 rows paired by first cell differ" in report


def test_rows_with_repeated_first_cells_pair_by_position(tool, tmp_path):
    rows = [("t", "x"), ("0", "1.0"), ("0", "2.0")]
    old = write_rows(tmp_path / "old.csv", rows)
    new = write_rows(tmp_path / "new.csv", rows[:2] + [("0", "4.0")])
    report = tool.csv_difference(old, new)
    assert "  1 of 3 rows paired by position differ" in report
    assert "  largest relative numeric difference: 5.000e-01" in report
