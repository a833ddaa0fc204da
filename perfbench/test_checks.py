"""Self-tests of the benchmark: the reference meets the model's identities,
and every output check accepts a real output and rejects a corrupted copy.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from seiar.cli import main as cli_main  # noqa: E402


def _op(ops, label):
    return next(op for op in ops if op.label == label)


def _run(op):
    assert cli_main(op.argv) == 0
    return op


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


@pytest.fixture(scope="module")
def work():
    """A scratch directory inside the checkout, as the benchmark uses."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def dense_ops(work):
    (work / "dense").mkdir()
    return workloads.sweep_dense(work / "dense", seed=0).ops


@pytest.fixture(scope="module")
def fit_ops(work):
    (work / "fit").mkdir()
    return workloads.fit_forecast(work / "fit", seed=0).ops


def test_reference_meets_population_balance_and_exposed_chain():
    for name, p in workloads.PRESETS.items():
        y0 = workloads.seeded_state(p, 100.0)
        rows = ref.solve(p, y0, np.arange(366, dtype=float))
        N = rows[:, :7].sum(axis=1)
        balance = N - N[0] - rows[:, 10]
        assert np.max(np.abs(balance)) <= 1e-9 * N[0], name
        residual, size = ref.exposed_chain_residual(p, rows)
        assert np.all(np.abs(residual) <= 1e-9 * size), name


def test_reference_reproduction_number_matches_closed_form():
    for name, p in workloads.PRESETS.items():
        bracket = (p["sigma"] / (p["alpha"] + p["mu"])
                   + p["sigma"] * (1 - p["rho"]) * p["alpha"]
                   / ((p["alpha"] + p["mu"]) * (p["gamma2"] + p["phi2"] + p["mu"]))
                   + p["epsilon"] * p["omega"] / (p["gamma3"] + p["mu"]))
        closed = (p["beta"] * p["Lambda"] / p["mu"]
                  / (p["sigma"] + p["epsilon"] + p["mu"]) * bracket)
        assert ref.control_reproduction_number(p) == pytest.approx(closed, rel=1e-12), name


def test_simulate_check_rejects_swapped_counters(dense_ops):
    op = _run(_op(dense_ops, "simulate 614G"))
    assert op.check() == []

    def swap(rows):
        for row in rows[1:]:
            row[9], row[10] = row[10], row[9]
        return rows

    _rewrite_csv(op.out / "trajectory.csv", swap)
    problems = op.check()
    assert any("trajectory" in p for p in problems)
    assert any("exposed-chain" in p for p in problems)


def test_simulate_check_rejects_incidence_shifted_by_one_day(dense_ops):
    op = _run(_op(dense_ops, "simulate 614G"))

    def shift(rows):
        values = [row[1] for row in rows[1:]]
        for row, value in zip(rows[2:], values):
            row[1] = value
        return rows

    _rewrite_csv(op.out / "incidence.csv", shift)
    assert any(p.startswith("incidence:") for p in op.check())


def test_sweep_check_rejects_swapped_counters(dense_ops):
    op = _run(_op(dense_ops, "sweep Delta"))
    assert op.check() == []

    def swap(rows):
        for row in rows[1:]:
            row[3], row[4] = row[4], row[3]
        return rows

    _rewrite_csv(op.out / "sweep.csv", swap)
    assert op.check() != []


def test_stability_check_rejects_rc_off_by_1e_6(dense_ops):
    op = _run(_op(dense_ops, "stability Omicron"))
    assert op.check() == []

    def nudge(rows):
        for row in rows:
            if row[0] == "R_c":
                row[1] = repr(float(row[1]) * (1 + 1e-6))
        return rows

    _rewrite_csv(op.out / "stability.csv", nudge)
    assert any(p.startswith("R_c") for p in op.check())


def test_fit_check_rejects_objective_off_by_1e_4(fit_ops):
    op = _run(_op(fit_ops, "fit Omicron"))
    assert op.check() == []
    path = op.out / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["objective"] *= 1 + 1e-4
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert any(p.startswith("objective") for p in op.check())


def test_predict_check_rejects_a_shifted_peak(fit_ops):
    _run(_op(fit_ops, "fit 614G"))
    op = _run(_op(fit_ops, "predict 614G"))
    assert op.check() == []
    path = op.out / "forecast_summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["peak_day"] -= 7
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert any(p.startswith("peak day") for p in op.check())
