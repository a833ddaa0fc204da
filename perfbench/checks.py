"""Checks of the CLI's output files against the independent reference.

Each ``check_*`` function reads one subcommand's output directory and
returns a list of problems; an empty list means the output is correct.
Nothing here compares against a stored copy of an earlier output.

Tolerances on integrated quantities follow from the integrator's configured
``rtol`` and ``atol``: a component may differ from the DOP853 reference by
``GLOBAL_ERROR_FACTOR * (rtol * scale + atol)``, where ``scale`` is the
largest magnitude the component reaches on the run.  The factor allows for
the growth of local errors into global error over an epidemic wave; it is
not fitted to today's errors.  Closed-form quantities (R_c, S*, eigenvalues)
are compared at ``ARITHMETIC_RTOL``, a bound on floating-point rounding
through a few dozen operations.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

GLOBAL_ERROR_FACTOR = 1000.0
ARITHMETIC_RTOL = 1e-10

TRAJECTORY_HEADER = ["t", "S", "E1", "E2", "I1", "I2", "A", "R",
                     "cum_I1", "cum_I2", "cum_A"]


class Run:
    """One run of the model as the benchmark configured it.

    ``params`` is a dict of the thirteen rates, ``y0`` the initial state,
    ``rtol``/``atol`` the integrator tolerances the CLI was given
    (``atol=None`` means the CLI default 1e-10 * N(0)).
    """

    def __init__(self, params: dict, y0, rtol: float = 1e-8, atol: float | None = None):
        self.params = dict(params)
        self.y0 = np.asarray(y0, dtype=float)
        self.rtol = rtol
        n0 = max(float(self.y0.sum()), 1.0)
        self.atol = atol if atol is not None else 1e-10 * n0

    def tolerance(self, scale) -> np.ndarray:
        return GLOBAL_ERROR_FACTOR * (self.rtol * np.abs(scale) + self.atol)


def read_table(path: Path, header: list[str]) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[0]} is not {header}")
    return np.array([[float(v) for v in row] for row in rows[1:]])


def read_pairs(path: Path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: value for name, value in rows[1:]}


def _compare(label: str, got, want, tol, problems: list[str]) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape}, expected {want.shape}")
        return
    excess = np.abs(got - want) - tol
    if not np.all(np.isfinite(got)) or np.any(excess > 0):
        i = int(np.nanargmax(np.where(np.isfinite(excess), excess, np.inf)))
        flat_got, flat_want = got.ravel(), want.ravel()
        flat_tol = np.broadcast_to(tol, got.shape).ravel()
        problems.append(f"{label}: element {i} is {flat_got[i]:.17g}, reference "
                        f"{flat_want[i]:.17g}, tolerance {flat_tol[i]:.3g}")


def _close(label: str, got: float, want: float, rtol: float, problems: list[str]) -> None:
    if not abs(got - want) <= rtol * max(abs(want), abs(got)):
        problems.append(f"{label}: {got!r} differs from {want!r} by more than {rtol:g} relative")


# --- simulate ------------------------------------------------------------

def check_simulate(out: Path, run: Run, t_end: float, sample_per_day: int) -> list[str]:
    problems: list[str] = []
    traj = read_table(out / "trajectory.csv", TRAJECTORY_HEADER)
    times = np.arange(int(round(t_end * sample_per_day)) + 1) / sample_per_day
    _compare("trajectory t", traj[:, 0], times, 1e-9, problems)
    if problems:
        return problems
    expected = ref.solve(run.params, run.y0, times)[:, :10]
    rows = traj[:, 1:]
    _compare("trajectory", rows, expected, run.tolerance(np.max(np.abs(expected), axis=0)),
             problems)

    inc = read_table(out / "incidence.csv", ["day", "new_confirmed"])
    cum = expected[::sample_per_day, 7]
    _compare("incidence day", inc[:, 0], np.arange(len(cum) - 1), 0.0, problems)
    _compare("incidence", inc[:, 1], np.diff(cum),
             2.0 * run.tolerance(np.max(np.abs(cum))), problems)

    # population balance: N(T) - N(0) equals the integral of the net flow;
    # the trapezoid-to-Simpson difference bounds the quadrature error
    p = run.params
    N = rows[:, :7].sum(axis=1)
    flow = p["Lambda"] - p["mu"] * N - p["phi1"] * rows[:, 3] - p["phi2"] * rows[:, 4]
    h = times[1] - times[0]
    trap = h * (flow.sum() - 0.5 * (flow[0] + flow[-1]))
    trap2 = 2 * h * (flow[::2].sum() - 0.5 * (flow[0] + flow[::2][-1]))
    if (len(flow) - 1) % 2 == 0:
        integral = (4.0 * trap - trap2) / 3.0
        quad_err = abs(integral - trap)
    else:
        integral, quad_err = trap, abs(trap - trap2)
    balance = N[-1] - N[0] - integral
    bound = quad_err + float(run.tolerance(np.max(N)))
    if not abs(balance) <= bound:
        problems.append(f"population balance residual {balance:.6g} exceeds {bound:.3g}")

    residual, size = ref.exposed_chain_residual(p, rows)
    excess = np.abs(residual) - GLOBAL_ERROR_FACTOR * run.rtol * size
    if np.any(excess > 0):
        i = int(np.argmax(excess))
        problems.append(f"exposed-chain identity broken at t = {times[i]:g}: "
                        f"residual {residual[i]:.6g} against terms of size {size[i]:.6g}")
    return problems


# --- sweep ---------------------------------------------------------------

SWEEP_HEADER = ["rho", "cum_total", "cum_I1", "cum_I2", "cum_A",
                "prop_A_cumulative", "prop_A_prevalence"]


def _ratio_error(a: float, b: float, ea: float, eb: float) -> float:
    return abs(a / b) * (ea / abs(a) + eb / abs(b))


def check_sweep(out: Path, run: Run, rho_values, horizon: float) -> list[str]:
    problems: list[str] = []
    table = read_table(out / "sweep.csv", SWEEP_HEADER)
    _compare("sweep rho", table[:, 0], rho_values, 0.0, problems)
    if problems:
        return problems
    days = np.arange(int(horizon) + 1, dtype=float)
    # per rho: the reference (value, tolerance) of the total and the A count
    declining: dict[str, list[tuple[float, float]]] = {"total": [], "asymptomatic": []}
    for row, rho in zip(table, rho_values):
        p = dict(run.params, rho=rho)
        expected = ref.solve(p, run.y0, days)
        tol = run.tolerance(np.max(np.abs(expected[:, :10]), axis=0))
        end = expected[-1]
        cum, cum_tol = end[7:10], tol[7:10]
        total, total_tol = float(cum.sum()), float(cum_tol.sum())
        label = f"sweep rho={rho:g}"
        _compare(f"{label} cum_total", row[1], total, total_tol, problems)
        _compare(f"{label} cum_I1/I2/A", row[2:5], cum, cum_tol, problems)
        _compare(f"{label} prop_A_cumulative", row[5], cum[2] / total,
                 _ratio_error(cum[2], total, cum_tol[2], total_tol), problems)
        prev, prev_tol = end[3:6], tol[3:6]
        _compare(f"{label} prop_A_prevalence", row[6], prev[2] / prev.sum(),
                 _ratio_error(prev[2], prev.sum(), prev_tol[2], prev_tol.sum()), problems)
        declining["total"].append((total, total_tol))
        declining["asymptomatic"].append((cum[2], cum_tol[2]))
        s0 = ref.asymptomatic_branching_ratio(p)
        if not row[5] >= s0 * (1.0 - GLOBAL_ERROR_FACTOR * run.rtol):
            problems.append(f"{label}: asymptomatic share {row[5]:.17g} below s0 = {s0:.17g}")
    totals = table[np.argsort(table[:, 0]), 1]
    if not np.all(np.diff(totals) < 0):
        problems.append(f"cumulative totals do not strictly decrease in rho: {totals}")

    decline = read_pairs(out / "decline.csv")
    lo, hi = int(np.argmin(rho_values)), int(np.argmax(rho_values))
    for metric, values in declining.items():
        (a, ea), (b, eb) = values[lo], values[hi]
        _compare(f"decline {metric}", float(decline[metric]), 100.0 * (a - b) / a,
                 100.0 * _ratio_error(b, a, eb, ea), problems)
    return problems


# --- stability -----------------------------------------------------------

def _eigenvalues_from(pairs: dict[str, str], prefix: str) -> np.ndarray:
    values = []
    i = 1
    while f"{prefix}_eig{i}_re" in pairs:
        values.append(complex(float(pairs[f"{prefix}_eig{i}_re"]),
                              float(pairs[f"{prefix}_eig{i}_im"])))
        i += 1
    return np.array(values)


def check_stability(out: Path, params: dict, audit_rtol: float = 1e-10) -> list[str]:
    """Checks on ``stability.csv``; ``audit_rtol`` is the V-audit's rtol."""
    problems: list[str] = []
    pairs = read_pairs(out / "stability.csv")
    s0 = params["Lambda"] / params["mu"]
    r_c = float(pairs["R_c"])
    _close("R_c against the next-generation matrix", r_c,
           ref.control_reproduction_number(params), ARITHMETIC_RTOL, problems)
    _close("S0", float(pairs["S0"]), s0, ARITHMETIC_RTOL, problems)

    a4 = float(pairs["a4"])
    if np.sign(a4) != np.sign(1.0 - r_c):
        problems.append(f"sign(a4) = {np.sign(a4):g} but 1 - R_c = {1.0 - r_c:.3g}")

    eig_tol = ARITHMETIC_RTOL * ref.rate_scale(params)
    own = np.linalg.eigvals(ref.dfe_jacobian(params))
    got = _eigenvalues_from(pairs, "dfe")
    if len(got) != len(own):
        problems.append(f"{len(got)} DFE eigenvalues reported, expected {len(own)}")
    else:
        unmatched = [z for z in got if np.min(np.abs(own - z)) > eig_tol]
        if unmatched:
            problems.append(f"DFE eigenvalues not of the DFE Jacobian: {unmatched}")

    if pairs["positive_root_exists"] == "1":
        root = float(pairs["positive_root"])
        real = own[np.abs(own.imag) <= eig_tol].real
        if not root > 0 or np.min(np.abs(real - root)) > eig_tol:
            problems.append(f"certified root {root!r} is not a positive eigenvalue of the "
                            f"DFE Jacobian {sorted(real)}")
    elif r_c > 1.0:
        problems.append("R_c > 1 but no positive root is certified")

    endemic = pairs["endemic_present"] == "1"
    if endemic != (r_c > 1.0):
        problems.append(f"endemic_present = {int(endemic)} at R_c = {r_c!r}")
    if endemic:
        _close("endemic S* against S0/R_c", float(pairs["endemic_S"]), s0 / r_c,
               ARITHMETIC_RTOL, problems)

    verdict = pairs["lyapunov_audit"]
    if r_c < 1.0:
        violation = float(pairs["lyapunov_max_violation"])
        if not violation <= audit_rtol:
            problems.append(f"V rose by {violation:.3g} (relative) along an audit run")
        if verdict != "pass":
            problems.append(
                f"Lyapunov audit reads {verdict!r} at R_c = {r_c:.6g} < 1; worst final "
                f"distance {float(pairs['lyapunov_worst_final_distance']):.4g} * N(0)")
    elif not verdict.startswith("skipped"):
        problems.append(f"Lyapunov audit reads {verdict!r} at R_c = {r_c:.6g} >= 1")
    return problems


# --- fit and predict -----------------------------------------------------

INITIAL_ROWS = tuple(f"{c}(0)" for c in ref.COMPARTMENTS)


def read_fit(out: Path) -> tuple[dict, np.ndarray, dict[str, str]]:
    """Fitted parameters, initial state and statuses from ``fit.csv``."""
    with open(out / "fit.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    values = {name: float(value) for name, _, value in rows}
    status = {name: s for name, s, _ in rows}
    params = {name: values[name] for name in ref.PARAMETER_NAMES}
    y0 = np.array([values[name] for name in INITIAL_ROWS])
    return params, y0, status


def _sse_tolerance(residuals: np.ndarray, per_day_tol: float) -> float:
    """Bound on |SSE(m + d) - SSE(m)| for |d_i| <= per_day_tol."""
    delta = per_day_tol * math.sqrt(len(residuals))
    return 2.0 * float(np.linalg.norm(residuals)) * delta + delta ** 2


def check_fit(out: Path, run: Run, boxes: dict[str, tuple[float, float]],
              observed: np.ndarray, guess_sse: float) -> list[str]:
    """``run`` holds the config's fixed values, ``boxes`` the free ones and
    ``guess_sse`` the reference SSE at the search's start values."""
    problems: list[str] = []
    params, y0, status = read_fit(out)
    for name in ref.PARAMETER_NAMES:
        if name in boxes:
            lo, hi = boxes[name]
            if status[name] != "fitted" or not lo <= params[name] <= hi:
                problems.append(f"{name} = {params[name]!r} ({status[name]}) "
                                f"not fitted within [{lo!r}, {hi!r}]")
        elif status[name] != "fixed" or params[name] != run.params[name]:
            problems.append(f"fixed {name} reads {params[name]!r}, "
                            f"configured {run.params[name]!r}")
    if not np.array_equal(y0, run.y0):
        problems.append(f"initial state {y0} is not the configured {run.y0}")

    table = read_table(out / "residuals.csv", ["day", "observed", "modeled", "residual"])
    n = len(observed)
    _compare("residuals day", table[:, 0], np.arange(n), 0.0, problems)
    _compare("residuals observed", table[:, 1], observed, 0.0, problems)
    _compare("residuals residual", table[:, 3], table[:, 2] - table[:, 1], 0.0, problems)
    if problems:
        return problems
    fitted = Run(params, y0, run.rtol, run.atol)
    cum = ref.solve(params, y0, np.arange(n + 1, dtype=float))[:, 7]
    day_tol = 2.0 * float(fitted.tolerance(np.max(np.abs(cum))))
    _compare("modeled incidence", table[:, 2], np.diff(cum), day_tol, problems)

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    objective = float(summary["objective"])
    _close("objective against the residuals", objective,
           math.fsum(r * r for r in table[:, 3]), ARITHMETIC_RTOL, problems)
    sse_tol = _sse_tolerance(table[:, 3], day_tol)
    reference_sse = float(np.sum((np.diff(cum) - observed) ** 2))
    _compare("objective against the reference SSE", objective, reference_sse,
             sse_tol, problems)
    if not objective <= guess_sse + sse_tol:
        problems.append(f"fitted SSE {objective:.10g} exceeds the SSE {guess_sse:.10g} "
                        "at the start values; the search must never move uphill")
    _close("r_c", float(summary["r_c"]), ref.control_reproduction_number(params),
           ARITHMETIC_RTOL, problems)
    if summary["n_days"] != n:
        problems.append(f"n_days = {summary['n_days']}, expected {n}")
    return problems


def check_predict(out: Path, fit_out: Path, run: Run, n_days: int, horizon: int) -> list[str]:
    """``fit_out`` holds the ``seiar fit`` output for the same data and config."""
    problems: list[str] = []
    params, y0, _ = read_fit(fit_out)
    fitted = Run(params, y0, run.rtol, run.atol)
    cum = ref.solve(params, y0, np.arange(n_days + horizon + 1, dtype=float))[:, 7]
    incidence = np.diff(cum)[n_days:]
    day_tol = 2.0 * float(fitted.tolerance(np.max(np.abs(cum))))

    table = read_table(out / "forecast.csv", ["day", "predicted_new_confirmed"])
    _compare("forecast day", table[:, 0], np.arange(n_days, n_days + horizon), 0.0, problems)
    _compare("forecast", table[:, 1], incidence, day_tol, problems)

    summary = json.loads((out / "forecast_summary.json").read_text(encoding="utf-8"))
    fit_summary = json.loads((fit_out / "summary.json").read_text(encoding="utf-8"))
    if summary["objective"] != fit_summary["objective"]:
        problems.append(f"predict refit objective {summary['objective']!r} differs from "
                        f"the fit's {fit_summary['objective']!r}")
    peak_days = n_days + np.nonzero(incidence >= incidence.max() - 2.0 * day_tol)[0]
    if summary["peak_day"] not in peak_days:
        problems.append(f"peak day {summary['peak_day']} is not the reference peak day "
                        f"{n_days + int(np.argmax(incidence))}")
    _compare("peak value", summary["peak_value"], incidence.max(), day_tol, problems)
    if summary["horizon"] != horizon:
        problems.append(f"horizon = {summary['horizon']}, expected {horizon}")
    return problems
