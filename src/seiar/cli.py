"""Command-line front end.

Subcommands: ``simulate``, ``stability``, ``fit``, ``sweep``, ``predict``.
Each takes ``--config`` plus, where observations are fitted, ``--data``, and
writes CSV/JSON results under ``--out``.  Exit codes: 0 success, 2 config
error, 3 data error, 4 numeric failure.  Any other exception is a program
fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import stability as stability_mod
from .calibrate import fit
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, FitError, IntegrationError
from .io import read_case_series, write_csv, write_json
from .model import (
    COMPARTMENTS,
    PARAMETER_NAMES,
    control_reproduction_number,
    disease_free_equilibrium,
    endemic_equilibrium,
)
from .scenarios import decline_percentages, forecast, rho_sweep
from .simulate import daily_incidence, integrate

TRAJECTORY_HEADER = ("t", *COMPARTMENTS, "cum_I1", "cum_I2", "cum_A")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(config: RunConfig, args) -> None:
    params, initial = config.fixed_parameters()
    traj = integrate(params, initial, config.integrator)
    try:
        incidence = daily_incidence(traj)
    except ValueError as exc:  # a window under one whole day
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args)
    write_csv(out / "trajectory.csv", TRAJECTORY_HEADER,
              np.column_stack((traj.times, traj.states, traj.cumulative_inflows)))
    write_csv(out / "incidence.csv", ("day", "new_confirmed"),
              enumerate(incidence.tolist()))


def _eigen_rows(prefix: str, eigenvalues: np.ndarray):
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    for i, ev in enumerate(eigenvalues[order], start=1):
        yield (f"{prefix}_eig{i}_re", ev.real)
        yield (f"{prefix}_eig{i}_im", ev.imag)


def cmd_stability(config: RunConfig, args) -> None:
    params, _ = config.fixed_parameters()
    r_c = control_reproduction_number(params)
    dfe = disease_free_equilibrium(params)
    dfe_report = stability_mod.classify_equilibrium(params, dfe)
    quartic, root = stability_mod.disease_free_quartic(params)
    endemic = endemic_equilibrium(params)

    rows: list[tuple[str, object]] = [
        ("R_c", r_c), ("S0", params.S0), ("dfe_verdict", dfe_report.verdict),
        ("dfe_max_real_part", dfe_report.max_real_part),
        *_eigen_rows("dfe", dfe_report.eigenvalues),
        *zip(("a1", "a2", "a3", "a4"), quartic.tolist()),
        ("positive_root_exists", int(root is not None))]
    if root is not None:
        rows.append(("positive_root", root))
    rows.append(("endemic_present", int(endemic is not None)))
    if endemic is not None:
        endemic_report = stability_mod.classify_equilibrium(params, endemic)
        rows += [*zip([f"endemic_{comp}" for comp in COMPARTMENTS], endemic.tolist()),
                 ("endemic_verdict", endemic_report.verdict),
                 ("endemic_max_real_part", endemic_report.max_real_part),
                 *_eigen_rows("endemic", endemic_report.eigenvalues)]
    if r_c < 1.0:
        audit = stability_mod.global_stability_certificate(params, config.stability)
        rows += [("lyapunov_audit", "pass" if audit.passed.all() else "fail"),
                 ("lyapunov_max_violation", audit.max_violation.max()),
                 ("lyapunov_worst_final_distance", audit.final_distance.max())]
    else:
        rows.append(("lyapunov_audit", "skipped (R_c >= 1)"))
    write_csv(_out_dir(args) / "stability.csv", ("name", "value"), rows)


def _fit_from_args(config: RunConfig, args):
    data = read_case_series(args.data)
    return data, fit(config.spec, data, config.fit, config.integrator)


def cmd_fit(config: RunConfig, args) -> None:
    data, result = _fit_from_args(config, args)
    out = _out_dir(args)

    def status(name: str) -> str:
        if name in result.free_names:
            return "fitted"
        return "derived" if name == "S(0)" and "S" not in config.spec.initial else "fixed"

    rows = [(name, status(name), getattr(result.params, name)) for name in PARAMETER_NAMES]
    rows += [(f"{comp}(0)", status(f"{comp}(0)"), value)
             for comp, value in zip(COMPARTMENTS, result.initial.tolist())]
    write_csv(out / "fit.csv", ("parameter", "status", "value"), rows)
    write_csv(out / "residuals.csv", ("day", "observed", "modeled", "residual"),
              ((d, data.counts[d], result.modeled[d], result.residuals[d])
               for d in range(len(data))))
    write_json(out / "summary.json", {
        "objective": result.objective,
        "log1p_loss": result.loss,
        "r_c": result.r_c,
        "converged": result.converged,
        "iterations": result.iterations,
        "n_evals": result.n_evals,
        "n_days": result.n_days,
    })


def cmd_sweep(config: RunConfig, args) -> None:
    params, initial = config.fixed_parameters()
    scenario = config.scenario
    if len(scenario.rho_values) < 2:
        raise ConfigError("sweep needs at least two rho values")
    sweep = rho_sweep((params, initial), scenario.rho_values, scenario.horizon,
                      config.integrator)
    decline = decline_percentages(sweep)
    out = _out_dir(args)
    write_csv(out / "sweep.csv",
              ("rho", "cum_total", "cum_I1", "cum_I2", "cum_A",
               "prop_A_cumulative", "prop_A_prevalence"),
              np.column_stack((sweep.rho, sweep.cum_total, sweep.cum_I1, sweep.cum_I2,
                               sweep.cum_A, sweep.cum_proportions[2],
                               sweep.prevalence_proportions[2])))
    write_csv(out / "decline.csv", ("metric", "percent"),
              [("total", decline.total_pct),
               ("asymptomatic", decline.asymptomatic_pct)])


def cmd_predict(config: RunConfig, args) -> None:
    _, result = _fit_from_args(config, args)
    prediction = forecast(result, config.forecast.horizon)
    out = _out_dir(args)
    write_csv(out / "forecast.csv", ("day", "predicted_new_confirmed"),
              enumerate(prediction.incidence.tolist(), start=prediction.first_day))
    write_json(out / "forecast_summary.json", {
        "peak_day": prediction.peak_day,
        "peak_value": prediction.peak_value,
        "horizon": config.forecast.horizon,
        "objective": result.objective,
        "r_c": result.r_c,
    })


#: each subcommand's handler and help line
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate a fixed configuration and write the trajectory"),
    "stability": (cmd_stability, "reproduction number, equilibria and stability certificates"),
    "fit": (cmd_fit, "calibrate free parameters against observed daily cases"),
    "sweep": (cmd_sweep, "re-run the model across a grid of detection ratios"),
    "predict": (cmd_predict, "fit, then extend the run past the data window"),
}


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seiar",
        description="Seven-compartment epidemic model: simulation, stability "
                    "analysis, calibration and detection-ratio scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        if name in ("fit", "predict"):
            p.add_argument("--data", required=True,
                           help="CSV of observed daily new confirmed cases")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _COMMANDS[args.command][0](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (IntegrationError, FitError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
