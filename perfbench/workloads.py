"""The benchmark's workloads: their inputs, command sequences and checks.

A workload is a fixed list of operations that every round repeats; an
operation is one ``seiar`` subcommand together with the checks on its
output.  Inputs are written by the benchmark from ``--seed``: configs as
YAML, case windows as CSV generated from the independent reference, so a
change to the program's integrator cannot change them.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref

# The four variant parameter sets of the paper (the values shipped in
# seiar/presets.py), held here so the benchmark's inputs do not move if the
# program's presets do.
_COMMON = dict(mu=2.5753e-5, sigma=0.1975, alpha=0.5, omega=0.6524,
               gamma1=0.0588, phi1=1.7826e-5)
PRESETS = {
    "614G": dict(_COMMON, Lambda=1740.0, beta=5.3720e-9, epsilon=0.3415, rho=0.4689,
                 gamma2=0.0769, gamma3=0.2770, phi2=5.5963e-3),
    "Alpha": dict(_COMMON, Lambda=1740.0, beta=7.2151e-9, epsilon=0.5748, rho=0.1103,
                  gamma2=0.0811, gamma3=0.3746, phi2=4.4054e-3),
    "Delta": dict(_COMMON, Lambda=1740.0, beta=9.0205e-9, epsilon=0.6768, rho=0.2266,
                  gamma2=0.0704, gamma3=0.4810, phi2=5.0410e-3),
    "Omicron": dict(_COMMON, Lambda=216.0, mu=2.4303e-5, beta=3.2493e-8, epsilon=0.5745,
                    rho=0.5266, gamma2=0.0537, gamma3=0.4149, phi2=5.0179e-3),
}

#: fit windows: variant, first date, E1 seeding
FIT_VARIANTS = (("614G", datetime.date(2020, 6, 1), 1000.0),
                ("Omicron", datetime.date(2022, 3, 1), 1000.0))
FIT_DAYS = 60
FORECAST_HORIZON = 120
NOISE_SIGMA = 0.05
# One Nelder-Mead restart whose evaluation budget always binds, so every
# window costs the same work (rhs evaluations within 1 %).  Run to its own
# convergence test the search crawls along the beta-epsilon-rho ridge for a
# number of evaluations that depends on the noise and has a heavy tail (a
# pair of windows that took 30 s where others took 5 s), which no run
# length averages out.
FIT_SETTINGS = {"restarts": 1, "max_evals": 150}
#: boxes and start values of the free parameters, as in acceptance criterion 7
FIT_FREE = {"beta": lambda p: (p["beta"] / 4, p["beta"] * 4, 1.6 * p["beta"]),
            "epsilon": lambda p: (0.05, 1.0, 0.25),
            "rho": lambda p: (0.05, 0.95, 0.30)}

SWEEP_RHOS = (0.2, 0.4, 0.6, 0.8)
SWEEP_HORIZON = 365.0

#: elimination audits: variant, rho, whether the audit seed follows --seed
AUDITS = (("Omicron", 0.8, True), ("614G", 0.95, False))
AUDIT_RTOL = 1e-10  # the rtol seiar.stability.lyapunov_audit integrates at
AUDIT_FAULT = ("stability.lyapunov_audit judges S and R, which relax at rate mu, "
               "against AUDIT_DISTANCE, so a run near R_c = 1 never passes")


@dataclass
class Operation:
    label: str
    command: str
    argv: list[str]
    out: Path
    check: Callable[[], list[str]]
    #: a known fault of the program makes this operation fail every time
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Operation]
    #: the config a fresh interpreter loads when set-up time is measured
    setup_config: Path


def _yaml(value) -> str:
    """Flow-style YAML; floats keep a '.' and a signed exponent so YAML
    reads them as numbers, with 17 significant digits."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_yaml(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_yaml(v) for v in value) + "]"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    return json.dumps(value)


def write_config(path: Path, config: dict) -> Path:
    path.write_text(_yaml(config) + "\n", encoding="utf-8")
    return path


def seeded_state(p: dict, e1: float) -> np.ndarray:
    y0 = np.zeros(7)
    y0[0] = p["Lambda"] / p["mu"] - e1
    y0[1] = e1
    return y0


def _cli(command: str, config: Path, out: Path, data: Path | None = None) -> list[str]:
    argv = [command, "--config", str(config)]
    if data is not None:
        argv += ["--data", str(data)]
    return argv + ["--out", str(out)]


def fit_forecast(work: Path, seed: int) -> Workload:
    """``seiar fit`` then ``seiar predict`` on a 60-day window each of 614G
    and Omicron, with log-normal noise drawn from the seed."""
    ops = []
    for k, (variant, start, e1) in enumerate(FIT_VARIANTS):
        p = PRESETS[variant]
        y0 = seeded_state(p, e1)
        free = {name: spec(p) for name, spec in FIT_FREE.items()}
        params = dict(p, **{name: {"free": {"lo": lo, "hi": hi, "guess": guess}}
                            for name, (lo, hi, guess) in free.items()})
        config = write_config(work / f"fit-{variant}.yaml", {
            "parameters": params, "initial": {"S": float(y0[0]), "E1": float(y0[1])},
            "integrator": {"sample_per_day": 1},
            "fit": dict(FIT_SETTINGS, seed=seed),
            "forecast": {"horizon": FORECAST_HORIZON}})
        clean = ref.daily_incidence(p, y0, FIT_DAYS)
        rng = np.random.default_rng([seed, k])
        counts = clean * np.exp(NOISE_SIGMA * rng.standard_normal(FIT_DAYS))
        data = work / f"cases-{variant}.csv"
        data.write_text("date,new_confirmed\n" + "".join(
            f"{(start + datetime.timedelta(days=d)).isoformat()},{c:.17g}\n"
            for d, c in enumerate(counts)), encoding="utf-8")
        boxes = {name: (lo, hi) for name, (lo, hi, _) in free.items()}
        guess_sse = ref.sse(dict(p, **{name: g for name, (_, _, g) in free.items()}),
                            y0, counts)
        run = checks.Run(p, y0)
        fit_out, pred_out = work / f"fit-{variant}", work / f"predict-{variant}"
        ops.append(Operation(
            f"fit {variant}", "fit", _cli("fit", config, fit_out, data), fit_out,
            lambda o=fit_out, r=run, b=boxes, c=counts, g=guess_sse:
                checks.check_fit(o, r, b, c, g)))
        ops.append(Operation(
            f"predict {variant}", "predict", _cli("predict", config, pred_out, data), pred_out,
            lambda o=pred_out, f=fit_out, r=run:
                checks.check_predict(o, f, r, FIT_DAYS, FORECAST_HORIZON)))
    return Workload(ops, work / "fit-614G.yaml")


def sweep_dense(work: Path, seed: int) -> Workload:
    """For each preset: ``seiar simulate`` over 365 days at the CLI default
    of 10 samples/day, ``seiar sweep`` over rho in {0.2, 0.4, 0.6, 0.8} and
    ``seiar stability`` (R_c > 1, so no audit).  E1(0) is drawn from
    [50, 150] by the seed."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for variant, p in PRESETS.items():
        e1 = float(rng.uniform(50.0, 150.0))
        config = write_config(work / f"preset-{variant}.yaml", {
            "parameters": p, "initial": {"E1": e1},
            "integrator": {"t0": 0.0, "t_end": SWEEP_HORIZON},
            "scenario": {"rho_values": list(SWEEP_RHOS), "horizon": SWEEP_HORIZON}})
        run = checks.Run(p, seeded_state(p, e1))
        outs = {command: work / f"{command}-{variant}"
                for command in ("simulate", "sweep", "stability")}
        checks_of = {
            "simulate": lambda o=outs["simulate"], r=run:
                checks.check_simulate(o, r, SWEEP_HORIZON, 10),
            "sweep": lambda o=outs["sweep"], r=run:
                checks.check_sweep(o, r, SWEEP_RHOS, SWEEP_HORIZON),
            "stability": lambda o=outs["stability"], q=p: checks.check_stability(o, q),
        }
        for command, out in outs.items():
            ops.append(Operation(f"{command} {variant}", command, _cli(command, config, out),
                                 out, checks_of[command]))
    return Workload(ops, work / "preset-614G.yaml")


def elimination_audit(work: Path, seed: int) -> Workload:
    """``seiar stability`` with the 20-seed V-audit over 2000 days on two
    subcritical configs.  614G at rho = 0.95 fails its check every time
    (``AUDIT_FAULT``); its audit seed is fixed so that it does so on every
    ``--seed``."""
    ops = []
    for variant, rho, follows_seed in AUDITS:
        p = dict(PRESETS[variant], rho=rho)
        config = write_config(work / f"audit-{variant}.yaml", {
            "parameters": p, "initial": {"E1": 100.0},
            "stability": {"seed": seed if follows_seed else 0}})
        out = work / f"stability-{variant}"
        ops.append(Operation(
            f"stability {variant} rho={rho:g}", "stability", _cli("stability", config, out),
            out, lambda o=out, q=p: checks.check_stability(o, q, AUDIT_RTOL),
            known_fault=None if follows_seed else AUDIT_FAULT))
    return Workload(ops, work / "audit-Omicron.yaml")


WORKLOADS = {"fit-forecast": fit_forecast, "sweep-dense": sweep_dense,
             "elimination-audit": elimination_audit}
