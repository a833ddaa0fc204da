"""Detection-ratio sweeps and forward prediction from a calibrated baseline.

A sweep re-runs the model over a fixed horizon for several values of the
detection ratio rho, everything else held at the baseline. "Total
infections" is the cumulative inflow into I1+I2+A over the horizon and
"asymptomatic infections" the cumulative inflow into A; both are horizon
stable, unlike point prevalences.  A sweep integrates all its rho values as
one ensemble with one parameter set per member, so the members share every
step.  It reads only each run's endpoint and stores 1 sample/day, the
least the integrator stores; the steps land on whole days at any density.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .calibrate import FitResult
from .errors import IntegrationError
from .model import ModelParameters, control_reproduction_number
from .simulate import (
    ClassBreakdown,
    IntegratorConfig,
    cumulative_by_class,
    daily_incidence,
    integrate,
    peak,
)


@dataclass(frozen=True)
class RhoScenario(ClassBreakdown):
    """Outcome of one sweep member: its endpoint breakdown, rho and R_c."""

    rho: float
    r_c: float


@dataclass(frozen=True)
class DeclinePercentages:
    """Relative drops from the lowest to the highest swept rho, in percent.

    NaN marks an undefined ratio (zero metric at the lowest rho).
    """

    total_pct: float
    asymptomatic_pct: float


@dataclass(frozen=True)
class Forecast:
    """Point prediction past a fitted window: ``incidence[d]`` is the
    predicted new detected cases on day ``first_day + d`` of the window's
    numbering, and so is ``peak_day``."""

    first_day: int
    incidence: np.ndarray
    peak_day: int
    peak_value: float


def rho_sweep(base: tuple[ModelParameters, object],
              rho_values: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
              horizon: float = 365.0,
              integrator: IntegratorConfig | None = None
              ) -> tuple[RhoScenario, ...]:
    """One ensemble member per rho over ``horizon`` days, one scenario each.

    ``base`` is the baseline (parameters, initial state).  All rho values
    are integrated as one ensemble, one parameter set per member, with
    ``integrator``'s method and tolerances from its ``t0`` to
    ``t0 + horizon``.  The members share every step, and the worst member's
    error sets it.  So permuting ``rho_values`` permutes the results bit
    for bit, while adding or removing a value moves the others within the
    tolerance.  The metrics read only the endpoint, and the runs are stored
    at 1 sample/day.  A horizon under one day is integrated like any other.
    The scenarios follow the input order of ``rho_values``.  A failure names
    the rho of the member that failed, or the first rho when the failure is
    shared (step budget, step underflow).
    """
    params, initial = base
    # every rho is validated by ModelParameters before the run
    members = [params.with_updates(rho=float(rho)) for rho in rho_values]
    if not members:
        raise ValueError("rho_values must be nonempty")
    window = integrator or IntegratorConfig()
    config = replace(window, t_end=window.t0 + float(horizon), sample_per_day=1)
    try:
        runs = integrate(members, [initial] * len(members), config)
    except IntegrationError as exc:
        rho = members[exc.member or 0].rho
        raise IntegrationError(f"scenario rho={rho:g} failed: {exc.args[0]}",
                               exc.t, exc.member) from exc
    breakdown = vars(cumulative_by_class(runs))
    return tuple(RhoScenario(rho=p.rho, r_c=control_reproduction_number(p),
                             **{name: value[..., i] for name, value in breakdown.items()})
                 for i, p in enumerate(members))


def decline_percentages(scenarios: Sequence[RhoScenario]) -> DeclinePercentages:
    """100 * (metric(rho_min) - metric(rho_max)) / metric(rho_min).

    Computed over a sweep's scenarios for the total and asymptomatic counts.
    Since cum_I1 + cum_I2 + alpha/(alpha+mu)*E2(T) =
    alpha*sigma/((alpha+mu)*epsilon)*cum_A along every run started with
    E2 = 0, the two declines differ only by the E2 still in flight at the
    horizon.
    """
    if len(scenarios) < 2:
        raise ValueError("decline percentages need at least two rho values")
    low = min(scenarios, key=lambda s: s.rho)
    high = max(scenarios, key=lambda s: s.rho)

    def pct(a: float, b: float) -> float:
        if a == 0.0:
            return float("nan")
        return 100.0 * (a - b) / a

    return DeclinePercentages(total_pct=pct(low.cum_total, high.cum_total),
                              asymptomatic_pct=pct(low.cum_A, high.cum_A))


def forecast(fit: FitResult, horizon: int) -> Forecast:
    """Extend the fitted run ``horizon`` whole days past its data window.

    The returned incidence covers only the extension, which starts on day
    ``fit.n_days`` of the fitted window's numbering, so the reported peak
    is directly comparable with the observed series.
    """
    if not (horizon >= 1 and float(horizon).is_integer()):
        raise ValueError(f"horizon must be a whole number of days, at least 1; got {horizon!r}")
    horizon = int(horizon)
    window = fit.integrator
    config = replace(window, t_end=window.t0 + fit.n_days + horizon)
    traj = integrate(fit.params, fit.initial, config)
    extension = daily_incidence(traj)[fit.n_days:fit.n_days + horizon]
    day, value = peak(extension)
    return Forecast(first_day=fit.n_days, incidence=extension,
                    peak_day=fit.n_days + day, peak_value=value)
