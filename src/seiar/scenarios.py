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
from .errors import IntegrationError, whole_days
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
class RhoSweep(ClassBreakdown):
    """Outcome of a sweep: the ensemble's endpoint breakdown and the (m,) arrays
    ``rho`` and ``r_c``, member i (on the last axis) being the i-th swept rho."""

    rho: np.ndarray
    r_c: np.ndarray


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
              integrator: IntegratorConfig | None = None) -> RhoSweep:
    """One ensemble member per rho over ``horizon`` days, in one record.

    ``base`` is the baseline (parameters, initial state).  All rho values
    are integrated as one ensemble, one parameter set per member, with
    ``integrator``'s method and tolerances from its ``t0`` to
    ``t0 + horizon``.  The members share every step, and the worst member's
    error sets it.  So permuting ``rho_values`` permutes the results bit
    for bit, while adding or removing a value moves the others within the
    tolerance.  The metrics read only the endpoint, and the runs are stored
    at 1 sample/day.  A horizon under one day is integrated like any other.
    The members follow the input order of ``rho_values``.  A failure names
    the rho of the member that failed, or the first rho when the failure is
    shared (step budget, step underflow).
    """
    params, initial = base
    rho = np.array(rho_values, dtype=float)
    # every rho is validated by ModelParameters before the run
    members = [params.with_updates(rho=value) for value in rho.tolist()]
    if not members:
        raise ValueError("rho_values must be nonempty")
    window = integrator or IntegratorConfig()
    config = replace(window, t_end=window.t0 + float(horizon), sample_per_day=1)
    try:
        runs = integrate(members, [initial] * len(members), config)
    except IntegrationError as exc:
        raise IntegrationError(f"scenario rho={rho[exc.member or 0]:g} failed: "
                               f"{exc.args[0]}", exc.t, exc.member) from exc
    return RhoSweep(rho=rho, r_c=np.array([control_reproduction_number(p) for p in members]),
                    **vars(cumulative_by_class(runs)))


def decline_percentages(sweep: RhoSweep) -> DeclinePercentages:
    """100 * (metric(rho_min) - metric(rho_max)) / metric(rho_min).

    Computed over a sweep's members for the total and asymptomatic counts;
    of equal extreme rhos the first is read.
    Since cum_I1 + cum_I2 + alpha/(alpha+mu)*E2(T) =
    alpha*sigma/((alpha+mu)*epsilon)*cum_A along every run started with
    E2 = 0, the two declines differ only by the E2 still in flight at the
    horizon.
    """
    if len(sweep.rho) < 2:
        raise ValueError("decline percentages need at least two rho values")
    low, high = np.argmin(sweep.rho), np.argmax(sweep.rho)

    def pct(a: float, b: float) -> float:
        if a == 0.0:
            return float("nan")
        return 100.0 * (a - b) / a

    return DeclinePercentages(total_pct=pct(sweep.cum_total[low], sweep.cum_total[high]),
                              asymptomatic_pct=pct(sweep.cum_A[low], sweep.cum_A[high]))


def forecast(fit: FitResult, horizon: int) -> Forecast:
    """Extend the fitted run ``horizon`` whole days past its data window: an
    integer or a whole float, at least 1, and not a bool.

    The returned incidence covers only the extension, which starts on day
    ``fit.n_days`` of the fitted window's numbering, so the reported peak
    is directly comparable with the observed series.
    """
    horizon = whole_days(horizon, "horizon")
    window = fit.integrator
    config = replace(window, t_end=window.t0 + fit.n_days + horizon)
    traj = integrate(fit.params, fit.initial, config)
    extension = daily_incidence(traj)[fit.n_days:fit.n_days + horizon]
    day, value = peak(extension)
    return Forecast(first_day=fit.n_days, incidence=extension,
                    peak_day=fit.n_days + day, peak_value=value)
