"""Least-squares calibration against daily new-confirmed-case series.

The observable is the model's daily inflow into the detected compartment I1.
A fit minimises the log1p loss, the sum of squared residuals
log1p(model) - log1p(data), which weighs every day by its relative error, as
multiplicative noise does; zero counts are fine.  The sum of squared
residuals in counts is what a fit reports as its objective.
Search is scipy's bounded trust-region least squares
(``scipy.optimize.least_squares``, method "trf") in box-scaled coordinates
u = (x - lo) / (hi - lo), so it is independent of the parameters' scales and
returned points satisfy their bounds.  Each trial point is integrated once,
as one ensemble ``integrate`` call over the point and one copy per free
coordinate, moved by a forward step (:func:`_ensemble_run`): member 0 gives
the point's residuals, the copies its Jacobian, and the winning point's run
is the fitted one.  Multi-start restarts jitter the initial guess; the best
replicate wins, ties resolved toward the earlier replicate so results are
reproducible bit for bit under a fixed seed.

The free coordinates are laid out once (``ParameterSpec._layout``), and a
spec loads only if every point of its box assembles.  Every run integrates
days 0 to the series length at one sample a day, with the integrator's method
and tolerances (``_window``): steps land on whole days at any sample density,
so a denser grid would only add samples that nothing reads.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import FitError, IntegrationError, require_integers, whole_days
from .model import (
    COMPARTMENTS,
    PARAMETER_NAMES,
    ModelParameters,
    control_reproduction_number,
)
from .simulate import IntegratorConfig, daily_incidence, integrate

#: step of the Jacobian's forward differences, as a fraction of each box
JACOBIAN_STEP = 2.0 ** -26

#: how far inside the unit box a start is moved off an edge, in box-scaled
#: coordinates: scipy's trf starts that far inside, so the search's start
#: is the point evaluated first
START_MARGIN = 1e-10


@dataclass(frozen=True)
class FreeValue:
    """A quantity the fit may move, boxed to [lo, hi] with a start value."""

    lo: float
    hi: float
    guess: float

    def __post_init__(self):
        for name in ("lo", "hi", "guess"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if not self.lo <= self.guess <= self.hi:
            raise ValueError(f"guess {self.guess} outside [{self.lo}, {self.hi}]")


SpecEntry = Union[float, FreeValue]


@dataclass(frozen=True)
class ParameterSpec:
    """Fixed/free split for the 13 model parameters and the initial state.

    ``params`` must cover every parameter name. ``initial`` may omit
    compartments, which default to zero; an omitted S starts at S0 minus the
    total seeded mass of the other compartments, keeping N(0) = S0.
    """

    params: Mapping[str, SpecEntry]
    initial: Mapping[str, SpecEntry] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.params) - set(PARAMETER_NAMES)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        missing = set(PARAMETER_NAMES) - set(self.params)
        if missing:
            raise ValueError(f"missing parameter entries: {sorted(missing)}")
        unknown = set(self.initial) - set(COMPARTMENTS)
        if unknown:
            raise ValueError(f"unknown compartment names: {sorted(unknown)}")
        for name, entry in self.initial.items():
            lo = entry.lo if isinstance(entry, FreeValue) else entry
            if lo < 0:
                raise ValueError(f"initial {name} must be nonnegative")
        # the search may visit any point of the boxes.  Every check of
        # ModelParameters and of assemble is on one coordinate, so the guesses
        # and both ends test it, except two that are monotone in every
        # coordinate: S0 = Lambda/mu is largest at (Lambda hi, mu lo), and the
        # derived S(0) = S0 - seeds smallest at (Lambda lo, mu hi, seeds hi)
        lo, hi = self.bounds()
        names = np.array(self.free_names, dtype=str)
        for free_values in (self.guesses(), lo, hi,
                            np.where(names == "mu", lo, hi),
                            np.where(names == "Lambda", lo, hi)):
            self.assemble(free_values)

    def _layout(self) -> list[tuple[str, FreeValue]]:
        """The free coordinates as (name, box): parameters, then "<comp>(0)"."""
        entries = [(name, self.params[name]) for name in PARAMETER_NAMES]
        entries += [(f"{c}(0)", self.initial.get(c)) for c in COMPARTMENTS]
        return [(name, e) for name, e in entries if isinstance(e, FreeValue)]

    @property
    def free_names(self) -> tuple[str, ...]:
        """Free coordinates in canonical order (parameters, then initials)."""
        return tuple(name for name, _ in self._layout())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        boxes = [box for _, box in self._layout()]
        return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])

    def guesses(self) -> np.ndarray:
        return np.array([box.guess for _, box in self._layout()])

    def assemble(self, free_values: Sequence[float]) -> tuple[ModelParameters, np.ndarray]:
        """Merge fixed entries with ``free_values`` into (parameters, y0)."""
        names = self.free_names
        free_values = np.asarray(free_values, dtype=float)
        if free_values.shape != (len(names),):
            raise ValueError(f"expected {len(names)} free values, got {free_values.shape}")
        free = dict(zip(names, free_values.tolist()))
        params = ModelParameters(**{n: float(free.get(n, e)) for n, e in self.params.items()})
        y0 = np.array([free.get(f"{c}(0)", self.initial.get(c, 0.0)) for c in COMPARTMENTS],
                      dtype=float)
        if "S" not in self.initial:
            seeded = 0.0
            for seed in y0[1:]:  # in order: sum() compensates on Python >= 3.12
                seeded += seed
            y0[0] = params.S0 - seeded
            if y0[0] < 0:
                raise ValueError("seeded compartments exceed the susceptible pool S0")
        return params, y0


@dataclass(frozen=True)
class ObservedSeries:
    """Daily new confirmed cases, one value per day with no gaps.

    Holds a read-only copy of ``counts``; the caller's array is left as it is.
    """

    counts: np.ndarray
    start_date: Optional[datetime.date] = None

    def __post_init__(self):
        counts = np.array(self.counts, dtype=float)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValueError("counts must be a nonempty 1-D series")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise ValueError("counts must be finite and nonnegative")
        object.__setattr__(self, "counts", counts)
        counts.flags.writeable = False

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class FitConfig:
    """Search settings for each restart.

    ``max_evals`` caps residual evaluations per restart (scipy's
    ``max_nfev``); each is one ensemble run of the trial point and its
    copies, which also yields the point's Jacobian.  ``diameter_tol`` is
    scipy's ``xtol``, at least machine epsilon: a restart converges once a
    step moves the box-scaled point u by less than
    ``diameter_tol * (diameter_tol + |u|)``, or by scipy's default ``ftol``
    and ``gtol`` tests.  ``jitter`` is nonnegative.  Every setting is
    finite, and ``restarts``, ``max_evals`` and ``seed`` are integers.  The
    integrator settings are :func:`fit`'s own argument.
    """

    restarts: int = 5
    max_evals: int = 2000
    diameter_tol: float = 1e-8
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "restarts", "max_evals", "seed")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts!r}")
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be positive, got {self.max_evals!r}")
        # each check of a float is written so that NaN fails it; below
        # epsilon scipy silently drops the xtol test
        if not np.finfo(float).eps <= self.diameter_tol < math.inf:
            raise ValueError(f"diameter_tol must be at least machine epsilon and finite, "
                             f"got {self.diameter_tol!r}")
        if not 0.0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be nonnegative and finite, got {self.jitter!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


@dataclass(frozen=True)
class FitResult:
    """Calibrated parameters with diagnostics of the search.

    ``objective`` is the sum of squared residuals in counts, which
    ``residuals`` sums to; ``loss`` is the log1p loss the search minimised,
    and ``history`` that loss at the start and after each accepted step of
    the winning restart.  ``iterations`` counts accepted steps and
    ``n_evals`` residual evaluations, both of the winning restart; each
    evaluation is one ensemble run, its point and one copy per free
    coordinate.  ``modeled`` is member 0 of the returned point's run, and
    ``initial`` its (7,) initial state, read-only.
    """

    params: ModelParameters
    initial: np.ndarray
    objective: float
    loss: float
    residuals: np.ndarray
    modeled: np.ndarray
    r_c: float
    iterations: int
    n_evals: int
    converged: bool
    history: np.ndarray
    free_names: tuple[str, ...]
    free_values: np.ndarray
    n_days: int
    integrator: IntegratorConfig


def _window(integrator: IntegratorConfig | None, n_days: int) -> IntegratorConfig:
    """``integrator``'s method and tolerances over days 0 to ``n_days``, at
    1 sample/day."""
    return replace(integrator or IntegratorConfig(), t0=0.0, t_end=float(n_days),
                   sample_per_day=1)


class EnsembleRun(NamedTuple):
    """A point's run: its parameters and initial state, its daily incidence
    and the (days, n) Jacobian of log1p of that incidence."""

    params: ModelParameters
    initial: np.ndarray
    model: np.ndarray
    jacobian: np.ndarray


def _ensemble_run(free_values: np.ndarray, spec: ParameterSpec, window: IntegratorConfig,
                  lo: np.ndarray, hi: np.ndarray) -> EnsembleRun:
    """Integrate the point and its n copies as one ensemble, copy j moved by
    ``JACOBIAN_STEP * (hi - lo)`` along coordinate j; the Jacobian is their
    forward differences.

    Every member takes the same steps, so the differences carry no
    step-size noise.  A step that would leave the box points inward.  A copy
    that fails to integrate has its step reversed once, where that stays in
    the box; otherwise :class:`FitError` names the coordinate, or the point
    itself when it is the point that fails.
    """
    steps = JACOBIAN_STEP * (hi - lo)
    steps = np.where(free_values + steps <= hi, steps, -steps)
    turned = np.zeros(len(steps), dtype=bool)
    while True:
        points = np.vstack([free_values, free_values + np.diag(steps)])
        params, initial = zip(*(spec.assemble(point) for point in points))
        try:
            traj = integrate(list(params), list(initial), window)
            break
        except IntegrationError as exc:
            if not exc.member:  # the point itself, or every member
                raise FitError(f"the point does not integrate: {exc}") from exc
            j = exc.member - 1
            if turned[j] or not lo[j] <= free_values[j] - steps[j] <= hi[j]:
                raise FitError(f"the run perturbing {spec.free_names[j]} "
                               f"does not integrate: {exc}") from exc
            steps[j], turned[j] = -steps[j], True
    incidence = daily_incidence(traj)
    columns = np.log1p(incidence)
    taken = points[1:].diagonal() - free_values
    return EnsembleRun(params[0], initial[0], np.ascontiguousarray(incidence[:, 0]),
                       (columns[:, 1:] - columns[:, :1]) / taken)


def fit(spec: ParameterSpec, data: ObservedSeries,
        fit_config: FitConfig | None = None,
        integrator: IntegratorConfig | None = None) -> FitResult:
    """Minimize the log1p loss over the spec's free coordinates.

    Every run integrates over the data window, days 0 to ``len(data)``, at
    1 sample/day with ``integrator``'s method and tolerances.  Each trial
    point is one :func:`_ensemble_run`; the Jacobian is read off the run of
    the point just accepted, and the result off the winning point's run, so
    nothing is integrated twice.  A trial point whose run fails, the point
    or a copy stepped both ways, does not integrate: it shrinks the trust
    region, and a restart whose start does not integrate is skipped.
    :class:`FitError` is raised when every restart is, naming the last
    failure's coordinate.
    With no free coordinates this degenerates to a single evaluation of the
    fixed configuration.
    """
    cfg = fit_config or FitConfig()
    integrator = _window(integrator, len(data))
    names = spec.free_names
    observed = np.log1p(data.counts)

    def package(run, n_evals, converged, history, free_values):
        params, model = run.params, run.model
        log_residuals = np.log1p(model) - observed
        loss = float(log_residuals @ log_residuals)
        history = history or [loss]
        run.initial.flags.writeable = False
        return FitResult(
            params=params,
            initial=run.initial,
            objective=float(np.sum((model - data.counts) ** 2)),
            loss=loss,
            residuals=model - data.counts,
            modeled=model,
            r_c=control_reproduction_number(params),
            iterations=len(history) - 1,
            n_evals=n_evals,
            converged=converged,
            history=np.asarray(history, dtype=float),
            free_names=names,
            free_values=np.asarray(free_values, dtype=float),
            n_days=len(data),
            integrator=integrator,
        )

    lo, hi = spec.bounds()
    if not names:
        # a one-member ensemble, the fixed point alone (lo is empty)
        run = _ensemble_run(lo, spec, integrator, lo, hi)
        return package(run, 1, True, None, lo)

    from scipy.optimize import least_squares

    width = hi - lo
    guess = spec.guesses()
    rng = np.random.default_rng(cfg.seed)

    # the search runs in box-scaled coordinates u = (x - lo) / (hi - lo)
    def to_box(u):
        return np.clip(lo + width * u, lo, hi)

    # the point last evaluated and its run, None where it does not
    # integrate; trf asks for the Jacobian only at the point it has just
    # evaluated and accepted, so the run is read, not repeated, and the last
    # point accepted is the one a restart returns
    last_u = last_run = accepted = failure = None

    def run_at(u):
        nonlocal last_u, last_run, failure
        if not np.array_equal(u, last_u):
            try:
                last_run = _ensemble_run(to_box(u), spec, integrator, lo, hi)
            except FitError as exc:
                last_run, failure = None, exc
            last_u = np.array(u, dtype=float)
        return last_run

    def residuals(u):
        run = run_at(u)
        if run is None:
            return np.full(len(data), np.inf)  # the trust region shrinks
        return np.log1p(run.model) - observed

    def jacobian(u):
        nonlocal accepted
        accepted = run_at(u)
        return accepted.jacobian * width

    best = None
    for replicate in range(cfg.restarts):
        if replicate == 0:
            x_start = guess
        else:
            offset = cfg.jitter * width * rng.uniform(-1.0, 1.0, size=len(names))
            x_start = np.clip(guess + offset, lo, hi)
        u0 = np.clip((x_start - lo) / width, START_MARGIN, 1.0 - START_MARGIN)
        r0 = residuals(u0)
        if not np.isfinite(r0).all():
            continue  # a start that does not integrate
        history = [float(r0 @ r0)]

        def record(intermediate_result):
            # called once per iteration; the loss falls only when a step is
            # accepted
            loss = 2.0 * intermediate_result.cost
            if loss < history[-1]:
                history.append(loss)

        result = least_squares(residuals, u0, jac=jacobian, bounds=(0.0, 1.0), method="trf",
                               xtol=cfg.diameter_tol, max_nfev=cfg.max_evals,
                               callback=record)
        if best is None or result.cost < best[0].cost:
            best = result, history, accepted
    if best is None:
        raise FitError(f"no restart's start point integrates; check bounds and data "
                       f"({failure})")
    result, history, run = best
    return package(run, result.nfev, result.status > 0, history, to_box(result.x))


def synthesize_data(params: ModelParameters, initial, days: int,
                    noise: str = "none", sigma: float = 0.05, seed: int = 0,
                    integrator: IntegratorConfig | None = None) -> ObservedSeries:
    """Simulate days 0 to ``days`` of daily incidence and apply a noise model.

    ``days`` must be a whole number, at least 1, and not a bool.  ``noise`` is "none",
    "lognormal" (multiplicative exp(sigma*Z)) or "round" (nearest integer).
    Deterministic for a fixed seed.
    """
    traj = integrate(params, initial, _window(integrator, whole_days(days, "days")))
    values = daily_incidence(traj)
    if noise == "lognormal":
        rng = np.random.default_rng(seed)
        values = values * np.exp(sigma * rng.standard_normal(len(values)))
    elif noise == "round":
        values = np.rint(values)
    elif noise != "none":
        raise ValueError(f"unknown noise model {noise!r}")
    return ObservedSeries(counts=values)
