"""Stability certificates for the two equilibria.

Three kinds of evidence are produced, none of them symbolic proofs:

* eigenvalue classification of the 7x7 Jacobian at an equilibrium,
* the quartic factor of the characteristic polynomial at the disease-free
  point, whose constant term changes sign exactly at R_c = 1 and certifies a
  positive real root (hence instability) whenever it is negative; the
  coefficients and the root come from one eigen-decomposition, and the
  certificate is that root, a float, or None,
* a numeric audit of the energy function V that decreases along trajectories
  when R_c < 1, run as simulations from seeded initial conditions.

Each reads what it certifies off the model rather than writing it out a
second time: the quartic off the field's own Jacobian at the disease-free
point, V's infected weights off the F - V split of
:func:`next_generation_matrices`, and the verdict margin off the Jacobian
being classified.  States, the equilibria among them, are (7,) float arrays.
The audit's settings, and their defaults, are one :class:`StabilityConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import require_integers
from .model import (
    COMPARTMENTS,
    ModelParameters,
    control_reproduction_number,
    disease_free_equilibrium,
    equilibrium_tolerance,
    jacobian,
    next_generation_matrices,
    rhs,
    state_array,
)
from .simulate import IntegratorConfig, _initial_states, _output_grid, integrate


@dataclass(frozen=True)
class StabilityConfig:
    """Settings of :func:`global_stability_certificate`: the number of
    seeded runs, the horizon each is audited to, the random seed of their
    draws and the largest seed as a fraction of N(0)."""

    audit_seeds: int = 20
    audit_horizon: float = 2000.0
    seed: int = 0
    seed_scale: float = 2e-6

    def __post_init__(self):
        require_integers(self, "audit_seeds", "seed")
        if self.audit_seeds < 1:
            raise ValueError(f"audit_seeds must be positive, got {self.audit_seeds!r}")
        # each check of a float is written so that NaN fails it
        for name in ("audit_horizon", "seed_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


@dataclass(frozen=True)
class LyapunovAudit:
    """Outcome of the decrease-and-converge checks along m simulated runs:
    (m,) arrays, run i at index i, and an m-tuple of reasons, None for a pass.

    ``final_distance`` is the whole state's ||y(T) - P0||_inf / N(0) at the
    horizon.  It is reported, not judged: S and R relax at rate mu.
    """

    passed: np.ndarray
    max_violation: np.ndarray
    final_distance: np.ndarray
    reason: tuple[Optional[str], ...]


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray
    max_real_part: float
    verdict: str


#: rows and columns of the quartic's block of the disease-free Jacobian: I1
#: feeds no infected compartment, so its eigenvalue -k_I1 splits off, as -mu
#: does for S and for R
_QUARTIC_BLOCK = [COMPARTMENTS.index(name) for name in ("E1", "E2", "I2", "A")]


def disease_free_quartic(params: ModelParameters) -> tuple[np.ndarray, Optional[float]]:
    """(a, root) of the quartic det(lambda*I - J) = lambda^4 + a1 l^3 + a2 l^2
    + a3 l + a4 of the (E1, E2, I2, A) block J of the field's own Jacobian at
    the disease-free point, from one eigen-decomposition of J.

    ``a`` is the (4,) array (a1, a2, a3, a4), ``np.poly`` of J's eigenvalues;
    a4 = k_E2*k_I2*k_A*k_E1*(1 - R_c) with the outflow rates of
    :attr:`ModelParameters.rates`.  ``root`` is the largest real eigenvalue
    when a4 < 0, which their product being negative makes positive and so
    certifies the point unstable, and None when a4 >= 0.  ArithmeticError
    when a coefficient is not finite or no real eigenvalue is positive.
    """
    J = jacobian(disease_free_equilibrium(params), params)
    eigenvalues = np.linalg.eigvals(J[np.ix_(_QUARTIC_BLOCK, _QUARTIC_BLOCK)])
    a = np.poly(eigenvalues)[1:]
    if not np.all(np.isfinite(a)):
        raise ArithmeticError("quartic coefficients are not finite; "
                              "parameters are numerically degenerate")
    if not a[3] < 0.0:
        return a, None
    root = float(eigenvalues.real[eigenvalues.imag == 0.0].max(initial=-np.inf))
    if not root > 0.0:
        raise ArithmeticError("no positive real root although a4 < 0")
    return a, root


def entropy_h(x):
    """h(x) = x - 1 - ln x for x > 0, elementwise; nonnegative, zero only at x = 1."""
    if not np.all(x > 0):
        raise ValueError(f"entropy_h requires x > 0, got {float(np.min(x))!r}")
    return x - 1.0 - np.log(x)


def lyapunov_values(states, params: ModelParameters):
    """Energy function V of the global-stability argument at one state, a
    float, or at every state of an array whose last axis holds the seven
    compartments (S, E1, E2, I1, I2, A, R), an array of the leading shape.

    V = S0*h(S/S0) + R_c*E1 + beta*S0/(alpha+mu)*E2
        + omega*beta*S0/(gamma3+mu)*A
        + beta*S0/(gamma2+phi2+mu)*((1-rho)*E2 + I2)
        - beta*S0*(1-rho)*mu/((alpha+mu)*(gamma2+phi2+mu))*E2

    The three E2 terms combine to a strictly positive net coefficient, so V
    vanishes only at the disease-free point.  I1 is isolated and transmits
    nothing, so it has no term.  The infected weights are read off the
    F - V split of :func:`next_generation_matrices`: w^T = f^T T^-1, F's
    new-infection row f through the transition matrix T (Shuai & van den
    Driessche 2013), solved once per call, so pass every state in one array.
    Raises ValueError unless the last axis has 7 entries, each of them
    finite, and S > 0.
    """
    return _lyapunov_values(states, params, _infected_weights(params))


def _infected_weights(params: ModelParameters) -> np.ndarray:
    """V's weights on (E1, E2, I1, I2, A): w^T = f^T T^-1 (see
    :func:`lyapunov_values`)."""
    F, V = next_generation_matrices(params)
    return np.linalg.solve(V.T, F[0])


def _lyapunov_values(states, params: ModelParameters, weights: np.ndarray):
    """:func:`lyapunov_values` with the infected weights given."""
    states = np.asarray(states, dtype=float)
    if states.shape[-1:] != (7,):
        raise ValueError(f"states must have 7 components on the last axis, "
                         f"got shape {states.shape}")
    if not np.all(np.isfinite(states)):
        raise ValueError("state components must be finite")
    S = states[..., 0]
    if not np.all(S > 0):
        raise ValueError(f"V requires S > 0, got {float(np.min(S))!r}")
    S0 = params.S0
    return S0 * entropy_h(S / S0) + states[..., 1:6] @ weights


def lyapunov_derivative(state, params: ModelParameters) -> float:
    """Closed-form dV/dt along the flow:

    -(mu/S)*(S - S0)^2 + (R_c - 1)*beta*S*(E2 + I2 + omega*A)

    Nonpositive everywhere when R_c < 1.
    """
    S, _, E2, _, I2, A, _ = state_array(state)
    if not S > 0:
        raise ValueError(f"lyapunov_derivative requires S > 0, got {S!r}")
    p = params
    return float(-(p.mu / S) * (S - p.S0) ** 2
                 + (p.rates.r_c - 1.0) * p.beta * S * (E2 + I2 + p.omega * A))


#: V is allowed to increase between samples by this fraction of its scale
AUDIT_WIGGLE = 1e-9

#: convergence threshold on the infected block ||(E1..A)||_inf / N(0) at the horizon
AUDIT_DISTANCE = 1e-4

#: days integrated between two checks of the audit's stop rule
_AUDIT_CHUNK = 50.0

#: the infection counts as died out once ||(E1, E2, I1, I2, A)||_inf / N(0)
#: is below this in every run
_AUDIT_EXTINCT = 1e-12


def lyapunov_audit(params: ModelParameters, initials, horizon: float) -> LyapunovAudit:
    """Simulate from ``initials``, one (7,) state (one run) or (m, 7) rows of
    states, and check that V decreases and each run reaches the disease-free point P0.

    Refuses (raises ValueError) when R_c >= 1, where no decrease is claimed,
    before any integration.  The runs are integrated together, as one
    ensemble from t = 0 at rtol 1e-10 and 1 sample/day, in chunks of 50
    days; V must not increase between samples, and each run's infected
    block (E1..A) must end below ``AUDIT_DISTANCE`` * N(0) at ``horizon``.
    S and R are not judged: they relax to P0 at rate mu alone, which a run
    near R_c = 1 may not finish within any practical horizon even after its
    infection has died out.  V is judged chunk by chunk, so only one chunk's
    states are held at a time.  The whole horizon's samples must fit the
    step budget ``simulate.MAX_STEPS`` (IntegrationError before any
    stepping); the budget then bounds each chunk's shared steps.

    The integration stops at the end of the first chunk at which every
    run's infected block (E1..A) is below 1e-12 * N(0).  From that time t
    each run reaches ``horizon`` on the disease-free linearisation,
    y(T) - P0 = expm(J*(T - t)) (y(t) - P0) with J the Jacobian at P0
    (Al-Mohy & Higham 2009), which leaves S - S0 and R relaxing at rate mu.
    The tail needs no V samples: on it, d(w.I)/dt = (R_c - 1)*f.I <= 0 for
    the infected weights w and the new-infection row f, and S0*h(S/S0)
    falls as S relaxes to S0.  A run that never reaches the threshold
    (R_c near 1, say) is integrated to ``horizon``.
    """
    rc = control_reproduction_number(params)
    if rc >= 1.0:
        raise ValueError(
            f"lyapunov audit requires R_c < 1 (got R_c = {rc:.6g}); "
            "the decrease property does not hold otherwise")
    config = IntegratorConfig(t0=0.0, t_end=horizon, rtol=1e-10, sample_per_day=1)
    _output_grid(config)  # the step-budget check, on the whole horizon's samples
    y = np.atleast_2d(_initial_states(initials))
    n0 = np.maximum(y.sum(axis=1), 1.0)
    weights = _infected_weights(params)
    rise = np.zeros(len(y))
    v_scale = np.ones(len(y))
    t = 0.0
    while t < horizon:
        t_end = min(t + _AUDIT_CHUNK, horizon)
        traj = integrate(params, y, replace(config, t0=t, t_end=t_end))
        # (n, m, 7): a chunk starts on the last state of the one before, so
        # the V steps between chunks are judged too
        states = np.moveaxis(traj.states, 2, 1)
        v = _lyapunov_values(states, params, weights)
        rise = np.maximum(rise, np.diff(v, axis=0).max(axis=0))
        v_scale = np.maximum(v_scale, np.abs(v).max(axis=0))
        y, t = states[-1], t_end
        if np.all(np.abs(y[:, 1:6]).max(axis=1) < _AUDIT_EXTINCT * n0):
            break
    p0 = disease_free_equilibrium(params)
    deviation = y - p0
    if t < horizon:
        # imported here: only the audit's tail uses scipy.linalg
        from scipy.linalg import expm

        deviation = deviation @ expm(jacobian(p0, params) * (horizon - t)).T
    max_violation = rise / v_scale
    infection_left = np.abs(deviation[:, 1:6]).max(axis=1) / n0
    monotone = max_violation <= AUDIT_WIGGLE
    converged = infection_left < AUDIT_DISTANCE
    passed = monotone & converged
    reason = tuple(
        None if ok else
        f"V increased by {violation:.3e} (relative) between samples" if not decreasing else
        f"infected compartments ended {left:.3e} * N(0) away from zero; "
        "horizon may be too short"
        for ok, decreasing, violation, left in zip(
            passed.tolist(), monotone.tolist(), max_violation.tolist(), infection_left.tolist()))
    return LyapunovAudit(passed=passed, max_violation=max_violation,
                         final_distance=np.abs(deviation).max(axis=1) / n0, reason=reason)


def global_stability_certificate(
        params: ModelParameters, settings: StabilityConfig = StabilityConfig()
) -> LyapunovAudit:
    """Run :func:`lyapunov_audit` from ``settings.audit_seeds`` random
    infection seedings to ``settings.audit_horizon``.

    Each seeding starts at the disease-free susceptible level with the five
    infected compartments drawn uniformly from [0, seed_scale * N(0)] with
    ``settings.seed``; seedings are kept small enough that the slow (rate
    mu) relaxation of S and R back to the disease-free point fits the horizon.
    """
    s0, m = params.S0, settings.audit_seeds
    infected = np.random.default_rng(settings.seed).uniform(0.0, settings.seed_scale * s0, (m, 5))
    initials = np.column_stack((np.full(m, s0), infected, np.zeros(m)))
    return lyapunov_audit(params, initials, settings.audit_horizon)


#: verdict margin as a fraction of the largest |entry| of the Jacobian classified
VERDICT_MARGIN = 1e-8


def classify_equilibrium(params: ModelParameters, state) -> StabilityReport:
    """Eigenvalue verdict at an equilibrium ``state`` (ValueError if it is not one).

    ``stable`` / ``unstable`` when the largest real part clears the margin
    band on either side, ``marginal`` inside it (eigenvalue noise near
    R_c = 1 should not force a verdict).  The band is ``VERDICT_MARGIN``
    times the largest |entry| of the Jacobian, its fastest linearised rate.
    """
    residual = float(np.max(np.abs(rhs(state, params))))
    tol = equilibrium_tolerance(params)
    if residual > tol:
        raise ValueError(
            f"point is not an equilibrium: ||rhs||_inf = {residual:.3e} "
            f"exceeds {tol:.3e}")
    J = jacobian(state, params)
    eigenvalues = np.linalg.eigvals(J)
    max_real = float(np.max(eigenvalues.real))
    margin = VERDICT_MARGIN * float(np.max(np.abs(J)))
    if max_real < -margin:
        verdict = "stable"
    elif max_real > margin:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return StabilityReport(eigenvalues=eigenvalues, max_real_part=max_real,
                           verdict=verdict)
