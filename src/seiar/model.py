"""Core seven-compartment transmission model.

Compartments (all in persons):

    S   susceptible
    E1  early-stage exposed, not yet infectious
    E2  late-stage exposed, infectious
    I1  detected symptomatic, isolated and no longer transmitting
    I2  undetected symptomatic, transmitting
    A   asymptomatic, transmitting with weight omega
    R   recovered

Dynamics (persons/day):

    dS  = Lambda - beta*S*(E2 + I2 + omega*A) - mu*S
    dE1 = beta*S*(E2 + I2 + omega*A) - (sigma + epsilon + mu)*E1
    dE2 = sigma*E1 - (alpha + mu)*E2
    dI1 = rho*alpha*E2 - (gamma1 + phi1 + mu)*I1
    dI2 = (1 - rho)*alpha*E2 - (gamma2 + phi2 + mu)*I2
    dA  = epsilon*E1 - (gamma3 + mu)*A
    dR  = gamma1*I1 + gamma2*I2 + gamma3*A - mu*R

A state is a (7,) float array in :data:`COMPARTMENTS` order.  This module
holds the parameter container, the table of grouped rates every closed form
is built from (``ModelParameters.rates``), the vector field
(``extended_field``: one product of a constant coefficient matrix, which
holds the births, the flows and the incidence term, with the features
(y, S*E2, S*I1, S*I2, S*A, 1), into which an integrator writes its states,
for one parameter set or one per ensemble member), the Jacobian and the
next-generation matrices read off that field rather than written out a
second time, the control reproduction number R_c, and both equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

COMPARTMENTS = ("S", "E1", "E2", "I1", "I2", "A", "R")

#: infected compartments entering the next-generation matrices, in order
INFECTED_COMPARTMENTS = ("E1", "E2", "I1", "I2", "A")

PARAMETER_NAMES = (
    "Lambda", "mu", "beta", "sigma", "epsilon", "alpha", "omega",
    "rho", "gamma1", "gamma2", "gamma3", "phi1", "phi2",
)


class RateTable(NamedTuple):
    """Grouped rates of one parameter set, built only by ModelParameters.rates.

    k_E1 = sigma+epsilon+mu, k_E2 = alpha+mu, k_I1 = gamma1+phi1+mu,
    k_I2 = gamma2+phi2+mu and k_A = gamma3+mu are the outflow rates of the
    infected compartments; in_I1 = rho*alpha and in_I2 = (1-rho)*alpha split
    the E2 outflow between I1 and I2.  The bracket of R_c,

        sigma/k_E2 + sigma*(1-rho)*alpha/(k_E2*k_I2) + epsilon*omega/k_A,

    divided by k_E1 is the transmission-weighted time one E1 entrant spends
    infectious, and r_c = beta*S0/k_E1 * bracket.
    """

    k_E1: float
    k_E2: float
    k_I1: float
    k_I2: float
    k_A: float
    in_I1: float
    in_I2: float
    bracket: float
    r_c: float


@dataclass(frozen=True)
class ModelParameters:
    """Rates and weights of the transmission model.

    Lambda : daily births (persons/day)
    mu     : natural mortality rate (1/day), must be positive
    beta   : basal transmission rate (1/(person*day))
    sigma  : early-exposed -> late-exposed conversion rate (1/day)
    epsilon: early-exposed -> asymptomatic conversion rate (1/day)
    alpha  : late-exposed -> symptomatic conversion rate (1/day)
    omega  : asymptomatic transmission weight, in [0, 1]
    rho    : detection ratio among symptomatic, in [0, 1]
    gamma1, gamma2, gamma3 : recovery rates of I1, I2, A (1/day)
    phi1, phi2             : disease mortality rates of I1, I2 (1/day)
    """

    Lambda: float
    mu: float
    beta: float
    sigma: float
    epsilon: float
    alpha: float
    omega: float
    rho: float
    gamma1: float
    gamma2: float
    gamma3: float
    phi1: float
    phi2: float

    def __post_init__(self):
        for name in PARAMETER_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"parameter {name} must be nonnegative, got {value!r}")
        if self.mu <= 0:
            raise ValueError("mu must be positive (S0 = Lambda/mu is undefined otherwise)")
        if not math.isfinite(self.S0):
            raise ValueError(f"S0 = Lambda/mu must be finite, got {self.S0!r}")
        for name in ("rho", "omega"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @property
    def S0(self) -> float:
        """Disease-free susceptible population Lambda/mu."""
        return self.Lambda / self.mu

    @cached_property
    def rates(self) -> RateTable:
        """The grouped rates, computed once per instance.

        Instances are frozen and :meth:`with_updates` builds a new one, so
        the table never outlives the fields it was computed from.
        """
        p = self
        k_E1 = p.sigma + p.epsilon + p.mu
        k_E2 = p.alpha + p.mu
        k_I2 = p.gamma2 + p.phi2 + p.mu
        k_A = p.gamma3 + p.mu
        # sigma*(1-rho)*alpha in the formula's own order, not sigma*in_I2:
        # the two round differently, and R_c is reported to 17 digits
        bracket = (p.sigma / k_E2
                   + p.sigma * (1.0 - p.rho) * p.alpha / (k_E2 * k_I2)
                   + p.epsilon * p.omega / k_A)
        return RateTable(
            k_E1=k_E1, k_E2=k_E2, k_I1=p.gamma1 + p.phi1 + p.mu, k_I2=k_I2,
            k_A=k_A, in_I1=p.rho * p.alpha, in_I2=(1.0 - p.rho) * p.alpha,
            bracket=bracket, r_c=p.beta * p.S0 / k_E1 * bracket)

    def with_updates(self, **changes) -> "ModelParameters":
        """Copy with the named fields replaced (re-validates)."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAMETER_NAMES}


def state_array(state) -> np.ndarray:
    """A length-7 array-like as a float array; ValueError unless finite."""
    y = np.asarray(state, dtype=float)
    if y.shape != (7,):
        raise ValueError(f"state must have 7 components, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("state components must be finite")
    return y


def equilibrium_tolerance(params: ModelParameters) -> float:
    """Residual tolerance ||rhs||_inf for accepting a point as an equilibrium.

    Lambda sets the natural flow scale of the system.
    """
    return 1e-8 * max(params.Lambda, 1.0)


def _coefficient_matrix(p: ModelParameters) -> np.ndarray:
    """The coefficients C of :func:`extended_field`, 10x12, entry (i, j) the
    weight of feature j in component i of the field: first the linear part
    M, the rate at which each compartment feeds each component, then the
    columns of S*E2, S*I1, S*I2 and S*A, which carry the incidence out of S
    and into E1 (S*I1 with weight 0: I1 is isolated), and that of the
    constant 1, which carries the births into S."""
    r = p.rates
    linear = np.array([
        # S     E1         E2        I1         I2         A          R
        [-p.mu, 0.0,       0.0,      0.0,       0.0,       0.0,       0.0],    # S
        [0.0,   -r.k_E1,   0.0,      0.0,       0.0,       0.0,       0.0],    # E1
        [0.0,   p.sigma,   -r.k_E2,  0.0,       0.0,       0.0,       0.0],    # E2
        [0.0,   0.0,       r.in_I1,  -r.k_I1,   0.0,       0.0,       0.0],    # I1
        [0.0,   0.0,       r.in_I2,  0.0,       -r.k_I2,   0.0,       0.0],    # I2
        [0.0,   p.epsilon, 0.0,      0.0,       0.0,       -r.k_A,    0.0],    # A
        [0.0,   0.0,       0.0,      p.gamma1,  p.gamma2,  p.gamma3,  -p.mu],  # R
        [0.0,   0.0,       r.in_I1,  0.0,       0.0,       0.0,       0.0],    # into I1
        [0.0,   0.0,       r.in_I2,  0.0,       0.0,       0.0,       0.0],    # into I2
        [0.0,   p.epsilon, 0.0,      0.0,       0.0,       0.0,       0.0],    # into A
    ])
    bw = p.beta * p.omega
    incidence = np.zeros((10, 5))
    incidence[0] = -p.beta, 0.0, -p.beta, -bw, p.Lambda
    incidence[1, :4] = p.beta, 0.0, p.beta, bw
    return np.hstack([linear, incidence])


def extended_field(params: ModelParameters | Sequence[ModelParameters]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The model's vector field, as a function f(y) of a state array.

    f returns 10 components: the derivatives of the seven compartments, then
    the inflows rho*alpha*E2 into I1, (1-rho)*alpha*E2 into I2 and
    epsilon*E1 into A, whose integrals are a simulation's cumulative
    counters.  It is the transition/transmission split next-generation
    matrices are built from (Diekmann, Heesterbeek & Roberts 2010),

        f(y) = Lambda*e_S + M*y[:7] + beta*S*(E2 + I2 + omega*A)*(e_E1 - e_S),

    with M the constant rate matrix.  f evaluates it as one product
    f(y) = C*phi of the 10x12 coefficient matrix C of
    :func:`_coefficient_matrix`, which holds M, filled once, here, because f
    runs in the integrators' inner loop, and the features

        phi = (S, E1, E2, I1, I2, A, R, S*E2, S*I1, S*I2, S*A, 1),

    so each component is one sum of products taken in phi's order.  Only
    y[0:7] is read, from a (7,) or (10,) state or one with a trailing axis
    of m columns, float or complex.  ``params`` is one set shared by every
    column, whose C multiplies all columns at once, or a sequence of m sets,
    one per column, whose matrices are stacked as (m, 10, 12), each
    multiplying its own column: that column's field is then the bytes of
    its member's one-set field.

    ``f.stage(out)``, for a C-contiguous (10,) or (10, m) float or complex
    buffer ``out``, is the integrators' way in.  It returns ``(state,
    evaluate)``: ``state`` is rows 0-9 of the field's own phi for out's
    shape and dtype, which every such stage shares, and ``evaluate()``
    computes the products from the state written there, whose counters in
    rows 7-9 it overwrites unread, and writes the field into ``out``.  f(y)
    writes y[:7] into a stage of its own and returns a copy of its field.
    """
    shared = isinstance(params, ModelParameters)
    if shared:
        coefficients = _coefficient_matrix(params)
    else:
        coefficients = np.stack([_coefficient_matrix(p) for p in params])

    # for each output shape and dtype, phi and the views the products use,
    # and C in phi's dtype, so that a complex probe casts nothing: phi's
    # constant row is set once, and S is read through a stride-0 view that
    # repeats row 0 in the products' own shape, since a multiply of equal
    # shapes costs less than one that broadcasts
    features = {}
    dot, matmul, multiply = np.dot, np.matmul, np.multiply

    def stage(out: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        key = out.shape, out.dtype
        views = features.get(key)
        if views is None:
            phi = np.empty((12,) + out.shape[1:], out.dtype)
            phi[11] = 1.0
            views = features[key] = (
                phi, np.broadcast_to(phi[:1], (4,) + out.shape[1:]), phi[2:6],
                phi[7:11], coefficients.astype(out.dtype, copy=False))
        phi, susceptible, infected, products, c = views
        if shared:
            def evaluate() -> np.ndarray:
                multiply(susceptible, infected, products)
                return dot(c, phi, out)
        else:
            # member j's column is c[j] @ phi[:, j], through phi's and out's
            # (m, 12, 1) and (m, 10, 1) transposed views
            operand, target = phi.T[:, :, None], out.T[:, :, None]

            def evaluate() -> np.ndarray:
                multiply(susceptible, infected, products)
                matmul(c, operand, target)
                return out
        return phi[:10], evaluate

    # f(y)'s own stage for each shape and dtype of y, and so its one path
    calls = {}

    def f(y: np.ndarray) -> np.ndarray:
        key = y.shape, y.dtype
        if key not in calls:
            calls[key] = stage(np.empty((10,) + y.shape[1:], np.promote_types(y.dtype, float)))
        state, evaluate = calls[key]
        state[:7] = y[:7]
        return evaluate().copy()

    f.stage = stage
    return f


def rhs(state, params: ModelParameters) -> np.ndarray:
    """Time derivative of the seven compartments at ``state``.

    The first seven components of :func:`extended_field`.  The
    componentwise sum telescopes to the population balance
    Lambda - mu*N - phi1*I1 - phi2*I2.
    """
    return extended_field(params)(state_array(state))[:7]


def population_balance(state, params: ModelParameters) -> float:
    """Net population flow Lambda - mu*N - phi1*I1 - phi2*I2.

    Equals the componentwise sum of :func:`rhs`.
    """
    y = state_array(state)
    N = float(y.sum())
    return params.Lambda - params.mu * N - params.phi1 * y[3] - params.phi2 * y[4]


def jacobian(state, params: ModelParameters) -> np.ndarray:
    """7x7 Jacobian of :func:`rhs` at ``state``, read off :func:`extended_field`.

    Rows and columns follow :data:`COMPARTMENTS` order.  Column j is the
    imaginary part of the field at the complex probe y + i*e_j, all seven
    probes in one call as the columns of one (7, 7) state (the complex step
    of Squire & Trapp 1998).  The result is exact, not an approximation:
    the imaginary part of the features phi at the probe is their partial
    derivative along e_j, e_j itself in the seven linear rows and one
    product, S*e_j[k] + y[k]*e_j[0], in each of the four quadratic ones,
    with no truncation term whatever the step.  Column j is then C times
    that derivative, summed over phi's twelve rows in the product's own
    order, the order the field's values are summed in.  A unit step needs
    no rescaling, and no product of small rates underflows.
    """
    y = state_array(state)
    return extended_field(params)(y[:, None] + 1j * np.eye(7)).imag[:7]


def control_reproduction_number(params: ModelParameters) -> float:
    """Closed-form control reproduction number R_c.

    R_c = beta*S0/(sigma+epsilon+mu) * [ sigma/(alpha+mu)
          + sigma*(1-rho)*alpha/((alpha+mu)*(gamma2+phi2+mu))
          + epsilon*omega/(gamma3+mu) ]

    Linear in beta and strictly decreasing in rho (rho enters only through
    the undetected-symptomatic term).  Read from :attr:`ModelParameters.rates`.
    """
    return params.rates.r_c


def next_generation_matrices(params: ModelParameters) -> tuple[np.ndarray, np.ndarray]:
    """New-infection matrix F and transition matrix V at the disease-free point.

    Both 5x5 over :data:`INFECTED_COMPARTMENTS`, split from the infected
    block J of the disease-free :func:`jacobian` as J = F - V (van den
    Driessche & Watmough 2002).  Every new infection enters E1 and nothing
    else flows into E1, so F is J's E1 row without its diagonal entry (the
    E1 outflow) and zero elsewhere; V = F - J is lower triangular with the
    outflow rates on the diagonal.
    """
    J = jacobian(disease_free_equilibrium(params), params)[1:6, 1:6]
    F = np.zeros((5, 5))
    F[0, 1:] = J[0, 1:]
    return F, F - J


def ngm_spectral_radius(F: np.ndarray, V: np.ndarray) -> float:
    """Spectral radius of the next-generation matrix F V^-1.

    A general dense eigenvalue computation, max |eig(F V^-1)|.  It assumes
    nothing about the structure of F (for this model F has rank one), so it
    is an independent check of the closed-form R_c.  A singular V raises
    ``numpy.linalg.LinAlgError``.
    """
    M = np.asarray(F, dtype=float) @ np.linalg.inv(np.asarray(V, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def disease_free_equilibrium(params: ModelParameters) -> np.ndarray:
    """The always-present infection-free steady state (Lambda/mu, 0, ..., 0)."""
    return np.array([params.S0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def endemic_equilibrium(params: ModelParameters) -> Optional[np.ndarray]:
    """The unique positive steady state, or None when R_c <= 1.

    E1* = Lambda*(R_c - 1)/((sigma+epsilon+mu)*R_c) -- the simplified form of
    the positive root of the equilibrium equation, which avoids the
    cancellation in the raw -(mu*beta*S0 - Lambda*beta*R_c) numerator.  E2,
    I1, I2 and A follow by the fixed outflow ratios, R* balances the
    recoveries against mu*R, and S* = Lambda/(beta*E1*bracket + mu) with the
    bracket of R_c, so the result satisfies R_c = S0/S*.
    """
    p = params
    r = p.rates
    if r.r_c <= 1.0:
        return None
    e1 = p.Lambda * (r.r_c - 1.0) / (r.k_E1 * r.r_c)
    e2 = p.sigma / r.k_E2 * e1
    i1 = p.sigma * r.in_I1 / (r.k_E2 * r.k_I1) * e1
    i2 = p.sigma * r.in_I2 / (r.k_E2 * r.k_I2) * e1
    a = p.epsilon / r.k_A * e1
    recovered = (p.gamma1 * i1 + p.gamma2 * i2 + p.gamma3 * a) / p.mu
    s = p.Lambda / (p.beta * e1 * r.bracket + p.mu)
    point = np.array([s, e1, e2, i1, i2, a, recovered])
    residual = float(np.max(np.abs(rhs(point, p))))
    if residual > equilibrium_tolerance(p):
        raise ArithmeticError(
            f"endemic equilibrium residual {residual:.3e} exceeds tolerance; "
            "parameters are numerically degenerate")
    return point
