"""Independent reference for the benchmark's output checks.

Everything here is coded from the model equations stated in the docstring
of ``seiar/model.py`` and imports nothing from the package:

    dS  = Lambda - beta*S*(E2 + I2 + omega*A) - mu*S
    dE1 = beta*S*(E2 + I2 + omega*A) - (sigma + epsilon + mu)*E1
    dE2 = sigma*E1 - (alpha + mu)*E2
    dI1 = rho*alpha*E2 - (gamma1 + phi1 + mu)*I1
    dI2 = (1 - rho)*alpha*E2 - (gamma2 + phi2 + mu)*I2
    dA  = epsilon*E1 - (gamma3 + mu)*A
    dR  = gamma1*I1 + gamma2*I2 + gamma3*A - mu*R

Trajectories come from scipy's DOP853 at rtol 1e-12.  Alongside the seven
compartments the reference integrates the three inflow counters (into I1,
I2 and A) and one more quadrature, the integral of the net population flow
Lambda - mu*N - phi1*I1 - phi2*I2, so that population balance can be
checked on the reference itself.  Parameters are plain ``dict``s keyed by
the thirteen names below.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

PARAMETER_NAMES = ("Lambda", "mu", "beta", "sigma", "epsilon", "alpha", "omega",
                   "rho", "gamma1", "gamma2", "gamma3", "phi1", "phi2")
COMPARTMENTS = ("S", "E1", "E2", "I1", "I2", "A", "R")

#: relative tolerance of the reference integration
RTOL = 1e-12


def vector_field(p: dict):
    """Derivative of (7 compartments, 3 inflow counters, balance integral)."""
    L, mu, beta = p["Lambda"], p["mu"], p["beta"]
    sigma, eps, alpha, omega, rho = (p["sigma"], p["epsilon"], p["alpha"],
                                     p["omega"], p["rho"])
    g1, g2, g3, f1, f2 = p["gamma1"], p["gamma2"], p["gamma3"], p["phi1"], p["phi2"]

    def f(_t, y):
        S, E1, E2, I1, I2, A, R = y[:7]
        infection = beta * S * (E2 + I2 + omega * A)
        to_i1 = rho * alpha * E2
        to_i2 = (1.0 - rho) * alpha * E2
        to_a = eps * E1
        N = S + E1 + E2 + I1 + I2 + A + R
        return [
            L - infection - mu * S,
            infection - (sigma + eps + mu) * E1,
            sigma * E1 - (alpha + mu) * E2,
            to_i1 - (g1 + f1 + mu) * I1,
            to_i2 - (g2 + f2 + mu) * I2,
            to_a - (g3 + mu) * A,
            g1 * I1 + g2 * I2 + g3 * A - mu * R,
            to_i1,
            to_i2,
            to_a,
            L - mu * N - f1 * I1 - f2 * I2,
        ]

    return f


def solve(p: dict, y0, times) -> np.ndarray:
    """States at ``times`` (from times[0]) as an (n, 11) array.

    Columns: the seven compartments, cum_I1, cum_I2, cum_A, and the
    integral of the net population flow.  The counters start at zero.
    """
    times = np.asarray(times, dtype=float)
    y = np.concatenate([np.asarray(y0, dtype=float), np.zeros(4)])
    n0 = max(float(np.sum(y0)), 1.0)
    sol = solve_ivp(vector_field(p), (times[0], times[-1]), y, method="DOP853",
                    rtol=RTOL, atol=RTOL * n0, t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def daily_incidence(p: dict, y0, n_days: int) -> np.ndarray:
    """New detected cases on days 0..n_days-1 (differences of cum_I1)."""
    ref = solve(p, y0, np.arange(n_days + 1, dtype=float))
    return np.diff(ref[:, 7])


def sse(p: dict, y0, observed) -> float:
    observed = np.asarray(observed, dtype=float)
    return float(np.sum((daily_incidence(p, y0, len(observed)) - observed) ** 2))


def next_generation_matrices(p: dict) -> tuple[np.ndarray, np.ndarray]:
    """F and V over the infected compartments (E1, E2, I1, I2, A) at the DFE."""
    s0 = p["Lambda"] / p["mu"]
    mu = p["mu"]
    F = np.zeros((5, 5))
    F[0, 1] = F[0, 3] = p["beta"] * s0
    F[0, 4] = p["omega"] * p["beta"] * s0
    V = np.diag([p["sigma"] + p["epsilon"] + mu, p["alpha"] + mu,
                 p["gamma1"] + p["phi1"] + mu, p["gamma2"] + p["phi2"] + mu,
                 p["gamma3"] + mu])
    V[1, 0] = -p["sigma"]
    V[2, 1] = -p["rho"] * p["alpha"]
    V[3, 1] = -(1.0 - p["rho"]) * p["alpha"]
    V[4, 0] = -p["epsilon"]
    return F, V


def control_reproduction_number(p: dict) -> float:
    """Spectral radius of F V^-1, by a general eigenvalue solver."""
    F, V = next_generation_matrices(p)
    return float(np.max(np.abs(np.linalg.eigvals(F @ np.linalg.inv(V)))))


def dfe_jacobian(p: dict) -> np.ndarray:
    """7x7 Jacobian of the vector field at (Lambda/mu, 0, ..., 0)."""
    s0 = p["Lambda"] / p["mu"]
    mu = p["mu"]
    bs0 = p["beta"] * s0
    J = np.zeros((7, 7))
    J[0, 0] = -mu
    J[0, 2] = J[0, 4] = -bs0
    J[0, 5] = -p["omega"] * bs0
    J[1, 1] = -(p["sigma"] + p["epsilon"] + mu)
    J[1, 2] = J[1, 4] = bs0
    J[1, 5] = p["omega"] * bs0
    J[2, 1] = p["sigma"]
    J[2, 2] = -(p["alpha"] + mu)
    J[3, 2] = p["rho"] * p["alpha"]
    J[3, 3] = -(p["gamma1"] + p["phi1"] + mu)
    J[4, 2] = (1.0 - p["rho"]) * p["alpha"]
    J[4, 4] = -(p["gamma2"] + p["phi2"] + mu)
    J[5, 1] = p["epsilon"]
    J[5, 5] = -(p["gamma3"] + mu)
    J[6, 3] = p["gamma1"]
    J[6, 4] = p["gamma2"]
    J[6, 5] = p["gamma3"]
    J[6, 6] = -mu
    return J


def rate_scale(p: dict) -> float:
    """Largest linear rate of the model; sets the scale of eigenvalue errors."""
    return float(np.max(np.abs(dfe_jacobian(p))))


def exposed_chain_residual(p: dict, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and magnitude of the exposed-chain identity along a run.

    For a run started with E2 = 0,
    cum_I1 + cum_I2 + alpha/(alpha+mu)*E2 = alpha*sigma/((alpha+mu)*epsilon)*cum_A
    holds exactly.  ``rows`` holds the compartments in columns 0..6 and the
    counters in columns 7..9.
    """
    k = p["alpha"] / (p["alpha"] + p["mu"])
    lhs = rows[:, 7] + rows[:, 8] + k * rows[:, 2]
    rhs = k * p["sigma"] / p["epsilon"] * rows[:, 9]
    return lhs - rhs, np.abs(lhs) + np.abs(rhs)


def asymptomatic_branching_ratio(p: dict) -> float:
    """s0 = epsilon/(epsilon + sigma*alpha/(alpha+mu)), the floor of the A share."""
    return p["epsilon"] / (p["epsilon"] + p["sigma"] * p["alpha"] / (p["alpha"] + p["mu"]))
