"""Shared fixtures, random parameter draws and frozen oracle values.

The ORACLE_* constants were computed before the build by a standalone
50-digit mpmath script evaluating the closed forms directly; they are the
reference the implementation is checked against, not derived from it.
"""

import numpy as np
import pytest

from seiar import ModelParameters, control_reproduction_number
from seiar.presets import VARIANTS

ORACLE_R_C = {
    "614G": 1.6633587071090749,
    "Alpha": 2.1777967468554424,
    "Delta": 2.3260108965810046,
    "Omicron": 1.0810060919697604,
}

ORACLE_S0 = {
    "614G": 67564943.890032229,
    "Omicron": 8887791.6306628811,
}

ORACLE_E1_STAR = {
    "614G": 1287.3666414389825,
    "Alpha": 1218.4332372601948,
    "Delta": 1134.5178302187899,
    "Omicron": 20.965842478132763,
}

ORACLE_S_STAR_614G = 40619587.104852696

#: The positive root of the disease-free quartic, from the unexpanded
#: product form
#:     (l + B1)(l + B2)(l + B3)(l + C1)
#:       - D*(C2*(l + B2)(l + B3) + C3*(l + B3) + C4*(l + B1)(l + B2))
#: with B1 = alpha+mu, B2 = gamma2+phi2+mu, B3 = gamma3+mu,
#: C1 = sigma+epsilon+mu, C2 = sigma, C3 = sigma*(1-rho)*alpha,
#: C4 = epsilon*omega and D = beta*Lambda/mu.  Each preset's float
#: parameters were taken exactly as mpmath numbers and everything else was
#: computed at 50 digits; the root is mpmath ``findroot`` (secant from 0.05),
#: confirmed to 1e-57 by Anderson's bracketing method on [0, 1].
ORACLE_DFE_ROOT = {
    "614G": 0.061849330013434059749,
    "Alpha": 0.11266578542592029792,
    "Delta": 0.12697502523141339299,
    "Omicron": 0.0064380751766257921099,
}

#: E|exp(0.05 Z) - 1| for standard normal Z (Gauss quadrature)
ORACLE_LOGNORMAL_MAD_005 = 0.0399274898587


def draw_params(rng) -> ModelParameters:
    """One random valid parameter set at epidemiologically plausible scales."""
    return ModelParameters(
        Lambda=float(rng.uniform(10.0, 5000.0)),
        mu=float(10.0 ** rng.uniform(-5.0, -3.0)),
        beta=float(10.0 ** rng.uniform(-10.0, -7.0)),
        sigma=float(rng.uniform(0.05, 1.0)),
        epsilon=float(rng.uniform(0.05, 1.0)),
        alpha=float(rng.uniform(0.05, 1.0)),
        omega=float(rng.uniform(0.0, 1.0)),
        rho=float(rng.uniform(0.0, 1.0)),
        gamma1=float(rng.uniform(0.01, 1.0)),
        gamma2=float(rng.uniform(0.01, 1.0)),
        gamma3=float(rng.uniform(0.01, 1.0)),
        phi1=float(rng.uniform(0.0, 0.02)),
        phi2=float(rng.uniform(0.0, 0.02)),
    )


def draw_params_at_rc(rng, rc_target: float) -> ModelParameters:
    """Random draw rescaled (via linearity in beta) to a target R_c."""
    p = draw_params(rng)
    rc = control_reproduction_number(p)
    return p.with_updates(beta=p.beta * rc_target / rc)


def audit_seedings(params: ModelParameters, n_seeds: int = 20, seed: int = 0,
                   seed_scale: float = 2e-6) -> list[np.ndarray]:
    """The initial states global_stability_certificate draws, in order."""
    rng = np.random.default_rng(seed)
    s0 = params.S0
    return [np.array([s0, *rng.uniform(0.0, seed_scale * s0, size=5), 0.0])
            for _ in range(n_seeds)]


def scale_to_rc(params: ModelParameters, rc_target: float) -> ModelParameters:
    rc = control_reproduction_number(params)
    return params.with_updates(beta=params.beta * rc_target / rc)


def field_double(g):
    """A stand-in for the field ``model.extended_field`` returns, evaluated
    as ``g``: f(y) is g(y), and f.stage(out), the integrators' way in, gives
    a stage buffer of ``out``'s shape and dtype and an ``evaluate()`` that
    writes g of the state found there into ``out``, so g sees, and may
    alter, every real and complex evaluation a run makes."""
    def stage(out):
        state = np.empty(out.shape, out.dtype)

        def evaluate():
            out[...] = g(state)
            return out
        return state, evaluate

    def f(y):
        return g(y)
    f.stage = stage
    return f


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture
def params_614g():
    return VARIANTS["614G"]


@pytest.fixture(params=sorted(VARIANTS))
def variant(request):
    return request.param, VARIANTS[request.param]
