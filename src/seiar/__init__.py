"""Seven-compartment SEIAR epidemic dynamics.

A susceptible population feeds a two-stage exposed chain (E1 silent, E2
infectious) that splits into detected symptomatic (I1, isolated), undetected
symptomatic (I2) and asymptomatic (A) infections before recovery. The
package provides the vector field and its equilibria, reproduction-number
machinery, integration with incidence observables, stability certificates,
least-squares calibration against daily confirmed cases and detection-ratio
scenario sweeps, plus a small CLI wrapping all of it.
"""

from .calibrate import (
    FitConfig,
    FitResult,
    FreeValue,
    ObservedSeries,
    ParameterSpec,
    fit,
    synthesize_data,
)
from .errors import ConfigError, DataError, FitError, IntegrationError
from .model import (
    COMPARTMENTS,
    PARAMETER_NAMES,
    ModelParameters,
    control_reproduction_number,
    disease_free_equilibrium,
    endemic_equilibrium,
    equilibrium_tolerance,
    jacobian,
    next_generation_matrices,
    ngm_spectral_radius,
    population_balance,
    rhs,
)
from .presets import VARIANTS
from .scenarios import (
    DeclinePercentages,
    Forecast,
    decline_percentages,
    forecast,
    rho_sweep,
)
from .simulate import (
    IntegratorConfig,
    Trajectory,
    cumulative_by_class,
    daily_incidence,
    integrate,
    peak,
)
from .stability import (
    LyapunovAudit,
    StabilityConfig,
    StabilityReport,
    classify_equilibrium,
    disease_free_quartic,
    entropy_h,
    global_stability_certificate,
    lyapunov_audit,
    lyapunov_derivative,
    lyapunov_values,
)

__version__ = "0.1.0"
