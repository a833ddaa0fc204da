"""Recover transmission parameters from noisy daily case counts.

Generates 60 days of synthetic detected-case data from known parameters with
5% multiplicative log-normal noise, then fits beta, epsilon and rho by bounded
least squares on log1p residuals (scipy's trust-region solver) starting from
deliberately wrong guesses. Individual rates trade off against each other, so
the meaningful score is the recovered reproduction number.
"""

import numpy as np

from seiar import (
    FitConfig,
    FreeValue,
    ParameterSpec,
    control_reproduction_number,
    fit,
    synthesize_data,
)
from seiar.presets import VARIANT_614G as truth

seed_size = 1000.0
initial_state = np.array([truth.S0 - seed_size, seed_size, 0, 0, 0, 0, 0])
data = synthesize_data(truth, initial_state, days=60,
                       noise="lognormal", sigma=0.05, seed=42)
print(f"synthetic data: {len(data)} days, "
      f"{data.counts[0]:.0f} -> {data.counts[-1]:.0f} cases/day")

entries = truth.as_dict()
entries["beta"] = FreeValue(lo=truth.beta / 4, hi=truth.beta * 4,
                            guess=truth.beta * 1.6)
entries["epsilon"] = FreeValue(lo=0.05, hi=1.0, guess=0.25)
entries["rho"] = FreeValue(lo=0.05, hi=0.95, guess=0.30)
spec = ParameterSpec(params=entries,
                     initial={"S": truth.S0 - seed_size, "E1": seed_size})

result = fit(spec, data, FitConfig(restarts=3, max_evals=400, seed=42))

print(f"\nsearch: {result.n_evals} residual evaluations and {result.iterations} "
      f"accepted steps in the winning restart, converged = {result.converged}")
print(f"log1p loss (minimised): {result.loss:.4f}")
print(f"objective (sum of squared daily residuals): {result.objective:,.1f}")

rc_true = control_reproduction_number(truth)
print(f"\n{'quantity':10s} {'truth':>12s} {'fitted':>12s}")
for name in ("beta", "epsilon", "rho"):
    print(f"{name:10s} {getattr(truth, name):12.4e} "
          f"{getattr(result.params, name):12.4e}")
print(f"{'R_c':10s} {rc_true:12.4f} {result.r_c:12.4f}   "
      f"(relative error {abs(result.r_c - rc_true) / rc_true:.2%})")

rmse = float(np.sqrt(np.mean(result.residuals ** 2)))
print(f"\nfit RMSE: {rmse:.1f} cases/day on data peaking at "
      f"{data.counts.max():.0f}")
