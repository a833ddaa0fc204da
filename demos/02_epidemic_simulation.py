"""Simulate one epidemic wave and inspect its observables.

Seeds 100 early-exposed people into an otherwise susceptible population under
the 614G parameter set, integrates a year with the adaptive 4(5) stepper, and
prints the daily-detected-case peak, the cumulative breakdown by infected
class, and a population-balance sanity check.
"""

import numpy as np

from seiar import (
    IntegratorConfig,
    cumulative_by_class,
    daily_incidence,
    integrate,
    peak,
    population_balance,
)
from seiar.presets import VARIANT_614G as params

seed = 100.0
initial = np.array([params.S0 - seed, seed, 0.0, 0.0, 0.0, 0.0, 0.0])
config = IntegratorConfig(t0=0.0, t_end=365.0, sample_per_day=4)
trajectory = integrate(params, initial, config)

series = daily_incidence(trajectory)
day, value = peak(series)
print(f"daily detected cases peak on day {day} at {value:,.0f} cases/day")

breakdown = cumulative_by_class(trajectory)
print("\ncumulative inflows over the year:")
print(f"  detected symptomatic   (I1): {breakdown.cum_I1:14,.0f}")
print(f"  undetected symptomatic (I2): {breakdown.cum_I2:14,.0f}")
print(f"  asymptomatic           (A) : {breakdown.cum_A:14,.0f}")
print(f"  total                      : {breakdown.cum_total:14,.0f}")
share = breakdown.cum_proportions
print(f"  class shares I1:I2:A = {share[0]:.4f} : {share[1]:.4f} : {share[2]:.4f}")

# total population obeys dN/dt = Lambda - mu N - phi1 I1 - phi2 I2
balance = np.array([population_balance(s, params) for s in trajectory.states])
drift = (trajectory.totals[-1] - trajectory.totals[0]) \
    - float(np.trapezoid(balance, trajectory.times))
print(f"\npopulation-balance drift over the year: {drift:+.3e} persons "
      f"({abs(drift) / trajectory.totals[0]:.2e} of N(0))")

print("\nfirst ten days of detected incidence:")
for d in range(10):
    print(f"  day {d}: {series[d]:9.2f}")
