"""Stability of the two equilibria, certified numerically three ways.

1. Eigenvalues of the Jacobian at the disease-free and endemic points.
2. The quartic factor of the characteristic polynomial at the disease-free
   point: its constant term a4 = B1 B2 B3 C1 (1 - R_c) goes negative exactly
   when R_c > 1, forcing a positive real root (instability certificate).
   The coefficients and the root come from one eigen-decomposition.
3. A Lyapunov-style audit: with transmission scaled so R_c = 0.8, the energy
   function V decreases along simulated trajectories and the state returns
   to the disease-free point.
"""

import numpy as np

from seiar import (
    COMPARTMENTS,
    classify_equilibrium,
    control_reproduction_number,
    disease_free_equilibrium,
    disease_free_quartic,
    endemic_equilibrium,
    lyapunov_audit,
)
from seiar.presets import VARIANT_614G as params

rc = control_reproduction_number(params)
print(f"R_c = {rc:.4f}")

dfe = disease_free_equilibrium(params)
report = classify_equilibrium(params, dfe)
print(f"\ndisease-free point: verdict = {report.verdict}, "
      f"max Re(lambda) = {report.max_real_part:+.6f}")

coeffs, root = disease_free_quartic(params)  # (a1, a2, a3, a4) and the root
print(f"quartic constant term a4 = {coeffs[3]:+.6e} "
      f"(negative, since R_c > 1)")
print(f"positive-root certificate: largest real root at lambda = {root:.6f}")
print("that root IS the unstable eigenvalue:",
      np.isclose(root, report.max_real_part, rtol=1e-8))

endemic = endemic_equilibrium(params)  # a (7,) array in COMPARTMENTS order
endemic_report = classify_equilibrium(params, endemic)
s_star, e1_star = (endemic[COMPARTMENTS.index(name)] for name in ("S", "E1"))
print(f"\nendemic point: E1* = {e1_star:.1f}, S* = {s_star:,.0f}")
print(f"endemic verdict = {endemic_report.verdict}, "
      f"max Re(lambda) = {endemic_report.max_real_part:+.3e}")
print(f"threshold identity S0/S* = {params.S0 / s_star:.6f} = R_c")

# below threshold the disease-free point is globally attracting
subcritical = params.with_updates(beta=params.beta * 0.8 / rc)
print(f"\nscaling beta so R_c = "
      f"{control_reproduction_number(subcritical):.2f} and seeding 500 exposed:")
start = np.array([subcritical.S0, 500.0, 0.0, 0.0, 0.0, 0.0, 0.0])
audit = lyapunov_audit(subcritical, start, horizon=2000.0)  # one run, at index 0
print(f"audit passed = {audit.passed[0]}; V never rose by more than "
      f"{audit.max_violation[0]:.1e} (relative); final distance to P0 = "
      f"{audit.final_distance[0]:.2e} of N(0)")
