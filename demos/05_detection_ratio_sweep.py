"""What happens when more symptomatic infections get tested?

Re-runs each variant's wave with the detection ratio rho forced to 20%, 40%,
60% and 80%, everything else held at its baseline. Detection moves
symptomatic cases into isolation, so cumulative infections fall steeply with
rho; the asymptomatic share of infections, fed upstream of detection, barely
moves, which is exactly why testing alone cannot stop silent spread.
"""

import numpy as np

from seiar import decline_percentages, rho_sweep
from seiar.presets import VARIANTS

for name, params in VARIANTS.items():
    seed = 100.0
    initial = np.array([params.S0 - seed, seed, 0, 0, 0, 0, 0])
    sweep = rho_sweep((params, initial), rho_values=(0.2, 0.4, 0.6, 0.8),
                      horizon=365.0)
    print(f"\n=== {name} ===")
    print("rho    R_c     cumulative infections    asymptomatic share")
    for s in sweep:
        print(f"{s.rho:3.1f} {s.r_c:7.3f} {s.cum_total:20,.0f} "
              f"{s.cum_proportions[2]:18.4f}")
    decline = decline_percentages(sweep)
    print(f"decline from rho=0.2 to rho=0.8: total {decline.total_pct:.2f}%, "
          f"asymptomatic count {decline.asymptomatic_pct:.2f}%")
