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
    # one record of arrays, member i at index i of each
    for rho, r_c, total, share in zip(sweep.rho, sweep.r_c, sweep.cum_total,
                                      sweep.cum_proportions[2]):
        print(f"{rho:3.1f} {r_c:7.3f} {total:20,.0f} {share:18.4f}")
    decline = decline_percentages(sweep)
    print(f"decline from rho=0.2 to rho=0.8: total {decline.total_pct:.2f}%, "
          f"asymptomatic count {decline.asymptomatic_pct:.2f}%")
