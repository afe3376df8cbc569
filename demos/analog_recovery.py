"""Walkthrough: recover a function on [0,1] from Wiener-integral measurements.

The signal is a step function; each measurement is its stochastic integral
against an independent Wiener path, realized as a left-point sum on a shared
4096-step grid (exact here because the breakpoints sit on the grid).  The
codebook quantizes one breakpoint and the two step levels, and pursuit scans
it for the best measurement match.
"""

import numpy as np

from csplab import (PiecewisePolyCodec, csp_recover_analog, measure_analog,
                    piecewise_constant, sample_wiener_ensemble)

MASTER_SEED = 99
GRID = 4096

codec = PiecewisePolyCodec(0, 1, amp=1.0, delta=0.1, grid=GRID)
print(f"codec: degree {codec.degree}, {codec.n_breaks} breakpoint, "
      f"{codec.size} codewords ({codec.rate_bits:.1f} bits), "
      f"audited distortion {codec.audit_worst:.4f} <= {codec.delta}")

truth = piecewise_constant([0.3], [0.8, -0.55])
print(f"truth: 0.8 on (0, 0.3], -0.55 on (0.3, 1]; ||f||_2 = {truth.l2_norm():.4f}")

for d in (4, 8, 16):
    ensemble = sample_wiener_ensemble(d, GRID, MASTER_SEED, 1000 * d)
    y = measure_analog(ensemble, truth)
    result = csp_recover_analog(y, ensemble, codec, truth=truth)
    recon = result.reconstruction[0]    # one row per signal
    print(f"d={d:2d}: L2 error {result.error_l2[0]:.4f}, residual "
          f"{result.residual[0]:.4f}, recovered breakpoint "
          f"{recon.breakpoints[0]:.4f}, levels "
          f"{recon(np.array([0.1]))[0]:+.4f} / {recon(np.array([0.9]))[0]:+.4f}")
