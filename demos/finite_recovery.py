"""Walkthrough: recover a sparse vector from underdetermined measurements.

Builds a codebook for 1-sparse vectors in the radius-4 ball of R^12 at
distortion 0.05, measures a random class member with a fresh 8x12 Gaussian
matrix, and recovers it by exhaustive codeword pursuit.  The number of
measurements comes from the oversampling rule d = ceil(eta * r / log2(1/(e
delta))) at eta = 2, and the observed errors are compared against the
closed-form noiseless guarantee with tau1 = 3, tau2 = 0.75 (error bound
4 * delta).

Run:  python demos/finite_recovery.py
"""

import math

import numpy as np

from csplab import (BoundInputs, SparseCodec, csp_recover, derive_stream,
                    evaluate_bound, measure, sample_ensemble)

MASTER_SEED = 2024

codec = SparseCodec(12, 1, rho=4.0, delta=0.05)
d = math.ceil(2.0 * codec.rate_bits / math.log2(1.0 / (math.e * codec.delta)))
bound = evaluate_bound("T3", BoundInputs(
    r=codec.rate_bits, d=d, delta=codec.delta, tau1=3.0, tau2=0.75))

print(f"codebook: {codec.size} codewords, rate {codec.rate_bits:.2f} bits")
print(f"measurements: d = {d} (ambient dimension n = {codec.n})")
print(f"guarantee: error <= {bound.error_bound:.3f} "
      f"except with probability <= {bound.failure_probability:.3g}")
print()
print("trial  ||x||    error     residual  within")

signals = derive_stream(MASTER_SEED, 0)
errors = []
for trial in range(20):
    ensemble = sample_ensemble(d, codec.n, derive_stream(MASTER_SEED, 100 + trial))
    x = codec.sample_member(signals)
    result = csp_recover(measure(ensemble, x), ensemble, codec, truth=x)
    # one row per signal: this recovery's is row 0
    error, residual = result.error_l2[0], result.residual[0]
    errors.append(error)
    print(f"{trial:5d}  {np.linalg.norm(x):.3f}  {error:.6f}  "
          f"{residual:.6f}  {error <= bound.error_bound}")

print()
print(f"mean error {np.mean(errors):.5f}, max {np.max(errors):.5f}, "
      f"all within bound: {max(errors) <= bound.error_bound}")
