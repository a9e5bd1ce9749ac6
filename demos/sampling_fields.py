"""Exact sampling of the driving scalar fields.

Everything downstream (matrix ensembles, spectra, collision statistics)
rests on drawing the scalar field with the right covariance

    C(s, t) = prod_j ( s_j^{2H_j} + t_j^{2H_j} - |s_j - t_j|^{2H_j} ) / 2.

This script draws fractional Brownian motion by circulant embedding (a
scaled cumulative sum at H = 1/2) and a two-parameter sheet by per-axis
factors, then checks the empirical moments against the closed form and
scans the nondegeneracy constants the theory assumes.
"""

from fractions import Fraction

import numpy as np

from eigencollide import (
    HurstVector,
    KernelSpec,
    TimeGrid,
    kernel_eval,
    kernel_gram,
    sample_fbm_1d,
    sample_sheet,
    verify_assumptions,
)

rng_draws = 4000

print("=== fractional Brownian motion on [1, 2] ===")
grid = TimeGrid.unit([513])
for hurst in ("1/4", "1/2", "3/4"):
    draws = np.stack(
        [sample_fbm_1d(hurst, grid, seed=101, key=(i,)).values for i in range(rng_draws)]
    )
    # increments scale like |dt|^(2H); compare two lags
    h = float(Fraction(hurst))
    for lag in (1, 16):
        dt = lag / 512
        emp = np.mean((draws[:, lag:] - draws[:, :-lag]) ** 2)
        print(
            "H=%-4s lag %2d:  E[dB^2] = %.5f   (|dt|^2H = %.5f)"
            % (hurst, lag, emp, dt ** (2 * h))
        )
    print()

print("=== two-parameter sheet, anisotropic H = (1/2, 3/4) ===")
spec = KernelSpec(HurstVector(["1/2", "3/4"]))
small = TimeGrid.unit([3, 3])
draws = np.stack(
    [sample_sheet(spec, small, seed=202, key=(i,)).values.ravel() for i in range(rng_draws)]
)
emp = draws.T @ draws / rng_draws
gram = kernel_gram(spec, small)
print("closed-form C((1,1),(2,2)) =", kernel_eval(spec, (1, 1), (2, 2)))
print("max |empirical - closed form| over 9x9 Gram: %.4f" % np.abs(emp - gram).max())
print("Monte Carlo scale at %d draws: %.4f" % (rng_draws, np.abs(gram).max() * (2 / rng_draws) ** 0.5))

print()
print("=== determinism: a stream is its (seed, key) ===")
a = sample_sheet(spec, small, seed=7, key=(3, 1, 0))
b = sample_sheet(spec, small, seed=7, key=(3, 1, 0))
print("same key twice, identical draw:", np.array_equal(a.values, b.values))

print()
print("=== the constants behind the hitting-probability machinery ===")
# c1 bounds the field away from degeneracy, c3 bounds increments from
# below, c4 is two-point local nondeterminism.  All must be positive on
# the working box.
report = verify_assumptions(spec, TimeGrid.unit([8, 8]))
print("c1 = %.4f  c3 = %.4f  c4 = %.4f  (%d points, %s)" % (
    report.c1, report.c3, report.c4, report.n_points,
    "pass" if report.passed else "VIOLATIONS: %s" % (report.violations,),
))
