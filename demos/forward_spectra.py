"""Forward problem walkthrough: edge weights -> Laplacian spectrum.

Every supported topology carries a fixed edge ordering, and its spectrum
can be computed two independent ways: the closed-form cubic for the
three nonzero slots, and the eigenvalues of the built matrix
(``spectrum_numeric``, LAPACK's symmetric eigensolver).  This script builds a few graphs, compares the routes and
demonstrates the scaling law.

Run:  python3 demos/forward_spectra.py
"""

import numpy as np

from lapreal import (
    CYCLE4,
    KITE,
    PATH4,
    STAR,
    build_laplacian,
    forward_spectrum,
    scale_weights,
    spectrum_numeric,
)

np.set_printoptions(precision=6, suppress=True)

print("== unit star ==")
lap = build_laplacian(STAR, (1.0, 1.0, 1.0))
print("Laplacian:\n", lap)
print("cubic route:", forward_spectrum(STAR, (1.0, 1.0, 1.0)))
print("matrix route:", spectrum_numeric(lap))

print("\n== the five topologies with mixed weights ==")
examples = [
    (STAR, (1.0, 2.0, 3.0)),
    (CYCLE4, (0.5, 1.5, 2.5, 3.5)),
    (PATH4, (1.0, 1.0, 1.0)),
    (KITE, (7 / 6, 2 / 3, 2 / 3, 1.5)),
]
for topo, weights in examples:
    spec = forward_spectrum(topo, weights)
    check = spectrum_numeric(build_laplacian(topo, weights))
    print(f"{topo.kind:6s} w={weights} -> {spec}  (routes agree to "
          f"{np.abs(spec - check).max():.2e})")

print("\n== scaling law: weights * t  =>  spectrum * t ==")
w = (1.0, 2.0, 0.5, 1.5)
base = forward_spectrum(CYCLE4, w)
for t in (0.5, 2.0, 10.0):
    scaled = forward_spectrum(CYCLE4, scale_weights(w, t))
    print(f"t={t:4}: {scaled}   (t * base deviation "
          f"{np.abs(scaled - t * base).max():.2e})")

print("\n== zero weights delete edges ==")
print("cycle with one zero edge:", forward_spectrum(CYCLE4, (0.0, 1.0, 1.0, 1.0)))
print("path with the same weights:", forward_spectrum(PATH4, (1.0, 1.0, 1.0)))
