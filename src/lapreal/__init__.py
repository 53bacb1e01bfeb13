"""Realizable spectra of weighted graph Laplacians.

Forward problem (weights -> spectrum), closed-form realizability
criteria, constructive inverse solvers and region plotting for the five
four-vertex topologies (star, cycle, path, kite, K4) and complete graphs.
"""

from __future__ import annotations

import math

import numpy as np

from .cubic import (
    CubicCoeffs,
    NoThreeRealRoots,
    laplacian_cubic_roots,
    reduced_cubic,
    solve_cubic_real,
)
from .graphs import (
    COMPLETE_KIND,
    CYCLE4,
    KITE,
    PATH4,
    STAR,
    Topology,
    build_laplacian,
    complete,
    float_weights,
    scale_weights,
    unit_scaled,
)
from .inverse import (
    InternalInfeasible,
    InverseSolution,
    NotRealizable,
    invert_complete,
    invert_cycle,
    invert_kite,
    invert_path,
    invert_star,
    suspend_spectrum,
)
from .jacobi import OFFDIAG_TOL, spectrum_numeric
from .oracle import (
    FractionEstimate,
    SamplerConfig,
    estimate_region_fraction,
    negative_grid_search,
    roundtrip_suite,
    sample_forward,
)
from .realizability import (
    Verdict,
    check_complete,
    check_cycle,
    check_kite,
    check_path,
    check_star,
)
from .region import RegionGrid, evaluate_grid, render_region

__all__ = [
    "CYCLE4",
    "CubicCoeffs",
    "FractionEstimate",
    "InternalInfeasible",
    "InverseSolution",
    "KITE",
    "NoThreeRealRoots",
    "NotRealizable",
    "PATH4",
    "RegionGrid",
    "STAR",
    "SamplerConfig",
    "Topology",
    "Verdict",
    "build_laplacian",
    "check_complete",
    "check_cycle",
    "check_kite",
    "check_path",
    "check_star",
    "complete",
    "estimate_region_fraction",
    "evaluate_grid",
    "forward_spectrum",
    "invert_complete",
    "invert_cycle",
    "invert_kite",
    "invert_path",
    "invert_star",
    "laplacian_cubic_roots",
    "negative_grid_search",
    "reduced_cubic",
    "render_region",
    "roundtrip_suite",
    "sample_forward",
    "scale_weights",
    "solve_cubic_real",
    "spectrum_numeric",
    "suspend_spectrum",
]


def forward_spectrum(topology: Topology, weights) -> np.ndarray:
    """Full sorted Laplacian spectrum of a weighted topology.

    Four-vertex graphs go through the closed-form cubic, complete graphs
    through LAPACK (``jacobi.spectrum_numeric``); both scale by
    ``graphs.unit_scaled``'s rule.  On K_n an eigenvalue within
    ``OFFDIAG_TOL`` of the largest magnitude is returned as an exact 0.0.
    """
    if topology.kind == COMPLETE_KIND:
        spec = spectrum_numeric(build_laplacian(topology, weights))
        return np.where(np.abs(spec) <= OFFDIAG_TOL * np.abs(spec).max(), 0.0, spec)
    w = float_weights(topology, weights)
    scaled, e = unit_scaled(w)
    try:
        roots = [math.ldexp(r, e) for r in laplacian_cubic_roots(reduced_cubic(topology, scaled))]
    except OverflowError:
        raise ValueError(f"spectrum of {topology.kind} weights {w} overflows the float range") from None
    return np.sort(np.concatenate(([0.0], roots)))
