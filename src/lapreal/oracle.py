"""Brute-force verification and Monte Carlo region-area estimation.

Everything here is independent of the constructive machinery it checks:
forward sampling validates the predicates against closed-form spectra,
grid search certifies non-realizable targets at desk scale, and the
fraction estimator measures the share of the eigenvalue simplex each
topology can realize.

All randomness comes from numpy's PCG64 generator with fixed streams per
(topology, purpose), so reports are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .cubic import ZERO_CLAMP, reduced_cubic_batch, solve_cubic_real_batch
from .graphs import COMPLETE_KIND, FOUR_VERTEX_KINDS, Topology, deflated_laplacians
from .inverse import INVERTERS, InternalInfeasible, NotRealizable, invert_complete
from .jacobi import jacobi_spectra
from .realizability import CHECKS, MASKS

GENERATOR_NAME = "numpy-PCG64"

_KIND_STREAM = {kind: i for i, kind in enumerate((*FOUR_VERTEX_KINDS, COMPLETE_KIND), 1)}
_PURPOSE_STREAM = {"forward": 1, "grid": 2, "fraction": 3, "roundtrip": 4}

#: points ``estimate_region_fraction`` draws and masks at a time
FRACTION_BLOCK = 1 << 20


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    samples: int
    w_max: float = 4.0
    grid_resolution: int = 25

    def __post_init__(self):
        # numpy's own message for a negative seed names neither it nor its value
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.samples, numbers.Integral):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not math.isfinite(self.w_max):
            raise ValueError(f"w_max must be finite, got {self.w_max}")
        if self.w_max <= 0:
            raise ValueError(f"w_max must be positive, got {self.w_max}")
        if not isinstance(self.grid_resolution, numbers.Integral):
            raise ValueError(f"grid_resolution must be an integer, got {self.grid_resolution!r}")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")


@dataclass(frozen=True)
class FractionEstimate:
    fraction: float
    half_width_95: float
    samples: int


@dataclass
class ForwardReport:
    topology: str
    seed: int
    samples: int
    failure_count: int
    failures: list = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"record=forward topology={self.topology} generator={GENERATOR_NAME} "
            f"seed={self.seed} samples={self.samples} failures={self.failure_count}"
        ]
        for triple in self.failures:
            vals = ",".join(format(v, ".9g") for v in triple)
            out.append(f"record=forward-failure topology={self.topology} triple={vals}")
        return out


@dataclass
class RoundtripReport:
    topology: str
    seed: int
    inverted: int
    max_residual: float
    infeasible_count: int
    not_realizable_count: int

    def lines(self) -> list[str]:
        return [
            f"record=roundtrip topology={self.topology} generator={GENERATOR_NAME} "
            f"seed={self.seed} inverted={self.inverted} "
            f"max_residual={format(self.max_residual, '.9g')} "
            f"infeasible={self.infeasible_count} "
            f"not_realizable={self.not_realizable_count}"
        ]


def _rng(cfg: SamplerConfig, topology: Topology, purpose: str) -> np.random.Generator:
    return np.random.default_rng(
        [cfg.seed, _KIND_STREAM[topology.kind], _PURPOSE_STREAM[purpose]]
    )


def sample_simplex(rng: np.random.Generator, count: int):
    """Uniform samples from {x+y+z=1, x,y,z >= 0} via sorted uniform spacings."""
    u = rng.random((count, 2))
    lo, hi = np.minimum(u[:, 0], u[:, 1]), np.maximum(u[:, 0], u[:, 1])
    return lo, hi - lo, 1.0 - hi


def forward_triples(topology: Topology, weights: np.ndarray) -> np.ndarray:
    """Nonzero-slot spectra (batch, 3) via the closed-form cubic route."""
    p2, p1, p0 = reduced_cubic_batch(topology, weights)
    roots = solve_cubic_real_batch(p2, p1, p0)
    return np.where((roots < 0.0) & (roots > -ZERO_CLAMP), 0.0, roots)


def sample_forward(topology: Topology, cfg: SamplerConfig, keep_failures: int = 10) -> ForwardReport:
    """Check that random forward spectra all satisfy the topology's predicate."""
    if topology.kind == COMPLETE_KIND:
        raise ValueError("sample_forward applies to the four-vertex topologies")
    rng = _rng(cfg, topology, "forward")
    weights = rng.uniform(0.0, cfg.w_max, size=(cfg.samples, topology.edge_count))
    roots = forward_triples(topology, weights)
    mask = MASKS[topology.kind](roots[:, 0], roots[:, 1], roots[:, 2])
    bad = np.flatnonzero(~mask)
    failures = [tuple(roots[i]) for i in bad[:keep_failures]]
    return ForwardReport(topology.kind, cfg.seed, cfg.samples, int(bad.size), failures)


def negative_grid_search(topology: Topology, target, cfg: SamplerConfig) -> float:
    """Minimum L-infinity distance from a rejected target to any grid spectrum.

    Scans the full weight grid {0, h, ..., w_max}^edges, rescales every
    sampled spectrum to the target's sum (the criteria are homogeneous) and
    returns the smallest distance found.  A clearly positive floor is a
    desk-scale certificate of non-realizability.
    """
    if topology.kind == COMPLETE_KIND:
        raise ValueError("negative_grid_search applies to the four-vertex topologies")
    verdict = CHECKS[topology.kind](target)
    if verdict.realizable:
        raise ValueError(f"target {tuple(target)} passes the {topology.kind} predicate")
    want = np.sort(np.asarray(target, dtype=float))
    total = float(want.sum())
    if total <= 0:
        raise ValueError("target sum must be positive")
    axis = np.linspace(0.0, cfg.w_max, cfg.grid_resolution + 1)
    mesh = np.meshgrid(*([axis] * topology.edge_count), indexing="ij")
    weights = np.stack([m.ravel() for m in mesh], axis=-1)
    roots = forward_triples(topology, weights)
    sums = roots.sum(axis=1)
    nearest = np.max(np.abs(want))  # distance from the zero spectrum
    live = sums > 0
    if np.any(live):
        scaled = roots[live] * (total / sums[live])[:, None]
        dists = np.max(np.abs(scaled - want[None, :]), axis=1)
        nearest = min(nearest, float(dists.min()))
    return float(nearest)


def estimate_region_fraction(topology: Topology, cfg: SamplerConfig) -> FractionEstimate:
    """Monte Carlo estimate of the realizable share of the eigenvalue simplex."""
    rng = _rng(cfg, topology, "fraction")
    mask = MASKS[topology.kind]
    hits = 0
    # blocks of any size draw the same points from the stream, so only memory depends on the size
    for start in range(0, cfg.samples, FRACTION_BLOCK):
        x, y, z = sample_simplex(rng, min(FRACTION_BLOCK, cfg.samples - start))
        hits += np.count_nonzero(mask(x, y, z))
    fraction = float(hits) / cfg.samples
    half_width = 1.96 * math.sqrt(fraction * (1.0 - fraction) / cfg.samples)
    return FractionEstimate(fraction, half_width, cfg.samples)


def _roundtrip_four_vertex(topology: Topology, cfg: SamplerConfig) -> RoundtripReport:
    rng = _rng(cfg, topology, "roundtrip")
    # filter with the exact inequalities: the boundary band exists to absorb
    # forward roundoff, and would otherwise admit points genuinely outside
    # the region (unreachable at 1e-8) near the criteria's cusps
    mask = MASKS[topology.kind]
    invert = INVERTERS[topology.kind]
    samples = cfg.samples
    # blocks of any size draw the same points in the same order; give up
    # after 500 * max(samples, 10_000) points
    block, left = max(samples, 1_000), 500 * max(samples, 10_000)
    blocks, found = [], 0
    while found < samples and left:
        x, y, z = sample_simplex(rng, min(block, left))
        left -= x.size
        keep = np.flatnonzero(mask(x, y, z, tol=0.0))[: samples - found]
        blocks.append(np.stack((x[keep], y[keep], z[keep]), axis=1))
        found += keep.size
    targets = np.concatenate(blocks)
    infeasible = 0
    rejected = 0
    weights = []
    dropped = []
    # Python floats, so the scalar inverters make no numpy scalars
    for i, triple in enumerate(targets.tolist()):
        try:
            weights.append(invert(triple).weights)
        except InternalInfeasible:
            infeasible += 1
            dropped.append(i)
        except NotRealizable:
            rejected += 1
            dropped.append(i)
    kept = len(weights)
    max_residual = 0.0
    if kept:
        edges = topology.edge_count
        flat = np.fromiter(itertools.chain.from_iterable(weights), float, kept * edges)
        # the deflated block's eigenvalues are the three beside the exact 0
        spectra = jacobi_spectra(deflated_laplacians(topology, flat.reshape(kept, edges)))
        want = np.sort(np.delete(targets, dropped, axis=0), axis=1)
        max_residual = float(np.abs(spectra - want).max())
    return RoundtripReport(
        topology.kind, cfg.seed, kept, max_residual, infeasible, rejected
    )


def _roundtrip_complete(topology: Topology, cfg: SamplerConfig) -> RoundtripReport:
    rng = _rng(cfg, topology, "roundtrip")
    n = topology.order - 1
    targets = rng.uniform(0.0, cfg.w_max, size=(cfg.samples, n))
    max_residual = 0.0
    for row in targets:
        sol = invert_complete(row)
        max_residual = max(max_residual, sol.residual)
    return RoundtripReport(
        f"complete{topology.order}", cfg.seed, cfg.samples, max_residual, 0, 0
    )


def roundtrip_suite(topology: Topology, cfg: SamplerConfig) -> RoundtripReport:
    """Invert predicate-passing targets and verify them with the eigensolver.

    For four-vertex topologies, simplex triples are drawn in blocks of
    max(samples, 1000) from one ordered stream until ``cfg.samples`` of them
    pass the predicate.  The stream gives the same points at any block size,
    so the targets are the first passing points of one long draw.  Each is
    inverted and the resulting weights are verified through the Jacobi
    route on their deflated 3x3 blocks (``graphs.deflated_laplacians``),
    whose eigenvalues are the Laplacian's three beside its exact 0; the
    route never forms the cubic the inverse solves.  For complete graphs,
    random tuples in [0, w_max] are realized directly.
    """
    if topology.kind == COMPLETE_KIND:
        return _roundtrip_complete(topology, cfg)
    return _roundtrip_four_vertex(topology, cfg)
