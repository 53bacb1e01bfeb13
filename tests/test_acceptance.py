"""Acceptance gate: the ten headline guarantees at their stated tolerances.

Each test prints a single ``ACCEPT n PASS/FAIL`` line (visible with -s or
in captured output) summarizing the measured quantity.
"""

import math
import time

import numpy as np
import pytest

from lapreal.cubic import reduced_cubic_batch, solve_cubic_real_batch
from lapreal.graphs import (
    CYCLE4,
    FOUR_VERTEX_KINDS,
    KITE,
    PATH4,
    STAR,
    Topology,
    build_laplacian,
    build_laplacians,
    complete,
)
from lapreal.inverse import (
    invert_complete,
    invert_cycle,
    invert_kite,
    invert_star,
    suspend_spectrum,
)
from lapreal.jacobi import jacobi_spectra, spectrum_numeric
from lapreal.oracle import (
    SamplerConfig,
    estimate_region_fraction,
    negative_grid_search,
    roundtrip_suite,
    sample_simplex,
)
from lapreal.realizability import MASKS
from lapreal.region import PANEL_ORDER, evaluate_grid, write_svg

FOUR = list(map(Topology, FOUR_VERTEX_KINDS))
N_SAMPLES = 100_000


def report(criterion, ok, detail):
    print(f"ACCEPT {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def forward_samples():
    """Per topology: (weights, cubic-route triples, Jacobi spectra, seconds)."""
    out = {}
    for topo in FOUR:
        rng = np.random.default_rng([2024, topo.edge_count, FOUR.index(topo)])
        weights = rng.uniform(0.0, 4.0, (N_SAMPLES, topo.edge_count))
        t0 = time.perf_counter()
        p2, p1, p0 = reduced_cubic_batch(topo, weights)
        triples = solve_cubic_real_batch(p2, p1, p0)
        spectra = jacobi_spectra(build_laplacians(topo, weights))
        elapsed = time.perf_counter() - t0
        out[topo.kind] = (weights, triples, spectra, elapsed)
    return out


class TestAcceptance:
    def test_01_dual_route_agreement(self, forward_samples):
        worst = 0.0
        total_time = 0.0
        for topo in FOUR:
            _, triples, spectra, elapsed = forward_samples[topo.kind]
            total_time += elapsed
            closed = np.sort(
                np.concatenate(
                    [np.zeros((triples.shape[0], 1)), triples], axis=1
                ),
                axis=1,
            )
            worst = max(worst, float(np.abs(closed - spectra).max()))
        ok = worst <= 1e-8 and total_time < 30.0
        report(1, ok, f"max |cubic - jacobi| = {worst:.3g} over "
                      f"{4 * N_SAMPLES} samples in {total_time:.1f}s")

    def test_02_predicate_soundness(self, forward_samples):
        failures = 0
        for topo in FOUR:
            _, triples, _, _ = forward_samples[topo.kind]
            clamped = np.maximum(triples, 0.0)
            mask = MASKS[topo.kind](clamped[:, 0], clamped[:, 1], clamped[:, 2])
            failures += int(np.count_nonzero(~mask))
        report(2, failures == 0,
               f"{failures} forward spectra rejected by their own predicate")

    def test_03_inverse_roundtrip(self):
        t0 = time.perf_counter()
        worst = 0.0
        infeasible = 0
        for topo in FOUR:
            rep = roundtrip_suite(topo, SamplerConfig(seed=7, samples=N_SAMPLES))
            worst = max(worst, rep.max_residual)
            infeasible += rep.infeasible_count
            assert rep.inverted == N_SAMPLES
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and infeasible == 0 and elapsed < 60.0
        report(3, ok, f"max residual {worst:.3g}, {infeasible} infeasible, "
                      f"{elapsed:.1f}s")

    def test_04_golden_instances(self):
        sqrt2 = math.sqrt(2.0)
        cases = [
            (invert_kite, (4.0, 3.0, 1.0), (7.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0, 1.5)),
            (
                invert_cycle,
                (5.0, 2.0, 1.0),
                ((3.0 + sqrt2) / 2.0, 0.5, (3.0 - sqrt2) / 2.0, 0.5),
            ),
            (invert_star, (1.0, 1.0, 4.0), (1.0, 1.0, 1.0)),
        ]
        worst = 0.0
        for solver, target, want in cases:
            got = solver(target).weights
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        report(4, worst <= 1e-9, f"max golden-weight deviation {worst:.3g}")

    def test_05_negative_certificates(self):
        cfg = SamplerConfig(seed=1, samples=1, w_max=4.0, grid_resolution=25)
        cases = [
            (CYCLE4, (3.0, 3.0, 2.0)),
            (KITE, (2.0, 2.0, 2.0)),
            (STAR, (1.0, 1.0, 1.0)),
        ]
        t0 = time.perf_counter()
        floor = min(
            negative_grid_search(topo, target, cfg) for topo, target in cases
        )
        elapsed = time.perf_counter() - t0
        ok = floor >= 0.01 and elapsed < 60.0
        report(5, ok, f"nearest grid spectrum at distance {floor:.4f}, "
                      f"{elapsed:.1f}s")

    def test_06_suspension_law(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            topo = complete(n)
            weights = rng.uniform(0.0, 4.0, topo.edge_count)
            weights[rng.random(topo.edge_count) < 0.3] = 0.0
            c = float(rng.uniform(0.0, 5.0))
            spec = spectrum_numeric(build_laplacian(topo, weights))
            # explicit suspension: K_{n+1} keeping the old weights and
            # joining the new vertex to everything with weight c
            big = complete(n + 1)
            ext = {
                (i, j): c if j == n else weights[topo.edges.index((i, j))]
                for i, j in big.edges
            }
            big_spec = spectrum_numeric(
                build_laplacian(big, [ext[e] for e in big.edges])
            )
            predicted = suspend_spectrum(spec, c)
            worst = max(worst, float(np.abs(big_spec - predicted).max()))
        # c = 0 appends exactly one extra zero eigenvalue
        spec = spectrum_numeric(build_laplacian(complete(4), [1.0] * 6))
        out = suspend_spectrum(spec, 0.0)
        zeros_ok = np.count_nonzero(np.abs(out) < 1e-9) == 2 and out.size == 5
        ok = worst <= 1e-8 and zeros_ok
        report(6, ok, f"max suspension deviation {worst:.3g}, "
                      f"c=0 appends one zero: {zeros_ok}")

    def test_07_complete_universality(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for n in range(1, 11):
            for _ in range(50):
                target = rng.uniform(0.0, 4.0, n)
                sol = invert_complete(target)
                worst = max(worst, sol.residual)
                assert min(sol.weights) >= 0.0
        report(7, worst <= 1e-7, f"max K_n+1 residual {worst:.3g} for n=1..10")

    def test_08_region_fractions(self):
        cyc = estimate_region_fraction(CYCLE4, SamplerConfig(seed=3, samples=1_000_000))
        k4 = estimate_region_fraction(complete(4), SamplerConfig(seed=3, samples=100_000))
        ok = 0.74 <= cyc.fraction <= 0.76 and k4.fraction == 1.0
        detail = [f"cycle {cyc.fraction:.4f}", f"k4 {k4.fraction}"]
        for topo in (KITE, STAR, PATH4):
            a = estimate_region_fraction(topo, SamplerConfig(seed=101, samples=200_000))
            b = estimate_region_fraction(topo, SamplerConfig(seed=202, samples=200_000))
            gap = abs(a.fraction - b.fraction)
            limit = 2.0 * max(a.half_width_95, b.half_width_95)
            ok = ok and gap <= limit
            detail.append(f"{topo.kind} seeds differ by {gap:.4f} (limit {limit:.4f})")
        report(8, ok, "; ".join(detail))

    def test_09_region_inclusions(self):
        rng = np.random.default_rng(99)
        x, y, z = sample_simplex(rng, N_SAMPLES)
        star = MASKS["star"](x, y, z)
        cyc = MASKS["cycle"](x, y, z)
        path = MASKS["path"](x, y, z)
        kite = MASKS["kite"](x, y, z)
        k4 = MASKS["complete"](x, y, z)
        violations = (
            int(np.count_nonzero(path & ~cyc))
            + int(np.count_nonzero(path & ~kite))
            + int(np.count_nonzero(star & ~kite))
            + int(np.count_nonzero((star | cyc | path | kite) & ~k4))
        )
        report(9, violations == 0, f"{violations} inclusion violations "
                                   f"on {N_SAMPLES} simplex samples")

    def test_10_figure_reproduction(self, tmp_path):
        grid = evaluate_grid(400)
        svg = tmp_path / "region.svg"
        write_svg(grid, str(svg))
        text = svg.read_text(encoding="utf-8")
        panels_ok = all(f'<g id="panel-{name}"' in text for name in PANEL_ORDER)
        path = grid.column("path")
        masks_ok = (
            grid.column("k4").all()
            and not np.any(path & ~grid.column("cycle"))
            and not np.any(path & ~grid.column("kite"))
            and not np.any(grid.column("star") & ~grid.column("kite"))
        )
        cyc_frac = grid.column("cycle").mean()
        frac_ok = abs(cyc_frac - 0.75) <= 0.01
        ok = panels_ok and masks_ok and frac_ok
        report(10, ok, f"5 panels: {panels_ok}, mask invariants: {masks_ok}, "
                       f"cycle lattice fraction {cyc_frac:.4f}")
