"""Randomized verification oracles (smaller sample sizes than acceptance)."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from lapreal import oracle
from lapreal.graphs import (
    CYCLE4,
    FOUR_VERTEX_KINDS,
    KITE,
    PATH4,
    STAR,
    Topology,
    build_laplacians,
    complete,
)
from lapreal.inverse import INVERTERS, InternalInfeasible, NotRealizable
from lapreal.oracle import (
    SamplerConfig,
    _rng,
    estimate_region_fraction,
    negative_grid_search,
    roundtrip_suite,
    sample_forward,
    sample_simplex,
)
from lapreal.realizability import MASKS

FOUR = list(map(Topology, FOUR_VERTEX_KINDS))


class TestSamplerConfig:
    def test_validation(self):
        # `lapreal frac --samples 0` prints the first of these messages
        for kwargs, message in (
            ({"samples": 0}, "samples must be >= 1, got 0"),
            ({"samples": 10, "w_max": 0.0}, "w_max must be positive, got 0.0"),
            ({"samples": 10, "grid_resolution": 1}, "grid_resolution must be >= 2, got 1"),
        ):
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                SamplerConfig(seed=1, **kwargs)
        # numpy integers are integers, and an int w_max is finite
        cfg = SamplerConfig(seed=1, samples=np.int64(10), w_max=2, grid_resolution=np.int32(3))
        assert negative_grid_search(STAR, (1.0, 2.0, 3.0), cfg) >= 0.0

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("samples", 2.5, "samples must be an integer, got 2.5"),
            ("samples", 3.0, "samples must be an integer, got 3.0"),
            ("samples", "3", "samples must be an integer, got '3'"),
            ("w_max", math.nan, "w_max must be finite, got nan"),
            ("w_max", math.inf, "w_max must be finite, got inf"),
            ("w_max", -math.inf, "w_max must be finite, got -inf"),
            ("grid_resolution", 2.5, "grid_resolution must be an integer, got 2.5"),
            ("grid_resolution", 4.0, "grid_resolution must be an integer, got 4.0"),
        ],
    )
    def test_rejects_non_integer_count_and_non_finite_w_max(self, field, bad, message):
        # each used to be accepted: w_max=nan then failed in numpy's uniform
        # (OverflowError) or the batch cubic (non-finite p2), and samples=2.5
        # or grid_resolution=2.5 with a TypeError in range() or linspace()
        kwargs = {"seed": 1, "samples": 10, field: bad}
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            SamplerConfig(**kwargs)

    def test_rejects_bad_seed(self):
        # a negative seed used to fail in numpy's SeedSequence with
        # "expected non-negative integer", a float seed with a TypeError
        for bad in (-1, -(2**70), 1.5, 2.0, np.float64(3.0), "3", None):
            message = f"seed must be a non-negative integer, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                SamplerConfig(seed=bad, samples=10)
        for good in (0, np.int64(4), 2**70):
            cfg = SamplerConfig(seed=good, samples=10)
            assert estimate_region_fraction(STAR, cfg).samples == 10


class TestSampleSimplex:
    def test_uniform_on_simplex(self):
        rng = np.random.default_rng(2)
        x, y, z = sample_simplex(rng, 10000)
        np.testing.assert_allclose(x + y + z, 1.0, atol=1e-12)
        assert min(x.min(), y.min(), z.min()) >= 0.0
        # coordinates are exchangeable: each mean is ~1/3
        for coord in (x, y, z):
            assert abs(coord.mean() - 1.0 / 3.0) < 0.01


class TestSampleForward:
    @pytest.mark.parametrize("topo", FOUR)
    def test_no_predicate_failures(self, topo):
        report = sample_forward(topo, SamplerConfig(seed=42, samples=5000))
        assert report.failure_count == 0
        assert report.failures == []

    def test_deterministic(self):
        a = sample_forward(STAR, SamplerConfig(seed=9, samples=1000))
        b = sample_forward(STAR, SamplerConfig(seed=9, samples=1000))
        assert a == b

    def test_report_lines(self):
        report = sample_forward(KITE, SamplerConfig(seed=7, samples=100))
        (line,) = report.lines()
        assert "topology=kite" in line
        assert "failures=0" in line

    def test_rejects_complete(self):
        with pytest.raises(ValueError):
            sample_forward(complete(4), SamplerConfig(seed=1, samples=10))


class TestNegativeGridSearch:
    def test_cycle_certificate(self):
        cfg = SamplerConfig(seed=1, samples=1, grid_resolution=10)
        dist = negative_grid_search(CYCLE4, (3.0, 3.0, 2.0), cfg)
        assert dist >= 0.01

    def test_rejects_realizable_target(self):
        cfg = SamplerConfig(seed=1, samples=1, grid_resolution=5)
        with pytest.raises(ValueError):
            negative_grid_search(CYCLE4, (4.0, 2.0, 2.0), cfg)


class TestEstimateRegionFraction:
    def test_k4_full_simplex(self):
        est = estimate_region_fraction(complete(4), SamplerConfig(seed=3, samples=10000))
        assert est.fraction == 1.0
        assert est.half_width_95 == 0.0

    def test_cycle_near_three_quarters(self):
        est = estimate_region_fraction(CYCLE4, SamplerConfig(seed=3, samples=50000))
        assert abs(est.fraction - 0.75) < 0.02

    def test_half_width_formula(self):
        est = estimate_region_fraction(KITE, SamplerConfig(seed=3, samples=10000))
        want = 1.96 * np.sqrt(est.fraction * (1.0 - est.fraction) / est.samples)
        assert est.half_width_95 == pytest.approx(want)

    def test_deterministic(self):
        a = estimate_region_fraction(STAR, SamplerConfig(seed=5, samples=20000))
        b = estimate_region_fraction(STAR, SamplerConfig(seed=5, samples=20000))
        assert a == b

    @pytest.mark.parametrize("topology", [*FOUR, complete(4)], ids=lambda t: t.kind)
    def test_blocks_keep_the_bits(self, monkeypatch, topology):
        # one draw of every point, masked at once, is the reference
        for samples in (1, 999, 1000, 1001, 4096, 50000):
            cfg = SamplerConfig(seed=samples, samples=samples)
            x, y, z = sample_simplex(_rng(cfg, topology, "fraction"), samples)
            want = float(np.count_nonzero(MASKS[topology.kind](x, y, z))) / samples
            default = estimate_region_fraction(topology, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "FRACTION_BLOCK", 1000)
                blocked = estimate_region_fraction(topology, cfg)
            assert default.fraction.hex() == blocked.fraction.hex() == want.hex()
            assert default.half_width_95.hex() == blocked.half_width_95.hex()

    def test_memory_is_bounded(self):
        # all points were drawn at once: a 257 MB peak at 4e6 points
        tracemalloc.start()
        try:
            estimate_region_fraction(STAR, SamplerConfig(seed=1, samples=4_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120e6


class TestRoundtripSuite:
    @pytest.mark.parametrize("topo", FOUR)
    def test_small_roundtrip(self, topo):
        report = roundtrip_suite(topo, SamplerConfig(seed=11, samples=2000))
        assert report.inverted == 2000
        assert report.infeasible_count == 0
        assert report.max_residual <= 1e-8

    def test_path_seed_401(self):
        # 4.25e-8 when the Cardano branch of the path's middle-weight cubic
        # summed two cube roots that cancel
        report = roundtrip_suite(PATH4, SamplerConfig(seed=401, samples=1000))
        assert report.infeasible_count == 0
        assert report.max_residual <= 1e-8

    def test_complete_roundtrip(self):
        report = roundtrip_suite(complete(6), SamplerConfig(seed=11, samples=200))
        assert report.max_residual <= 1e-7


def recording(kind, calls, fail=lambda i: None):
    """``INVERTERS[kind]`` that appends (target, solution) to ``calls``, None while the call runs.

    ``fail(i)`` runs first at the i-th call and may raise in place of the inverse.
    """
    invert = INVERTERS[kind]

    def record(target):
        calls.append((tuple(target), None))
        fail(len(calls))
        sol = invert(target)
        calls[-1] = (tuple(target), sol)
        return sol

    return record


class TestRoundtripSampling:
    @pytest.mark.parametrize("samples", [1, 7, 200, 1000, 2500])
    @pytest.mark.parametrize("topo", FOUR)
    def test_targets_are_the_first_passing_points(self, topo, samples, monkeypatch):
        # at any block size the suite inverts the first `samples` points of its
        # stream that pass the exact mask, once each and in stream order
        cfg = SamplerConfig(seed=5, samples=samples)
        calls = []
        monkeypatch.setitem(INVERTERS, topo.kind, recording(topo.kind, calls))
        report = roundtrip_suite(topo, cfg)
        x, y, z = sample_simplex(_rng(cfg, topo, "roundtrip"), 40_000)
        keep = np.flatnonzero(MASKS[topo.kind](x, y, z, tol=0.0))
        assert keep.size >= samples
        want = list(zip(x[keep].tolist(), y[keep].tolist(), z[keep].tolist()))[:samples]
        assert [target for target, _ in calls] == want
        assert report.inverted == samples

    @pytest.mark.parametrize("topo", FOUR)
    def test_failed_targets_leave_the_verification(self, topo, monkeypatch):
        # every 7th target is rejected and every 11th other one infeasible;
        # the residual covers the inverted targets only
        def fail(i):
            if i % 7 == 0:
                raise NotRealizable(None)
            if i % 11 == 0:
                raise InternalInfeasible("injected")

        calls, samples = [], 300
        monkeypatch.setitem(INVERTERS, topo.kind, recording(topo.kind, calls, fail))
        report = roundtrip_suite(topo, SamplerConfig(seed=3, samples=samples))
        rejected = samples // 7
        infeasible = samples // 11 - samples // 77
        kept = [(target, sol) for target, sol in calls if sol is not None]
        assert len(calls) == samples
        assert report.not_realizable_count == rejected
        assert report.infeasible_count == infeasible
        assert report.inverted == len(kept) == samples - rejected - infeasible
        weights = np.array([sol.weights for _, sol in kept])
        spectra = np.linalg.eigvalsh(build_laplacians(topo, weights))
        want = np.sort(np.array([target for target, _ in kept]), axis=1)
        direct = max(np.abs(spectra[:, 1:] - want).max(), np.abs(spectra[:, 0]).max())
        assert report.max_residual == pytest.approx(direct, abs=1e-13)
        assert report.max_residual <= 1e-8
