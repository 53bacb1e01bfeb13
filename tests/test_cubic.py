"""Closed-form cubics and the three-real-root solver."""

import math
import re

import numpy as np
import pytest

from lapreal import forward_spectrum
from lapreal.cubic import (
    COEFFS,
    ZERO_CLAMP,
    CubicCoeffs,
    NoThreeRealRoots,
    _depressed,
    cubic_discriminant,
    cubic_real_roots,
    laplacian_cubic_roots,
    laplacian_cubic_roots_batch,
    reduced_cubic,
    reduced_cubic_batch,
    solve_cubic_real,
    solve_cubic_real_batch,
)
from lapreal.graphs import CYCLE4, FOUR_VERTEX_KINDS, KITE, PATH4, STAR, Topology
from lapreal.graphs import build_laplacian, build_laplacians, complete

FOUR = list(map(Topology, FOUR_VERTEX_KINDS))


class TestReducedCubic:
    def test_unit_star(self):
        c = reduced_cubic(STAR, (1.0, 1.0, 1.0))
        assert (c.p2, c.p1, c.p0) == (-6.0, 9.0, -4.0)

    def test_unit_cycle(self):
        c = reduced_cubic(CYCLE4, (1.0, 1.0, 1.0, 1.0))
        assert (c.p2, c.p1, c.p0) == (-8.0, 20.0, -16.0)

    def test_unit_kite(self):
        c = reduced_cubic(KITE, (1.0, 1.0, 1.0, 1.0))
        assert (c.p2, c.p1, c.p0) == (-8.0, 19.0, -12.0)

    def test_path_equals_cycle_with_zero_edge(self):
        w = (0.8, 1.7, 0.4)
        cp = reduced_cubic(PATH4, w)
        cc = reduced_cubic(CYCLE4, (0.0,) + w)
        assert (cp.p2, cp.p1, cp.p0) == (cc.p2, cc.p1, cc.p0)

    def test_complete_unsupported(self):
        with pytest.raises(ValueError):
            reduced_cubic(complete(4), [1.0] * 6)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 4.0, (40, 4))
        p2, p1, p0 = reduced_cubic_batch(CYCLE4, rows)
        for k, row in enumerate(rows):
            c = reduced_cubic(CYCLE4, row)
            assert (p2[k], p1[k], p0[k]) == (c.p2, c.p1, c.p0)


class TestSolveCubicReal:
    def test_known_factorization(self):
        # lambda^3 - 6 lambda^2 + 9 lambda - 4 = (lambda-1)^2 (lambda-4)
        roots = solve_cubic_real(CubicCoeffs(-6.0, 9.0, -4.0))
        np.testing.assert_allclose(roots, (1.0, 1.0, 4.0), atol=1e-12)

    def test_triple_root_at_zero(self):
        assert solve_cubic_real(CubicCoeffs(0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_complex_pair_rejected(self):
        with pytest.raises(NoThreeRealRoots):
            solve_cubic_real(CubicCoeffs(0.0, 1.0, 0.0))

    def test_distinct_roots(self):
        # (lambda-1)(lambda-3)(lambda-4)
        roots = solve_cubic_real(CubicCoeffs(-8.0, 19.0, -12.0))
        np.testing.assert_allclose(roots, (1.0, 3.0, 4.0), atol=1e-12)

    def test_double_root_precision(self):
        # the unit cycle cubic (lambda-2)^2 (lambda-4): double roots are where
        # the trigonometric formula alone loses half the mantissa
        roots = solve_cubic_real(CubicCoeffs(-8.0, 20.0, -16.0))
        np.testing.assert_allclose(roots, (2.0, 2.0, 4.0), atol=1e-12)

    def test_random_products_of_linear_factors(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            r = np.sort(rng.uniform(0.0, 10.0, 3))
            p2 = -r.sum()
            p1 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
            p0 = -r.prod()
            got = solve_cubic_real(CubicCoeffs(p2, p1, p0))
            np.testing.assert_allclose(got, r, atol=1e-8)

    def test_accuracy_large_coefficients(self):
        # roots within 1e-10 for coefficient magnitudes up to 1e3
        roots = (2.0, 500.0, 997.0)
        p2 = -sum(roots)
        p1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        p0 = -roots[0] * roots[1] * roots[2]
        got = solve_cubic_real(CubicCoeffs(p2, p1, p0))
        np.testing.assert_allclose(got, roots, atol=1e-10 * max(roots))


class TestCubicRealRoots:
    def test_single_real_root(self):
        roots = cubic_real_roots(0.0, 1.0, 0.0)
        assert len(roots) == 1
        np.testing.assert_allclose(roots[0], 0.0, atol=1e-12)

    def test_shifted_cardano_branch(self):
        # (lambda - 2)(lambda^2 + 1): only real root is 2
        roots = cubic_real_roots(-2.0, 1.0, -2.0)
        assert len(roots) == 1
        np.testing.assert_allclose(roots[0], 2.0, atol=1e-12)

    @pytest.mark.parametrize("root", [1e-4, -3.0])
    def test_cardano_root_of_either_sign(self, root):
        # (lambda - root)(lambda^2 + 1); for a small root the two cube roots
        # of Cardano's sum nearly cancel
        assert cubic_real_roots(-root, 1.0, -root) == pytest.approx([root], rel=1e-15)


class TestDiscriminant:
    def test_zero_at_double_root(self):
        assert cubic_discriminant(-6.0, 9.0, -4.0) == 0.0

    def test_positive_for_distinct_real(self):
        assert cubic_discriminant(-8.0, 19.0, -12.0) > 0.0

    def test_negative_for_complex_pair(self):
        assert cubic_discriminant(0.0, 1.0, 0.0) < 0.0


class TestLaplacianCubicRoots:
    def test_clamps_tiny_negative(self):
        # (lambda + 5e-10)(lambda - 1)(lambda - 2): the slightly negative
        # root is roundoff-scale and must come back as exactly 0
        r = (-5e-10, 1.0, 2.0)
        coeffs = CubicCoeffs(
            -(r[0] + r[1] + r[2]),
            r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
            -r[0] * r[1] * r[2],
        )
        got = laplacian_cubic_roots(coeffs)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], (1.0, 2.0), atol=1e-9)

    def test_unit_star_roots(self):
        got = laplacian_cubic_roots(reduced_cubic(STAR, (1.0, 1.0, 1.0)))
        np.testing.assert_allclose(got, (1.0, 1.0, 4.0), atol=1e-12)


class TestBatchSolver:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(23)
        rows = rng.uniform(0.0, 4.0, (200, 4))
        p2, p1, p0 = reduced_cubic_batch(KITE, rows)
        batch = solve_cubic_real_batch(p2, p1, p0)
        for k in range(rows.shape[0]):
            scalar = solve_cubic_real(CubicCoeffs(p2[k], p1[k], p0[k]))
            np.testing.assert_allclose(batch[k], scalar, atol=1e-10)

    def test_strict_raises_on_complex_row(self):
        with pytest.raises(NoThreeRealRoots):
            solve_cubic_real_batch([0.0], [1.0], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        # a NaN row used to come back as NaN roots; row 0 is the unit star's cubic
        with pytest.raises(ValueError, match="row 1: non-finite coefficient p2"):
            solve_cubic_real_batch([-6.0, bad], [9.0, 3.0], [-4.0, -1.0])


class TestLaplacianCubicRootsBatch:
    @pytest.mark.parametrize("topo", FOUR)
    def test_clamps_as_the_scalar_route_does(self, topo):
        rng = np.random.default_rng([37, topo.edge_count])
        w = rng.uniform(0.0, 4.0, (300, topo.edge_count))
        w[rng.random(w.shape) < 0.3] = 0.0
        roots, e = laplacian_cubic_roots_batch(topo, w)
        assert not e.any() and roots.min() >= 0.0
        raw = solve_cubic_real_batch(*reduced_cubic_batch(topo, w))
        assert np.array_equal(roots, np.where((raw < 0.0) & (raw > -ZERO_CLAMP), 0.0, raw))
        for row, got in zip(w, roots):
            np.testing.assert_allclose(got, laplacian_cubic_roots(reduced_cubic(topo, row)), atol=1e-12)

    @pytest.mark.parametrize(
        "row, message",
        [((-1.0, 1.0, 1.0), "negative edge weight"), ((np.nan, 1.0, 1.0), "non-finite edge weight nan")],
    )
    def test_rejects_bad_weight(self, row, message):
        # the star's (-1, 1, 1) gave a "spectrum" with -1.56 (and the
        # coefficients of a cubic that no Laplacian has), and a NaN was
        # reported as "non-finite coefficient p2"
        for batch in (laplacian_cubic_roots_batch, reduced_cubic_batch):
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                batch(STAR, [[1.0, 1.0, 1.0], row])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=re.escape("expected shape (batch, 3), got (4,)")):
            laplacian_cubic_roots_batch(STAR, [1.0, 1.0, 1.0, 1.0])


def scalar_kernel(c):
    return np.array(solve_cubic_real(c))


def batch_kernel(c):
    return solve_cubic_real_batch([c.p2], [c.p1], [c.p0])[0]


@pytest.mark.parametrize("solve", [scalar_kernel, batch_kernel], ids=["scalar", "batch"])
class TestOutlierKernel:
    """Each branch of the outlier root, its Newton step and the deflated pair."""

    @pytest.mark.parametrize(
        "topology, weights, q_sign, cardano",
        [
            pytest.param(STAR, (0.3, 0.3, 0.7), -1.0, False, id="largest"),
            pytest.param(CYCLE4, (0.1, 0.7, 0.1, 0.7), 1.0, False, id="smallest"),
            # a double root where roundoff makes h = 1.8e-15 > 0: Cardano, then sigma/2 twice
            pytest.param(STAR, (1.0724610869304878,) * 3, -1.0, True, id="cardano"),
        ],
    )
    def test_against_eigvalsh(self, solve, topology, weights, q_sign, cardano):
        c = reduced_cubic(topology, weights)
        _, q, h, _ = _depressed(c.p2, c.p1, c.p0)
        assert (math.copysign(1.0, q), h > 0.0) == (q_sign, cardano)
        want = np.linalg.eigvalsh(build_laplacian(topology, weights))[1:]
        assert np.abs(solve(c) - want).max() <= 1e-12 * want[-1]

    @pytest.mark.parametrize("root", [0.0, 2.0, 3.0])
    def test_triple_root(self, solve, root):
        c = CubicCoeffs(-3.0 * root, 3.0 * root * root, -(root**3))
        assert solve(c).tolist() == [root] * 3

    def test_zero_outlier(self, solve):
        # the cubic's zero root is its outlier, so r is ~1e-32 and -p0/r would
        # give the pair as (-0, 2.2237); the pair is 2*w4 and 2*w1
        weights = (0.5559490693467734, 0.0, 0.0, 0.5559213528131506)
        got = solve(reduced_cubic(KITE, weights))
        want = np.linalg.eigvalsh(build_laplacian(KITE, weights))[1:]
        assert abs(got[0]) <= 1e-15
        np.testing.assert_allclose(got[1:], (1.11184270, 1.11189813), rtol=1e-8)
        # the pair is 5.5e-5 apart, so the rounding of p1 = 4*w1*w4 alone moves
        # its exact roots 6.7e-12 from eigvalsh's: the float cubic's limit
        assert np.abs(got - want).max() <= 1e-11 * want[-1]


def test_seeded_laplacian_roots_match_eigvalsh():
    # 1.06e-8 of the largest root (6.5e-14 now) when each of the three
    # trigonometric roots was polished on its own and a close pair re-solved
    rng = np.random.default_rng(36)
    worst = 0.0
    for topology in FOUR:
        for scale in (1e-3, 1.0, 1e3):
            w = rng.random((500, topology.edge_count)) * scale
            w[rng.random(w.shape) < 0.2] = 0.0
            coeffs = COEFFS[topology.kind](*w.T)
            want = np.linalg.eigvalsh(build_laplacians(topology, w))[:, 1:]
            top = want[:, 2:]
            got = solve_cubic_real_batch(*coeffs)
            scalar = [solve_cubic_real(CubicCoeffs(*c)) for c in zip(*(p.tolist() for p in coeffs))]
            for roots in (got, np.array(scalar)):
                worst = max(worst, (np.abs(roots - want) / np.where(top > 0.0, top, 1.0)).max())
    assert worst <= 1e-11


class TestForwardSpectrumScale:
    # weights whose largest entry is outside [2**-60, 2**60] are solved at
    # an exact power-of-two rescaling; the cycle at 1e40 used to overflow in
    # the discriminant band and the star at 1e-120 to divide by zero
    @pytest.mark.parametrize("topo", FOUR)
    @pytest.mark.parametrize("scale", [1e-150, 1e-120, 1e-60, 1e-20, 1e20, 1e40, 1e100, 1e150])
    def test_matches_eigvalsh_outside_native_range(self, topo, scale):
        rng = np.random.default_rng([11, topo.edge_count])
        for w in rng.uniform(0.0, 4.0, (20, topo.edge_count)) * scale:
            got = forward_spectrum(topo, w)
            want = np.linalg.eigvalsh(build_laplacian(topo, w))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("topo", FOUR)
    def test_unchanged_inside_native_range(self, topo):
        rng = np.random.default_rng([12, topo.edge_count])
        for scale in (2.0**-60, 1e-9, 1.0, 1e9, 2.0**60):
            for w in rng.uniform(0.0, 1.0, (20, topo.edge_count)) * scale:
                w[np.argmax(w)] = scale
                roots = laplacian_cubic_roots(reduced_cubic(topo, w))
                want = np.sort(np.concatenate(([0.0], roots)))
                assert np.array_equal(forward_spectrum(topo, w), want)

    @pytest.mark.parametrize("topo", FOUR)
    @pytest.mark.parametrize("k", [-400, -61, 61, 400])
    def test_power_of_two_scale_keeps_the_bits(self, topo, k):
        # 2**k * w is solved at w itself, its unit_scaled form, and its
        # roots are ldexp'd back: the spectrum is exactly 2**k times w's
        rng = np.random.default_rng([13, topo.edge_count, k + 500])
        for w in rng.uniform(0.0, 0.75, (200, topo.edge_count)):
            w[np.argmax(w)] = 0.75
            got = forward_spectrum(topo, np.ldexp(w, k))
            assert got.tobytes() == np.ldexp(forward_spectrum(topo, w), k).tobytes()

    def test_overflowing_spectrum_rejected(self):
        message = "spectrum of star weights (1e+308, 1e+308, 1e+308) overflows the float range"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            forward_spectrum(STAR, [1e308] * 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # forward_spectrum(STAR, [nan, 1, 1]) used to return a NaN spectrum
        for topo, w in ((STAR, [bad, 1.0, 1.0]), (complete(4), [1.0] * 5 + [bad])):
            with pytest.raises(ValueError, match="non-finite"):
                forward_spectrum(topo, w)
