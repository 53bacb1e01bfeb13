"""Constructive inverse solvers and the suspension law."""

import dataclasses
import itertools
import math
import pickle
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from lapreal import forward_spectrum
from lapreal.graphs import FOUR_VERTEX_KINDS, KITE, PATH4, STAR, build_laplacian, complete
from lapreal import inverse
from lapreal.inverse import (
    INVERTERS,
    InternalInfeasible,
    NotRealizable,
    invert_complete,
    invert_cycle,
    invert_kite,
    invert_path,
    invert_star,
    suspend_spectrum,
)
from lapreal.jacobi import spectrum_numeric
from lapreal.realizability import CHECKS, Certificate, check_star

SQRT2 = math.sqrt(2.0)


def roundtrip_residual(solution, target):
    spec = spectrum_numeric(build_laplacian(solution.topology, solution.weights))
    want = np.sort(np.concatenate(([0.0], target)))
    return float(np.max(np.abs(spec - want)))


@pytest.mark.parametrize("invert", list(INVERTERS.values()))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_target_rejected(invert, bad):
    # invert_kite((inf, 1, 1)) used to end in a ZeroDivisionError
    with pytest.raises(ValueError, match="non-finite"):
        invert((bad, 1.0, 1.0))


@pytest.mark.parametrize("invert", list(INVERTERS.values()))
def test_overflowing_sum_rejected(invert):
    # invert_kite and invert_cycle ended in a ZeroDivisionError here
    with pytest.raises(ValueError, match="sum overflows"):
        invert((1.5e308, 1e308, 4e307))


@pytest.mark.parametrize("invert", [*INVERTERS.values(), invert_complete])
@pytest.mark.parametrize("bad", [None, 5.0, [1.0, None], [1.0, None, 2.0]])
def test_target_that_is_not_numbers_rejected(invert, bad):
    # invert_complete([1, None]) and the four-vertex inverses ended in a TypeError
    with pytest.raises(ValueError):
        invert(bad)


class TestNotRealizable:
    CERT = Certificate("star-length-cubic", -1.5, "length cubic has complex roots")

    @pytest.mark.parametrize("kind", FOUR_VERTEX_KINDS)
    def test_raised_with_kind_and_triple(self, kind):
        triple = (0.3, 0.32, 0.38)
        with pytest.raises(NotRealizable) as info:
            inverse.INVERTERS[kind](triple)
        exc = info.value
        assert exc.args == (None, kind, triple)
        want = CHECKS[kind](triple).certificate
        # pickled before and after the certificate is first read
        for _ in range(2):
            fresh = pickle.loads(pickle.dumps(exc))
            assert fresh.args == exc.args
            assert fresh.certificate == want and str(fresh) == want.detail
            assert exc.certificate == want and str(exc) == want.detail

    def test_one_argument_form(self):
        exc = NotRealizable(self.CERT)
        assert exc.certificate is self.CERT and str(exc) == self.CERT.detail
        fresh = pickle.loads(pickle.dumps(exc))
        assert fresh.certificate == self.CERT and str(fresh) == self.CERT.detail

    def test_without_certificate(self):
        for exc in (NotRealizable(), NotRealizable(None)):
            assert exc.certificate is None and str(exc) == "no three real roots"


@pytest.mark.parametrize("kind", FOUR_VERTEX_KINDS)
def test_power_of_two_scale_agrees_with_check(kind):
    # at 2**k out of range the inverse decides and builds on the same scaled
    # triple as the check, so it succeeds exactly when the check says realizable
    check, invert = CHECKS[kind], inverse.INVERTERS[kind]
    rng = np.random.default_rng([67, len(kind)])
    u = np.sort(rng.random((500, 2)), axis=1)
    triples = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1).tolist()
    for k in (-1000, -500, -200, -100, 100, 200, 500, 1000):
        for triple in triples:
            target = [math.ldexp(v, k) for v in triple]
            try:
                sol = invert(target)
            except NotRealizable:
                assert not check(target).realizable, (k, triple)
                continue
            assert check(target).realizable, (k, triple)
            assert sol.residual <= 1e-8 * sum(target), (k, triple)


class TestInvertStar:
    def test_golden_boundary_triple(self):
        sol = invert_star((1.0, 1.0, 4.0))
        np.testing.assert_allclose(sol.weights, (1.0, 1.0, 1.0), atol=1e-9)
        assert sol.residual <= 1e-9

    def test_zero_target(self):
        sol = invert_star((0.0, 0.0, 0.0))
        assert sol.weights == (0.0, 0.0, 0.0)

    def test_zero_weights_are_positive_zero(self):
        # the length cubic's zero roots used to come back as -0.0
        sol = invert_star((1.0, 0.0, 0.0))
        assert all(math.copysign(1.0, w) > 0 for w in sol.weights)

    def test_equal_triple_rejected(self):
        with pytest.raises(NotRealizable):
            invert_star((1.0, 1.0, 1.0))

    def test_weights_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = rng.uniform(0.0, 4.0, 3)
            target = forward_spectrum(STAR, w)[1:]
            sol = invert_star(target)
            assert min(sol.weights) >= 0.0
            assert roundtrip_residual(sol, target) <= 1e-8


#: star targets near the cusp (1/6, 1/6, 2/3) that the star check rejects
#: and that invert_star used to realize with residuals near 1e-2
STAR_CUSP = (
    (0.1666961228748206, 0.6674384912086027, 0.16586538591657674),
    (0.6665767737105264, 0.1654722754676594, 0.16795095082181422),
    (0.6660769155059063, 0.16406022903301953, 0.16986285546107416),
    (0.17262117898674245, 0.6683029172709266, 0.15907590374233094),
)


def star_band_sample(draws, seed, band=1e-5):
    """Simplex triples with |f1 f2 f3| < band, about the star boundary."""
    rng = np.random.default_rng(seed)
    u = np.sort(rng.random((draws, 2)), axis=1)
    x, y, z = u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]
    f1 = 6 * x * x - 2 * x * y - 2 * x * z + y * z
    f2 = 6 * y * y - 2 * x * y - 2 * y * z + x * z
    f3 = 6 * z * z - 2 * x * z - 2 * y * z + x * y
    keep = np.abs(f1 * f2 * f3) < band
    return list(zip(x[keep].tolist(), y[keep].tolist(), z[keep].tolist()))


class TestStarCheckGate:
    @pytest.mark.parametrize("target", STAR_CUSP)
    def test_cusp_targets_rejected(self, target):
        with pytest.raises(NotRealizable) as exc:
            invert_star(target)
        assert exc.value.certificate.name == "star-discriminant-product"
        assert exc.value.certificate == check_star(target).certificate

    @pytest.mark.parametrize("target", [(0.01, 0.01, 0.01), (1e4, 2e4, 3e4), (3e3, 1e3, 2e3)])
    def test_rejected_away_from_unit_sum(self, target):
        # the length cubic's discriminant band is absolute below sum 1 and
        # grows as sum^9 above it, so these used to come back as weights
        # with residuals of 0.01, 1e4 and 1e3
        assert not check_star(target).realizable
        with pytest.raises(NotRealizable):
            invert_star(target)

    def test_check_and_invert_agree_in_band(self):
        sample = star_band_sample(200_000, seed=3)
        assert len(sample) > 500
        for target in sample:
            try:
                invert_star(target)
                inverted = True
            except NotRealizable:
                inverted = False
            assert inverted == check_star(target).realizable, target


class TestInvertCycle:
    def test_golden_upper_branch(self):
        sol = invert_cycle((5.0, 2.0, 1.0))
        want = ((3.0 + SQRT2) / 2.0, 0.5, (3.0 - SQRT2) / 2.0, 0.5)
        np.testing.assert_allclose(sol.weights, want, atol=1e-9)

    def test_golden_unit_cycle(self):
        sol = invert_cycle((4.0, 2.0, 2.0))
        np.testing.assert_allclose(sol.weights, (1.0, 1.0, 1.0, 1.0), atol=1e-9)

    def test_rejected_below_half_sum(self):
        with pytest.raises(NotRealizable) as exc:
            invert_cycle((3.0, 3.0, 2.0))
        assert exc.value.certificate is not None

    def test_scaling_consistency(self):
        base = invert_cycle((5.0, 2.0, 1.0))
        scaled = invert_cycle((15.0, 6.0, 3.0))
        np.testing.assert_allclose(
            scaled.weights, np.asarray(base.weights) * 3.0, atol=1e-9
        )

    def test_zero_target(self):
        assert invert_cycle((0.0, 0.0, 0.0)).weights == (0.0, 0.0, 0.0, 0.0)

    def test_double_root_weights_are_equal(self):
        # w2 and w4 are the double root t/2 of u^2 - (4 - a)*u + d; solving
        # that quadratic in floats split them in 538 of these 3009 targets
        rng = np.random.default_rng(777)
        u = np.sort(rng.random((4000, 2)), axis=1)
        rows = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1)
        rows *= 10.0 ** rng.uniform(-3.0, 3.0, 4000)[:, None]
        targets = [t for t in map(tuple, rows.tolist()) if CHECKS["cycle"](t).realizable]
        assert len(targets) > 2000
        split = [w for w in (invert_cycle(t).weights for t in targets) if w[1] != w[3]]
        assert split == []


class TestInvertPath:
    def test_golden_unit_path(self):
        sol = invert_path((2.0 + SQRT2, 2.0, 2.0 - SQRT2))
        np.testing.assert_allclose(sol.weights, (1.0, 1.0, 1.0), atol=1e-9)

    def test_degenerate_two_components(self):
        sol = invert_path((3.0, 0.0, 3.0))
        np.testing.assert_allclose(sol.weights, (1.5, 0.0, 1.5), atol=1e-9)

    def test_equal_triple_rejected(self):
        with pytest.raises(NotRealizable):
            invert_path((1.0, 1.0, 1.0))

    def test_forward_targets_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            w = rng.uniform(0.0, 4.0, 3)
            target = forward_spectrum(PATH4, w)[1:]
            sol = invert_path(target)
            assert min(sol.weights) >= 0.0
            assert roundtrip_residual(sol, target) <= 1e-8

    @pytest.mark.parametrize(
        "target",
        [tuple(math.ldexp(v, k) for v in (0.805, 0.00294, 0.192)) for k in (0, -20, -28, -40, -50)]
        + [(7.4972e-10, 2.7361e-12, 1.7887e-10)],
    )
    def test_small_entry_kept_at_small_sums(self, target):
        # the degenerate band was CLAMP_TOL * max(1, f), absolute below f = 1, so
        # once the smallest entry fell under 1e-9 it was taken as 0 and the
        # middle weight dropped: residual/sum 2.9e-3 at 2**-28 and below
        sol = invert_path(target)
        assert sol.weights[1] > 0.0
        assert sol.residual <= 1e-8 * sum(target)


class TestInvertKite:
    def test_golden_instance(self):
        sol = invert_kite((4.0, 3.0, 1.0))
        want = (7.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0, 1.5)
        np.testing.assert_allclose(sol.weights, want, atol=1e-9)

    def test_multiset_input(self):
        a = invert_kite((4.0, 3.0, 1.0))
        b = invert_kite((1.0, 3.0, 4.0))
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)

    def test_equal_triple_rejected(self):
        with pytest.raises(NotRealizable):
            invert_kite((2.0, 2.0, 2.0))

    def test_forward_targets_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            w = rng.uniform(0.0, 4.0, 4)
            target = forward_spectrum(KITE, w)[1:]
            sol = invert_kite(target)
            assert min(sol.weights) >= 0.0
            assert roundtrip_residual(sol, target) <= 1e-8


#: tie targets (a, a, b) whose residual read 1.84e-7, 1.98e-7 and 1.33e-7 when
#: it solved the weights' cubic again, which fixes a double root only to ~1e-8
TIE_TARGETS = [
    ("cycle", (3.9510652226952483, 3.9510652226952483, 8.443311892391831)),
    ("cycle", (4.729679033262876, 4.729679033262876, 9.742566032064998)),
    ("kite", (4.4572209118711354, 4.4572209118711354, 1.0348407595126403)),
]


def tie_targets(kind, draws):
    """Seeded realizable ties (a, a, b) in every order, b/a in 1e-2..1e2, over scales 1e-3..1e3."""
    rng = np.random.default_rng([41, ("cycle", "kite").index(kind)])
    ratio = 10.0 ** rng.uniform(-2.0, 2.0, draws)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, draws)
    slot = rng.integers(0, 3, draws)
    targets = []
    for b, a, k in zip((ratio * scale).tolist(), scale.tolist(), slot.tolist()):
        target = [a, a]
        target.insert(k, b)
        if CHECKS[kind](target).realizable:
            targets.append(tuple(target))
    return targets


class TestTieResidual:
    """At a double target eigenvalue the residual reads the weights' true error."""

    @pytest.mark.parametrize("kind, target", TIE_TARGETS)
    def test_reproducer(self, kind, target):
        sol = INVERTERS[kind](target)
        assert sol.residual <= 1e-8 * max(1.0, sum(target))
        assert sol.residual.hex() == roundtrip_residual(sol, target).hex()

    @pytest.mark.parametrize("kind, draws", [("cycle", 12000), ("kite", 4000)])
    def test_seeded_ties(self, kind, draws):
        # 1 cycle and 10 kite residuals of these sweeps read above the bound
        # when the residual solved the weights' cubic again
        targets = tie_targets(kind, draws)
        assert len(targets) > 2000
        over = [t for t in targets if INVERTERS[kind](t).residual > 1e-8 * max(1.0, sum(t))]
        assert over == []


class TestSuspendSpectrum:
    def test_k2_to_k3(self):
        np.testing.assert_allclose(
            suspend_spectrum([0.0, 2.0], 1.0), [0.0, 3.0, 3.0], atol=1e-12
        )

    def test_k3_to_k4(self):
        np.testing.assert_allclose(
            suspend_spectrum([0.0, 3.0, 3.0], 1.0), [0.0, 4.0, 4.0, 4.0], atol=1e-12
        )

    def test_zero_weight_appends_zero(self):
        spec = [0.0, 1.0, 2.5, 4.0]
        out = suspend_spectrum(spec, 0.0)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 2.5, 4.0], atol=1e-12)

    def test_rejects_non_laplacian_spectrum(self):
        with pytest.raises(ValueError):
            suspend_spectrum([1.0, 2.0], 1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            suspend_spectrum([0.0, 2.0], -1.0)

    def test_rejects_negative_entry(self):
        # -5 was taken as the zero eigenvalue: [-5, 3] with c = 1 gave [0, 3, 4]
        with pytest.raises(ValueError, match="negative"):
            suspend_spectrum([-5.0, 3.0], 1.0)
        with pytest.raises(ValueError, match="negative"):
            suspend_spectrum([0.0, -1e-3, 3.0], 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        # [0, nan] with c = 1 gave a NaN spectrum
        with pytest.raises(ValueError, match="non-finite"):
            suspend_spectrum([0.0, bad], 1.0)

    def test_rejects_overflow(self):
        # [0, 1e308] with c = 1e308 gave [0, inf, inf] and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                suspend_spectrum([0.0, 1e308], 1e308)
            with pytest.raises(ValueError, match="overflows"):
                suspend_spectrum([0.0, 1.0, 1.0], 1e308)

    @pytest.mark.parametrize("exponent", range(-300, 301, 50))
    def test_zero_band_is_scale_free(self, exponent):
        # the band was an absolute 1e-9: [2e-10, 4e-10] passed, [2, 4] did not
        scale = 10.0**exponent
        with pytest.raises(ValueError, match="not a zero eigenvalue"):
            suspend_spectrum([2.0 * scale, 4.0 * scale], 0.0)
        # a roundoff zero, of either sign, passes at every scale
        for tiny in (1e-12, -1e-12):
            out = suspend_spectrum([tiny * scale, 2.0 * scale], scale)
            np.testing.assert_allclose(out, np.array([0.0, 3.0, 3.0]) * scale, rtol=1e-12)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, c):
        # used to return a spectrum of NaN or inf entries
        with pytest.raises(ValueError, match="finite"):
            suspend_spectrum([0.0, 2.0], c)


class TestInvertComplete:
    def test_golden_k4(self):
        sol = invert_complete((6.0, 3.0, 2.0))
        # K2 core weight 7/3; K3 extension edges 5/6; K4 extension edges 1/2
        want = (7.0 / 3.0, 5.0 / 6.0, 0.5, 5.0 / 6.0, 0.5, 0.5)
        np.testing.assert_allclose(sol.weights, want, atol=1e-12)
        assert sol.residual <= 1e-9

    def test_k2_base_case(self):
        sol = invert_complete((5.0,))
        assert sol.weights == (2.5,)

    def test_zero_tuple(self):
        sol = invert_complete((0.0, 0.0, 0.0))
        assert sol.weights == (0.0,) * 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            invert_complete((1.0, -1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN used to fail deep inside with "matrix is not symmetric"
        with pytest.raises(ValueError, match="non-finite"):
            invert_complete((bad, 1.0, 1.0))

    def test_scale_1e160(self):
        # the Jacobi convergence scale overflowed and the residual was 2.3e160
        target = (6e160, 3e160, 2e160)
        sol = invert_complete(target)
        assert sol.residual <= 1e-8 * sum(target)

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # a spectrum that misses the target must not come back as realizable
        monkeypatch.setattr(inverse, "spectrum_numeric", lambda lap: np.sort(np.diag(lap)))
        with pytest.raises(InternalInfeasible, match="residual"):
            invert_complete((6.0, 3.0, 2.0))

    def test_residual_computed_in_the_call(self, monkeypatch):
        # the residual gate needs it, so it is computed before the return
        calls = []
        original = inverse.spectrum_numeric
        monkeypatch.setattr(inverse, "spectrum_numeric", lambda lap: calls.append(lap) or original(lap))
        sol = invert_complete((6.0, 3.0, 2.0))
        assert len(calls) == 1
        assert sol.residual <= 1e-8
        assert len(calls) == 1

    def test_larger_orders(self):
        rng = np.random.default_rng(29)
        for n in range(1, 11):
            target = rng.uniform(0.0, 4.0, n)
            sol = invert_complete(target)
            assert sol.topology.order == n + 1
            assert min(sol.weights) >= 0.0
            assert sol.residual <= 1e-7

    def test_weights_match_the_recursive_construction(self):
        # seeded targets in every order (two orders past n = 4), with zeros, -0.0, ties
        # and scales 2**+-40
        rng = random.Random(61)
        seen = set()
        for n in range(1, 61):
            for shape in ("plain", "zeros", "ties", "both", "all zero"):
                values = [rng.uniform(0.0, 4.0) for _ in range(n)]
                if shape in ("zeros", "both", "all zero"):
                    zeros = n if shape == "all zero" else rng.randint(1, n)
                    for i in rng.sample(range(n), zeros):
                        values[i] = rng.choice((0.0, -0.0))
                if shape in ("ties", "both") and n > 1:
                    values = [rng.choice(values[: max(1, n // 3)]) for _ in values]
                scale = rng.choice((2.0**-40, 1.0, 2.0**40))
                target = [v * scale for v in values]
                orders = itertools.permutations(target) if n <= 4 else [target, target[::-1]]
                for order in orders:
                    got = [w.hex() for w in invert_complete(order).weights]
                    assert got == recursive_complete_weights(order), order
                    seen.update(got)
        assert "-0x0.0p+0" in seen and "0x0.0p+0" in seen

    def test_memory_is_quadratic(self):
        # the recursion kept an (m+1)x(m+1) matrix alive per level: 175 MB at 400 entries
        target = np.random.default_rng(400).uniform(0.0, 4.0, 400)
        tracemalloc.start()
        try:
            invert_complete(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def recursive_complete_weights(target):
    """Hex weights of the recursive nested suspensions ``invert_complete`` replaced."""

    def weight_matrix(lams_desc):
        m = len(lams_desc)
        w = np.zeros((m + 1, m + 1))
        if m == 1:
            w[0, 1] = w[1, 0] = lams_desc[0] / 2.0
            return w
        smallest = lams_desc[-1]
        if smallest <= 0.0:
            c = 0.0
            core_targets = lams_desc[:-1]
        else:
            c = smallest / (m + 1)
            core_targets = [max(v - c, 0.0) for v in lams_desc[:-1]]
        w[:m, :m] = weight_matrix(core_targets)
        w[:m, m] = c
        w[m, :m] = c
        return w

    w = weight_matrix(sorted(map(float, target), reverse=True))
    return [float(w[i, j]).hex() for i, j in complete(len(target) + 1).edges]


INVERTERS_AND_TARGETS = [
    (invert_star, (1.0, 1.0, 4.0)),
    (invert_cycle, (5.0, 2.0, 1.0)),
    (invert_path, (2.0 + SQRT2, 2.0, 2.0 - SQRT2)),
    (invert_kite, (4.0, 3.0, 1.0)),
]


def field_by_field(solution):
    # what the frozen dataclass's generated __init__ does: one object.__setattr__ per field
    twin = object.__new__(inverse.InverseSolution)
    for field in dataclasses.fields(inverse.InverseSolution):
        object.__setattr__(twin, field.name, getattr(solution, field.name))
    return twin


@pytest.mark.parametrize("invert, target", INVERTERS_AND_TARGETS)
class TestInverseSolutionValue:
    def test_frozen(self, invert, target):
        sol = invert(target)
        for name in ("topology", "weights", "target", "residual"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sol, name, None)
        assert sol.target == target

    def test_equal_and_hash_as_built_field_by_field(self, invert, target):
        sol = invert(target)
        twin = field_by_field(sol)
        assert sol == twin and hash(sol) == hash(twin)
        assert sol == invert(target) and hash(sol) == hash(invert(target))
        assert sol != dataclasses.replace(sol, target=(0.0, 0.0, 0.0))

    def test_pickles(self, invert, target):
        # computing the residual once on first read is test_float_path's
        # test_residual_computed_once_on_first_read
        sol = invert(target)
        fresh = pickle.loads(pickle.dumps(sol))
        assert fresh == sol and hash(fresh) == hash(sol)
        assert fresh.residual.hex() == sol.residual.hex()
        # once read, the cached residual travels along
        assert pickle.loads(pickle.dumps(sol)).__dict__ == sol.__dict__


class TestClampNonneg:
    def test_positive_values_pass_unchanged(self):
        values = (1e-300, 2.0, 3.5)
        assert inverse._clamp_nonneg(values) is values

    def test_exact_zero_stays(self):
        assert inverse._clamp_nonneg((0.0, 1.0, 2.0)) == (0.0, 1.0, 2.0)

    def test_negative_zero_becomes_positive_zero(self):
        for values in ((-0.0, 1.0, 2.0), (1.0, 2.0, -0.0)):
            out = inverse._clamp_nonneg(values)
            assert [math.copysign(1.0, v) for v in out] == [1.0, 1.0, 1.0]
            assert "-0" not in repr(out)

    def test_negative_inside_band_becomes_zero(self):
        band = inverse.CLAMP_TOL
        assert inverse._clamp_nonneg((1.0, -0.5 * band, 2.0)) == (1.0, 0.0, 2.0)
        assert inverse._clamp_nonneg((-band, 1.0)) == (0.0, 1.0)
        # the band scales with max(1, scale)
        assert inverse._clamp_nonneg((1.0, -50.0 * band), scale=100.0) == (1.0, 0.0)

    def test_negative_beyond_band_raises(self):
        band = inverse.CLAMP_TOL
        with pytest.raises(InternalInfeasible, match="beyond clamp band"):
            inverse._clamp_nonneg((1.0, -2.0 * band, 2.0))
        with pytest.raises(InternalInfeasible):
            inverse._clamp_nonneg((1.0, -200.0 * band), scale=100.0)

    def test_nan_passes_through(self):
        for values in ((math.nan, 1.0), (1.0, math.nan), (math.nan, -0.0)):
            out = inverse._clamp_nonneg(values)
            assert [math.isnan(v) for v in out] == [math.isnan(v) for v in values]
