"""Closed-form realizability predicates."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapreal import realizability
from lapreal.realizability import (
    CHECKS,
    MASKS,
    Verdict,
    check_complete,
    check_cycle,
    check_kite,
    check_path,
    check_star,
    cycle_mask,
    kite_mask,
)

ALL_CHECKS = list(CHECKS.values())

#: exponents k of the exact scales 2**k, out of range of graphs.unit_scaled
POWERS = (-1000, -500, -200, -100, 100, 200, 500, 1000)

# zero is a legal eigenvalue; subnormals are excluded because scaling them
# underflows and flips boundary verdicts for reasons unrelated to the criteria
nonneg = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
)


class TestCheckStar:
    def test_boundary_triple(self):
        # first factor 6 - 2 - 8 + 4 = 0, so the product vanishes
        assert check_star((1.0, 1.0, 4.0)).realizable

    def test_equal_triple_rejected(self):
        verdict = check_star((1.0, 1.0, 1.0))
        assert not verdict.realizable
        assert verdict.certificate is not None
        assert verdict.certificate.value == pytest.approx(27.0)

    def test_zero_triple(self):
        assert check_star((0.0, 0.0, 0.0)).realizable

    def test_arity_and_sign(self):
        with pytest.raises(ValueError):
            check_star((1.0, 2.0))
        with pytest.raises(ValueError):
            check_star((1.0, -1.0, 2.0))


@pytest.mark.parametrize("check", ALL_CHECKS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_triple_rejected(check, bad):
    # a NaN entry used to give a confident realizable=false
    with pytest.raises(ValueError, match="non-finite"):
        check((bad, 1.0, 1.0))


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_overflowing_sum_rejected(check):
    # the cycle criterion's sum overflowed to inf, so check_cycle said
    # realizable=False with "max < half-sum (1.5e+308 < inf)"
    with pytest.raises(ValueError, match="sum overflows"):
        check((1.5e308, 1e308, 4e307))


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_overflowing_sum_keeps_entry_messages(check):
    with pytest.raises(ValueError, match="negative"):
        check((1.5e308, 1e308, -1.0))
    with pytest.raises(ValueError, match="non-finite"):
        check((1.5e308, math.nan, -1.0))


class TestCheckCycle:
    def test_half_sum_boundary(self):
        assert check_cycle((4.0, 2.0, 2.0)).realizable

    def test_below_half_sum(self):
        verdict = check_cycle((3.0, 3.0, 2.0))
        assert not verdict.realizable
        assert verdict.certificate.detail == "max < half-sum (3 < 4)"

    def test_axis_point(self):
        assert check_cycle((5.0, 0.0, 0.0)).realizable


class TestCheckPath:
    def test_unit_path_spectrum(self):
        s2 = math.sqrt(2.0)
        assert check_path((2.0 + s2, 2.0, 2.0 - s2)).realizable

    def test_equal_triple_fails_cycle_condition(self):
        verdict = check_path((1.0, 1.0, 1.0))
        assert not verdict.realizable
        assert verdict.certificate.name == "cycle-max-halfsum"

    def test_two_component_degenerate(self):
        for x in (0.3, 1.0, 7.5):
            assert check_path((x, 0.0, x)).realizable

    def test_cycle_condition_decides_before_the_cubic(self):
        # the squared cubic overflows here; the cycle condition alone rejects
        verdict = check_path((1e300, 1e300, 1e300))
        assert verdict.certificate.name == "cycle-max-halfsum"

    def test_cycle_ok_but_cubic_bound_fails(self):
        verdict = check_path((5.0, 2.4, 2.6))
        assert not verdict.realizable
        assert verdict.certificate.name == "path-squared-cubic"


class TestCheckKite:
    def test_hand_evaluated_accept(self):
        # sqrt(3)*|4-1| = 5.196... >= 5
        assert check_kite((4.0, 3.0, 1.0)).realizable

    def test_equal_triple_rejected(self):
        assert not check_kite((2.0, 2.0, 2.0)).realizable

    def test_equivalent_min_max_form(self):
        # the three-disjunct form agrees with max >= (2+sqrt(3))*min
        rng = np.random.default_rng(43)
        ratio = 2.0 + math.sqrt(3.0)
        x, y, z = rng.uniform(0.0, 5.0, (3, 100000))
        got = kite_mask(x, y, z, tol=0.0)
        lo = np.minimum(np.minimum(x, y), z)
        hi = np.maximum(np.maximum(x, y), z)
        want = hi >= ratio * lo
        # exact agreement away from the boundary band
        band = np.abs(hi - ratio * lo) < 1e-9 * (x + y + z)
        assert np.array_equal(got[~band], want[~band])


@pytest.mark.parametrize("check", ALL_CHECKS)
@pytest.mark.parametrize("bad", [None, 5.0, [1.0, None, 2.0], [1.0, "x", 2.0]])
def test_target_that_is_not_numbers_rejected(check, bad):
    # None, a bare number and a None entry ended in a TypeError
    with pytest.raises(ValueError):
        check(bad)


@pytest.mark.parametrize("bad", [None, 5.0, [1.0, None]])
def test_complete_target_that_is_not_numbers_rejected(bad):
    with pytest.raises(ValueError):
        check_complete(bad, 3)


def rejected(check, k):
    # one rejected triple of every check, times 2**k; out of range, the certificate carries the scale
    return check([math.ldexp(v, k) for v in (0.3, 0.32, 0.38)])


@pytest.mark.parametrize("check", ALL_CHECKS)
@pytest.mark.parametrize("k", [0, 200])
class TestVerdictValue:
    def test_lazy_rejection_equals_eager(self, check, k):
        eager = Verdict(False, rejected(check, k).certificate)
        lazy = rejected(check, k)
        assert "certificate" not in vars(lazy)
        assert lazy == eager and eager == rejected(check, k)
        assert hash(rejected(check, k)) == hash(eager)
        assert repr(rejected(check, k)) == repr(eager)
        assert ("at scale 2**" in eager.certificate.detail) == (k != 0)
        assert lazy != Verdict(False) and lazy != realizability._REALIZABLE

    def test_frozen(self, check, k):
        for verdict in (rejected(check, k), Verdict(False, rejected(check, k).certificate)):
            for _ in range(2):  # before and after the certificate is read
                for name in ("realizable", "certificate"):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(verdict, name, None)
                assert verdict.certificate is not None

    def test_pickles_with_its_certificate(self, check, k):
        want = rejected(check, k).certificate
        for verdict in (rejected(check, k), Verdict(False, want)):
            fresh = pickle.loads(pickle.dumps(verdict))
            assert type(fresh) is Verdict and vars(fresh) == {"realizable": False, "certificate": want}
            assert fresh == verdict and hash(fresh) == hash(verdict)

    def test_other_attributes_missing(self, check, k):
        verdict = rejected(check, k)
        # only the certificate is built on demand; any other missing name is an AttributeError
        assert not hasattr(verdict, "detail")
        verdict.certificate
        assert set(vars(verdict)) == {"realizable", "certificate"}
        assert dataclasses.replace(verdict, realizable=True) == Verdict(True, verdict.certificate)


def test_realizable_verdicts_are_shared():
    assert Verdict(True) == realizability._REALIZABLE and Verdict(True).certificate is None
    assert check_complete((6.0, 3.0, 2.0), 4) is realizability._REALIZABLE
    for check in ALL_CHECKS:
        assert check((0.0, 0.0, 0.0)) is realizability._REALIZABLE


class TestCheckComplete:
    def test_always_realizable(self):
        assert check_complete((1.0, 1.0, 1.0), 4).realizable
        assert check_complete((0.0, 0.0, 0.0), 4).realizable
        assert check_complete((6.0, 3.0, 2.0), 4).realizable

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            check_complete((1.0, 1.0), 4)

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            check_complete((1.0, -1.0, 2.0), 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        # NaN and inf used to pass with realizable=True
        with pytest.raises(ValueError, match="non-finite"):
            check_complete((bad, 1.0, 1.0), 4)
        with pytest.raises(ValueError, match="non-finite"):
            check_complete((1.0, bad), 3)


class TestInvariance:
    @given(nonneg, nonneg, nonneg)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_permutation_invariance(self, x, y, z):
        for check in ALL_CHECKS:
            verdicts = {
                check(perm).realizable for perm in itertools.permutations((x, y, z))
            }
            assert len(verdicts) == 1

    @given(
        nonneg, nonneg, nonneg,
        st.sampled_from([0.1, 1.0, 7.0] + [2.0**k for k in POWERS]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_scale_invariance(self, x, y, z, t):
        triple = (x, y, z)
        scaled = (t * x, t * y, t * z)
        for check in ALL_CHECKS:
            assert check(triple).realizable == check(scaled).realizable

    def test_power_of_two_scale_keeps_verdict_and_certificate(self):
        rng = np.random.default_rng(61)
        u = np.sort(rng.random((4000, 2)), axis=1)
        triples = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1).tolist()
        for triple in triples:
            wants = [check(triple) for check in ALL_CHECKS]
            for k in POWERS:
                scaled = [math.ldexp(v, k) for v in triple]
                if [math.ldexp(v, -k) for v in scaled] != triple:
                    continue  # an entry left the normal range
                for check, want in zip(ALL_CHECKS, wants):
                    got = check(scaled)
                    assert got.realizable == want.realizable, (check.__name__, k, triple)
                    if not want.realizable:
                        assert got.certificate.name == want.certificate.name

    def test_inclusion_chain(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            triple = tuple(rng.uniform(0.0, 4.0, 3))
            if check_path(triple).realizable:
                assert check_cycle(triple).realizable
                assert check_kite(triple).realizable
            if check_star(triple).realizable:
                assert check_kite(triple).realizable


#: the certificate each check's own inequality names
KIND_CERTIFICATE = {
    "star": "star-discriminant-product",
    "cycle": "cycle-max-halfsum",
    "path": "path-squared-cubic",
    "kite": "kite-pair-gap",
}


def simplex_points(rng, count):
    u = np.sort(rng.random((count, 2)), axis=1)
    return np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1)


def band_edge(kind, rng, count=300):
    """Points on the edge of the kind's mask, found by bisection, and unit directions across it."""
    mask = MASKS[kind]
    pts = simplex_points(rng, 40 * count)
    flags = mask(*pts.T)
    pairs = min(count, flags.sum(), (~flags).sum())
    lo, hi = pts[flags][:pairs], pts[~flags][:pairs]
    across = (hi - lo) / np.linalg.norm(hi - lo, axis=1)[:, None]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = mask(*mid.T)[:, None]
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return lo, across


def assert_checks_agree(kind, pts):
    flags = MASKS[kind](*pts.T)
    names = set()
    for target, flag in zip(pts.tolist(), flags.tolist()):
        verdict = CHECKS[kind](target)
        assert verdict.realizable is flag, target
        cert = verdict.certificate
        if flag:
            assert cert is None
            continue
        failed = kind if kind != "path" or cycle_mask(*target) else "cycle"
        assert cert.name == KIND_CERTIFICATE[failed]
        # each value is the inequality's slack: negative for the kite gap,
        # positive for the others, when the inequality is violated
        assert (cert.value < 0) if failed == "kite" else (cert.value > 0), (target, cert)
        names.add(cert.name)
    return names


@pytest.mark.parametrize("kind", list(KIND_CERTIFICATE))
def test_checks_agree_with_masks(kind):
    rng = np.random.default_rng([53, list(KIND_CERTIFICATE).index(kind)])
    edge, across = band_edge(kind, rng)
    # on both sides of the mask's edge, from 1e-12 out to past the 1e-9 band
    offsets = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6)
    band = [np.maximum(edge + d * across, 0.0) for a in offsets for d in (a, -a)]
    pts = np.concatenate([simplex_points(rng, 3000)] + band)
    pts *= 10.0 ** rng.uniform(-3.0, 3.0, len(pts))[:, None]
    names = assert_checks_agree(kind, pts)
    assert names == {KIND_CERTIFICATE[kind]} | ({"cycle-max-halfsum"} if kind == "path" else set())


def test_path_check_agrees_with_mask_on_the_edge():
    # the path's cubes are products: numpy's x**3 on float64 arrays can round
    # differently from Python's pow (it does on AVX-512 builds), and gave another
    # verdict on about 3% of these points
    edge, _ = band_edge("path", np.random.default_rng(59))
    assert_checks_agree("path", edge)
