"""Closed-form realizability predicates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapreal.realizability import (
    check_complete,
    check_cycle,
    check_kite,
    check_path,
    check_star,
    kite_mask,
)

ALL_CHECKS = [check_star, check_cycle, check_path, check_kite]

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


class TestInvariance:
    @given(nonneg, nonneg, nonneg)
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, x, y, z):
        for check in ALL_CHECKS:
            verdicts = {
                check(perm).realizable for perm in itertools.permutations((x, y, z))
            }
            assert len(verdicts) == 1

    @given(
        nonneg, nonneg, nonneg,
        st.sampled_from([0.1, 1.0, 7.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, x, y, z, t):
        triple = (x, y, z)
        scaled = (t * x, t * y, t * z)
        for check in ALL_CHECKS:
            assert check(triple).realizable == check(scaled).realizable

    def test_inclusion_chain(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            triple = tuple(rng.uniform(0.0, 4.0, 3))
            if check_path(triple).realizable:
                assert check_cycle(triple).realizable
                assert check_kite(triple).realizable
            if check_star(triple).realizable:
                assert check_kite(triple).realizable

