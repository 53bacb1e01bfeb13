"""Aim-3 contracts that the ROADMAP Baseline reproducers still break.

Each test asserts the contract and is a strict xfail: it fails today, and
the change that mends its reproducer makes it pass, which turns the strict
marker into an error until the marker is removed.
"""

import pytest

from lapreal import (
    CubicCoeffs,
    NoThreeRealRoots,
    NotRealizable,
    check_star,
    invert_star,
    solve_cubic_real,
)


def inverts(triple):
    try:
        invert_star(triple)
    except NotRealizable:
        return False
    return True


@pytest.mark.xfail(
    strict=True, reason="reproducer 1: the mask's band is relative, the length cubic's is not"
)
def test_star_check_and_invert_agree():
    triple = (5.340577318480291, 1.2651960605361134, 1.3942266209835958)
    assert check_star(triple).realizable == inverts(triple)


@pytest.mark.xfail(strict=True, reason="reproducer 2: the NoThreeRealRoots band is absolute")
def test_cubic_verdict_does_not_depend_on_scale():
    raised = []
    for s in (0.001, 0.01, 0.1, 1.0, 100.0):
        try:
            solve_cubic_real(CubicCoeffs(-s, s * s, -(s**3)))
        except NoThreeRealRoots:
            raised.append(s)
    assert raised in ([], [0.001, 0.01, 0.1, 1.0, 100.0])


@pytest.mark.xfail(strict=True, reason="reproducer 3: a star cusp inverts with residual 5.06e-3")
def test_star_inverse_is_rejected_or_within_residual_gate():
    triple = (0.26680771909342044, 1.0673846181918718, 0.26680771909342044)
    try:
        solution = invert_star(triple)
    except NotRealizable:
        return
    assert solution.residual <= 1e-8 * max(1.0, sum(triple))
