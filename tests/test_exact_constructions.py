"""The constructions' backward error, measured in exact arithmetic.

A construction returns float weights.  Their Laplacian cubic, computed exactly
by ``COEFFS`` on ``Fraction``s, has the coefficients (-e1, e2, -e3) of the
target it realizes, where e1, e2, e3 are the target's elementary symmetric
functions.  The float weights differ from the exact ones by roundoff, so each
coefficient matches to a few ulps of the matching power of the target's sum S.
Exact checks at random rational points stand for the polynomial identities
(J. T. Schwartz, J. ACM 27, 1980).
"""

from fractions import Fraction

import numpy as np
import pytest

from lapreal.cubic import COEFFS
from lapreal.graphs import FOUR_VERTEX_KINDS
from lapreal.inverse import INVERTERS
from lapreal.realizability import CHECKS

EPS = np.finfo(float).eps

#: largest coefficient backward error, in ulps of S, S**2 and S**3
BOUND = 8 * EPS

DRAWS = 900


def draws(kind):
    """Seeded targets over scales 1e-3..1e3; a third are ties (a, a, b) and permutations."""
    rng = np.random.default_rng([2718, FOUR_VERTEX_KINDS.index(kind)])
    u = np.sort(rng.random((DRAWS, 2)), axis=1)
    rows = np.stack([u[:, 0], u[:, 1] - u[:, 0], 1.0 - u[:, 1]], axis=1)
    ties = DRAWS // 3
    tie = rows[:ties, 0] = rows[:ties, 1] = rng.uniform(0.0, 1.0, ties)
    rows[:ties, 2] = tie * 10.0 ** rng.uniform(-2.0, 2.0, ties)
    for k in range(ties):
        rows[k] = np.roll(rows[k], rng.integers(0, 3))
    rows *= 10.0 ** rng.uniform(-3.0, 3.0, DRAWS)[:, None]
    return list(map(tuple, rows.tolist()))


def targets(kind):
    """The realizable ``draws(kind)``."""
    return [t for t in draws(kind) if CHECKS[kind](t).realizable]


def backward_errors(kind, target):
    """|p2 + e1| / S, |p1 - e2| / S**2 and |p0 + e3| / S**3 of the returned weights, exactly."""
    x, y, z = map(Fraction, target)
    weights = map(Fraction, INVERTERS[kind](target).weights)
    p2, p1, p0 = COEFFS[kind](*weights)
    e1, e2, e3 = x + y + z, x * y + x * z + y * z, x * y * z
    return abs(p2 + e1) / e1, abs(p1 - e2) / e1**2, abs(p0 + e3) / e1**3


@pytest.mark.parametrize("kind", FOUR_VERTEX_KINDS)
def test_weights_realize_the_target_coefficients(kind):
    # the path read 37 ulps in p1 while _roots' Newton guard was absolute (max(1, |r|)**2)
    sample = targets(kind)
    assert len(sample) > 100
    # ties (a, a, b), b > 0, lie outside the star's and the path's regions or on their boundary
    assert sum(len(set(t)) < 3 for t in sample) > 100 or kind in ("star", "path")
    worst = max(max(backward_errors(kind, t)) for t in sample)
    assert worst <= BOUND, f"{kind}: backward error {float(worst / EPS):.3g} ulps"


def test_cycle_first_choice_holds_exactly():
    # with the sum-8 entries t <= mid <= 4 + s, 2t + s <= 4 reads t <= mid:
    # the construction's other choice of (a, c, d) is never needed
    for target in targets("cycle"):
        x, y, z = map(Fraction, target)
        factor = 8 / (x + y + z)
        t, _, big = sorted((x * factor, y * factor, z * factor))
        assert 2 * t + (big - 4) <= 4


def path_largest_root_admissible(target):
    """Whether the largest root of the path's middle-weight cubic lies in its window, exactly.

    With f the half sum and e2, e3 the target's pair sum and product, the
    middle weight a is a root of g(a) = a^3 - f a^2 + (e2/3) a - e3/3 and is
    admissible when h(a) = 2a^2 - fa + e2 - f^2 <= 0.  The values of h at the
    roots of g are the eigenvalues of h(C), C the companion matrix of g, so
    the coefficients of h(C)'s characteristic polynomial decide their signs.
    """
    x, y, z = map(Fraction, target)
    f, e2, e3 = (x + y + z) / 2, x * y + x * z + y * z, x * y * z
    b, c, d = -f, e2 / 3, -e3 / 3
    comp = [[0, 0, -d], [1, 0, -c], [0, 1, -b]]
    sq = [[sum(comp[i][k] * comp[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    m = [[2 * sq[i][j] - f * comp[i][j] + (e2 - f * f) * (i == j) for j in range(3)] for i in range(3)]
    trace = m[0][0] + m[1][1] + m[2][2]
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    disc = 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
    if disc >= 0:
        # three real roots: h <= 0 at every one of them, the largest included
        assert trace <= 0 <= minors and det <= 0
        return True
    # one real root r and a complex pair c, c*: det = h(r) |h(c)|^2 has h(r)'s sign
    return det <= 0


def test_path_largest_root_decides():
    # _path_weights takes the largest root; it is admissible exactly when the
    # target is realizable, ties (a, a, b) included (each of them is rejected)
    rows = [t for t in draws("path") if min(t) > 0.0]
    realizable = [CHECKS["path"](t).realizable for t in rows]
    assert sum(realizable) > 100 and sum(len(set(t)) < 3 for t in rows) > 100
    assert [path_largest_root_admissible(t) for t in rows] == realizable
