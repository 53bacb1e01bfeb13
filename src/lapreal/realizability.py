"""Closed-form realizability criteria for four-vertex topologies.

Each predicate decides whether a multiset of three nonnegative numbers is
the nonzero part of the Laplacian spectrum of some nonnegative weighting.
All criteria are homogeneous, so they are evaluated on the raw triple; a
small boundary tolerance (scaled by the matching power of the sum) keeps
forward-computed spectra that sit exactly on a region boundary inside.

The ``*_mask`` functions are written with operators only, so each
formula serves Python floats and numpy arrays alike: the scalar checks
call them on the validated floats and get a Python ``bool``, while the
Monte Carlo oracle and the region renderer call them on arrays.  They
assume finite input; the checks reject NaN and inf before calling them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

BOUNDARY_TOL = 1e-9

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Certificate:
    """The violated inequality: a short name, its numeric slack, and prose."""

    name: str
    value: float
    detail: str


@dataclass(frozen=True)
class Verdict:
    realizable: bool
    certificate: Optional[Certificate] = None


def _spu(x, y, z):
    # x^2 + y^2 + z^2, xy + xz + yz and x^2(y+z) + y^2(x+z) + z^2(x+y)
    s = x * x + y * y + z * z
    p = x * y + x * z + y * z
    u = x * x * (y + z) + y * y * (x + z) + z * z * (x + y)
    return s, p, u


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _validate_triple(values) -> tuple[float, float, float]:
    vals = tuple(map(float, values))
    if len(vals) != 3:
        raise ValueError(f"expected a triple, got {len(vals)} entries")
    x, y, z = vals
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"non-finite target eigenvalue in {vals}")
    if x < 0 or y < 0 or z < 0:
        raise ValueError(f"negative target eigenvalue in {vals}")
    return vals


def star_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Star criterion: the discriminant triple product is nonpositive."""
    total = x + y + z
    f1 = 6 * x * x - 2 * x * y - 2 * x * z + y * z
    f2 = 6 * y * y - 2 * x * y - 2 * y * z + x * z
    f3 = 6 * z * z - 2 * x * z - 2 * y * z + x * y
    return f1 * f2 * f3 <= tol * total**6


def cycle_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Cycle criterion: some entry reaches half the sum."""
    total = x + y + z
    half = 0.5 * total - tol * total
    return (x >= half) | (y >= half) | (z >= half)


def path_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Path criterion: cycle condition plus the squared-cubic inequality."""
    total = x + y + z
    s, p, u = _spu(x, y, z)
    lhs = 9 * (x**3 + y**3 + z**3) - 13 * u + 62 * x * y * z
    rhs = (3 * s - 2 * p) ** 2 * (9 * s - 14 * p)
    return cycle_mask(x, y, z, tol) & (lhs * lhs <= rhs + tol * total**6)


def kite_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Kite criterion: some pair satisfies sqrt(3)|u - v| >= u + v."""
    total = x + y + z
    slack = tol * total
    return (
        (SQRT3 * abs(x - y) >= x + y - slack)
        | (SQRT3 * abs(x - z) >= x + z - slack)
        | (SQRT3 * abs(y - z) >= y + z - slack)
    )


def complete_mask(x, y, z):
    """Complete graphs realize every nonnegative tuple."""
    return np.broadcast_to(True, np.broadcast(x, y, z).shape).copy()


MASKS = {
    "star": star_mask,
    "cycle": cycle_mask,
    "path": path_mask,
    "kite": kite_mask,
    "complete": complete_mask,
}


def check_star(target) -> Verdict:
    x, y, z = _validate_triple(target)
    if star_mask(x, y, z):
        return Verdict(True)
    f1 = 6 * x * x - 2 * x * y - 2 * x * z + y * z
    f2 = 6 * y * y - 2 * x * y - 2 * y * z + x * z
    f3 = 6 * z * z - 2 * x * z - 2 * y * z + x * y
    prod = f1 * f2 * f3
    return Verdict(
        False,
        Certificate(
            "star-discriminant-product",
            prod,
            f"discriminant product > 0 ({_fmt(prod)})",
        ),
    )


def check_cycle(target) -> Verdict:
    x, y, z = _validate_triple(target)
    if cycle_mask(x, y, z):
        return Verdict(True)
    biggest = max(x, y, z)
    half = 0.5 * (x + y + z)
    return Verdict(
        False,
        Certificate(
            "cycle-max-halfsum",
            half - biggest,
            f"max < half-sum ({_fmt(biggest)} < {_fmt(half)})",
        ),
    )


def check_path(target) -> Verdict:
    x, y, z = _validate_triple(target)
    cycle_verdict = check_cycle((x, y, z))
    if not cycle_verdict.realizable:
        return cycle_verdict
    if path_mask(x, y, z):
        return Verdict(True)
    s, p, u = _spu(x, y, z)
    lhs = 9 * (x**3 + y**3 + z**3) - 13 * u + 62 * x * y * z
    rhs = (3 * s - 2 * p) ** 2 * (9 * s - 14 * p)
    excess = lhs * lhs - rhs
    return Verdict(
        False,
        Certificate(
            "path-squared-cubic",
            excess,
            f"squared cubic bound exceeded by {_fmt(excess)}",
        ),
    )


def check_kite(target) -> Verdict:
    x, y, z = _validate_triple(target)
    if kite_mask(x, y, z):
        return Verdict(True)
    lo, _, hi = sorted((x, y, z))
    gap = SQRT3 * (hi - lo) - (hi + lo)
    return Verdict(
        False,
        Certificate(
            "kite-pair-gap",
            gap,
            f"sqrt(3)*(max-min) < max+min ({_fmt(SQRT3 * (hi - lo))} < {_fmt(hi + lo)})",
        ),
    )


def check_complete(target, n_plus_1: int) -> Verdict:
    vals = tuple(float(v) for v in target)
    if n_plus_1 < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n_plus_1}")
    if len(vals) != n_plus_1 - 1:
        raise ValueError(
            f"K_{n_plus_1} expects {n_plus_1 - 1} target eigenvalues, got {len(vals)}"
        )
    if any(v < 0 for v in vals):
        raise ValueError(f"negative target eigenvalue in {vals}")
    return Verdict(True)


CHECKS = {
    "star": check_star,
    "cycle": check_cycle,
    "path": check_path,
    "kite": check_kite,
}

