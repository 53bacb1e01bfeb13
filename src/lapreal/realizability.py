"""Closed-form realizability criteria for four-vertex topologies.

Each predicate decides whether a multiset of three nonnegative numbers is
the nonzero part of the Laplacian spectrum of some nonnegative weighting.
All criteria are homogeneous, so they are evaluated on the raw triple; a
small boundary tolerance (scaled by the matching power of the sum) keeps
forward-computed spectra that sit exactly on a region boundary inside.

The ``*_mask`` functions are vectorized and shared by the scalar checks,
the Monte Carlo oracle and the region renderer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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


class PathSymmetrics(NamedTuple):
    """Symmetric combinations used by the path criterion."""

    S: float  # x^2 + y^2 + z^2
    P: float  # xy + xz + yz
    U: float  # x^2(y+z) + y^2(x+z) + z^2(x+y)

    @classmethod
    def from_triple(cls, x, y, z) -> "PathSymmetrics":
        s, p, u = _spu(x, y, z)
        return cls(float(s), float(p), float(u))


def _spu(x, y, z):
    s = x * x + y * y + z * z
    p = x * y + x * z + y * z
    u = x * x * (y + z) + y * y * (x + z) + z * z * (x + y)
    return s, p, u


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _validate_triple(values) -> tuple[float, float, float]:
    vals = tuple(float(v) for v in values)
    if len(vals) != 3:
        raise ValueError(f"expected a triple, got {len(vals)} entries")
    if not (math.isfinite(vals[0]) and math.isfinite(vals[1]) and math.isfinite(vals[2])):
        raise ValueError(f"non-finite target eigenvalue in {vals}")
    if any(v < 0 for v in vals):
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
    biggest = np.maximum(np.maximum(x, y), z)
    return biggest >= 0.5 * total - tol * total


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
        (SQRT3 * np.abs(x - y) >= x + y - slack)
        | (SQRT3 * np.abs(x - z) >= x + z - slack)
        | (SQRT3 * np.abs(y - z) >= y + z - slack)
    )


def complete_mask(x, y, z, tol: float = BOUNDARY_TOL):
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
    if bool(star_mask(x, y, z)):
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
    if bool(cycle_mask(x, y, z)):
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
    cycle_verdict = check_cycle(target)
    if not cycle_verdict.realizable:
        return cycle_verdict
    if bool(path_mask(x, y, z)):
        return Verdict(True)
    s, p, u = PathSymmetrics.from_triple(x, y, z)
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
    if bool(kite_mask(x, y, z)):
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


class NormalizedTarget(NamedTuple):
    values: tuple[float, ...]
    factor: float
    zero_sum: bool


def normalize_target(target, target_sum: float) -> NormalizedTarget:
    """Scale ``target`` so its entries sum to ``target_sum``.

    A zero-sum target is returned unchanged with factor 1 and the
    ``zero_sum`` flag set.
    """
    if target_sum <= 0:
        raise ValueError(f"target_sum must be positive, got {target_sum}")
    vals = tuple(float(v) for v in target)
    total = sum(vals)
    if total == 0.0:
        return NormalizedTarget(vals, 1.0, True)
    factor = target_sum / total
    return NormalizedTarget(tuple(v * factor for v in vals), factor, False)
