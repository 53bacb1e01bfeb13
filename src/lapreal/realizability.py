"""Closed-form realizability criteria for four-vertex topologies.

Each predicate decides whether a multiset of three nonnegative numbers is
the nonzero part of the Laplacian spectrum of some nonnegative weighting.
All criteria are homogeneous, so a check decides on the triple scaled by
``graphs.unit_scaled``; a boundary tolerance (scaled by the matching power
of the sum) keeps forward-computed spectra on a region boundary inside.
The check tests the triple's sum first: a sum in [UNIT_LOW, UNIT_HIGH]
leaves the triple as given, even one whose largest entry ``unit_scaled``
would scale, such as ``(2**-61,) * 3``.

The ``*_mask`` functions are written with operators only, so each
formula serves Python floats and numpy arrays alike: the scalar checks
call them on the validated floats and get a Python ``bool``, while the
Monte Carlo oracle and the region renderer call them on arrays.  They
assume finite input; the checks reject NaN and inf before calling them.
A mask and its check's certificate share one formula: the star product
and the path's two sides are each written once, in a private helper
that both call.  ``CHECKS`` holds each kind's check, built by ``_checker``
from its mask and certificate, and ``check_star``...``check_kite`` are
unpacked from it.

A check pays only for what its caller reads.  A realizable triple gets
the one shared ``_REALIZABLE`` verdict; a rejected one gets a ``Verdict``
that holds its certificate function and the scaled triple, and builds the
certificate, with its ``at scale 2**-e`` suffix, when it is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graphs import UNIT_HIGH, UNIT_LOW, unit_scaled

BOUNDARY_TOL = 1e-9

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Certificate:
    """The violated inequality: a short name, its numeric slack, and prose."""

    name: str
    value: float
    detail: str


@dataclass(frozen=True, init=False)
class Verdict:
    """A check's answer: ``realizable``, and for a rejection the violated inequality.

    ``Verdict(False, certificate)`` holds a certificate built beforehand.  A
    rejected ``check_*`` instead returns a verdict that builds its certificate
    when ``certificate`` is first read, then caches it, as
    ``NotRealizable.certificate`` does.  Either way it is a frozen value:
    equality, hash, repr and pickling read the certificate.
    """

    realizable: bool
    certificate: Optional[Certificate]

    def __init__(self, realizable: bool, certificate: Optional[Certificate] = None):
        fields = self.__dict__
        fields["realizable"], fields["certificate"] = realizable, certificate

    def __getattr__(self, name):
        # reached only while a rejection's certificate is unbuilt: no class
        # attribute shadows the field, so its first read lands here
        pending = self.__dict__.pop("_pending", None) if name == "certificate" else None
        if pending is None:
            raise AttributeError(name)
        make, x, y, z, e = pending
        cert = make(x, y, z)
        if e:
            cert = replace(cert, detail=f"{cert.detail} at scale 2**{-e}")
        self.__dict__["certificate"] = cert
        return cert

    def __reduce__(self):
        return Verdict, (self.realizable, self.certificate)


def _fmt(v: float) -> str:
    # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return format(float(v) + 0.0, ".9g")


def _not_numbers(values) -> ValueError:
    # float(None) and iterating a number raise TypeError; a bad target is a ValueError
    return ValueError(f"expected a sequence of numbers, got {values!r}")


def _validate_triple(values) -> tuple[float, float, float]:
    try:
        vals = tuple(map(float, values))
    except TypeError:
        raise _not_numbers(values) from None
    if len(vals) != 3:
        raise ValueError(f"expected a triple, got {len(vals)} entries")
    x, y, z = vals
    # one test catches NaN, inf and a sum past the float range, which every
    # criterion and solver forms
    if not math.isfinite(x + y + z):
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite target eigenvalue in {vals}")
        if min(vals) >= 0:
            raise ValueError(f"target eigenvalue sum overflows the float range in {vals}")
    if x < 0 or y < 0 or z < 0:
        raise ValueError(f"negative target eigenvalue in {vals}")
    return vals


def _validate_eigenvalues(values) -> tuple[float, ...]:
    """Target eigenvalues as floats; NaN, inf, a negative entry or an overflowing sum raises."""
    try:
        vals = tuple(map(float, values))
    except TypeError:
        raise _not_numbers(values) from None
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite target eigenvalue in {vals}")
    if any(v < 0 for v in vals):
        raise ValueError(f"negative target eigenvalue in {vals}")
    if not math.isfinite(sum(vals)):
        raise ValueError(f"target eigenvalue sum overflows the float range in {vals}")
    return vals


def _star_product(x, y, z):
    # the discriminant triple product f1 * f2 * f3
    f1 = 6 * x * x - 2 * x * y - 2 * x * z + y * z
    f2 = 6 * y * y - 2 * x * y - 2 * y * z + x * z
    f3 = 6 * z * z - 2 * x * z - 2 * y * z + x * y
    return f1 * f2 * f3


def _path_sides(x, y, z):
    # the squared cubic and its bound; the path needs square <= bound.
    # s, p, u: x^2 + y^2 + z^2, xy + xz + yz and x^2(y+z) + y^2(x+z) + z^2(x+y)
    s = x * x + y * y + z * z
    p = x * y + x * z + y * z
    u = x * x * (y + z) + y * y * (x + z) + z * z * (x + y)
    # products, not **: numpy's x**3 on float64 arrays can round unlike Python's pow
    lhs = 9 * (x * x * x + y * y * y + z * z * z) - 13 * u + 62 * x * y * z
    rhs = (3 * s - 2 * p) ** 2 * (9 * s - 14 * p)
    return lhs * lhs, rhs


def star_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Star criterion: the discriminant triple product is nonpositive."""
    total = x + y + z
    return _star_product(x, y, z) <= tol * total**6


def cycle_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Cycle criterion: some entry reaches half the sum."""
    total = x + y + z
    half = 0.5 * total - tol * total
    return (x >= half) | (y >= half) | (z >= half)


def path_mask(x, y, z, tol: float = BOUNDARY_TOL):
    """Path criterion: cycle condition plus the squared-cubic inequality."""
    total = x + y + z
    square, bound = _path_sides(x, y, z)
    return cycle_mask(x, y, z, tol) & (square <= bound + tol * total**6)


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


def _star_certificate(x, y, z) -> Certificate:
    prod = _star_product(x, y, z)
    detail = f"discriminant product > 0 ({_fmt(prod)})"
    return Certificate("star-discriminant-product", prod, detail)


def _cycle_certificate(x, y, z) -> Certificate:
    biggest = max(x, y, z)
    half = 0.5 * (x + y + z)
    detail = f"max < half-sum ({_fmt(biggest)} < {_fmt(half)})"
    return Certificate("cycle-max-halfsum", half - biggest, detail)


def _path_certificate(x, y, z) -> Certificate:
    if not cycle_mask(x, y, z):
        return _cycle_certificate(x, y, z)
    square, bound = _path_sides(x, y, z)
    excess = square - bound
    detail = f"squared cubic bound exceeded by {_fmt(excess)}"
    return Certificate("path-squared-cubic", excess, detail)


def _kite_certificate(x, y, z) -> Certificate:
    lo, _, hi = sorted((x, y, z))
    gap = SQRT3 * (hi - lo) - (hi + lo)
    detail = f"sqrt(3)*(max-min) < max+min ({_fmt(SQRT3 * (hi - lo))} < {_fmt(hi + lo)})"
    return Certificate("kite-pair-gap", gap, detail)


#: the verdict of every realizable check; a frozen value, so one instance serves all
_REALIZABLE = Verdict(True)


def _checker(kind, mask, certificate):
    """``check_<kind>``: validate and scale once, run ``mask``, defer ``certificate`` on rejection."""
    lo, hi = UNIT_LOW, UNIT_HIGH  # closure cells: cheaper per call than global lookups
    new = object.__new__

    def check(target) -> Verdict:
        x, y, z = _validate_triple(target)
        e = 0
        # a sum in range costs one comparison; outside it, unit_scaled decides
        if not lo <= x + y + z <= hi:
            (x, y, z), e = unit_scaled((x, y, z))
        if mask(x, y, z):
            return _REALIZABLE
        # Verdict.__getattr__ builds the certificate from these on its first read
        verdict = new(Verdict)
        fields = verdict.__dict__
        fields["realizable"], fields["_pending"] = False, (certificate, x, y, z, e)
        return verdict

    check.__name__ = check.__qualname__ = f"check_{kind}"
    return check


CHECKS = {
    "star": _checker("star", star_mask, _star_certificate),
    "cycle": _checker("cycle", cycle_mask, _cycle_certificate),
    # the cycle condition first, for speed: a triple that fails it skips the squared cubic
    "path": _checker(
        "path", lambda x, y, z: cycle_mask(x, y, z) and path_mask(x, y, z), _path_certificate
    ),
    "kite": _checker("kite", kite_mask, _kite_certificate),
}
check_star, check_cycle, check_path, check_kite = CHECKS.values()


def check_complete(target, n_plus_1: int) -> Verdict:
    vals = _validate_eigenvalues(target)
    if n_plus_1 < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n_plus_1}")
    if len(vals) != n_plus_1 - 1:
        raise ValueError(
            f"K_{n_plus_1} expects {n_plus_1 - 1} target eigenvalues, got {len(vals)}"
        )
    return _REALIZABLE

