"""Closed-form cubics for the nonzero part of the Laplacian spectrum.

Each four-vertex topology has a monic cubic whose roots, together with
the forced zero eigenvalue, form the Laplacian spectrum.  The
coefficients are taken from the symmetric-function systems of the
characteristic polynomials, not from det(lambda*I - L), so that the
iterative eigensolver remains an independent cross-check.

One algorithm finds the roots: the root of largest magnitude of the
depressed cubic, taken where nothing cancels, one guarded Newton step, and
the other two roots from the deflated quadratic; no close pair is re-solved.
The scalar kernel ``_roots`` runs it on Python floats; ``solve_cubic_real``
(three roots) and ``cubic_real_roots`` (one or three) unpack its arguments,
and ``laplacian_cubic_roots`` clamps ``solve_cubic_real``'s roundoff below
zero, the ``ZERO_CLAMP`` rule.  ``solve_cubic_real_batch`` runs it on numpy
arrays, sharing ``_depressed``; ``laplacian_cubic_roots_batch``, the batch
forward route, solves weight rows by it at unit scale and clamps them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Topology, float_weight_rows, float_weights, unit_exponents

#: relative scale for the negative-discriminant rejection band
DISC_TOL = 1e-9

#: roots this close below zero are treated as roundoff and clamped
ZERO_CLAMP = 1e-9


@dataclass(frozen=True)
class CubicCoeffs:
    """Monic cubic lambda^3 + p2*lambda^2 + p1*lambda + p0."""

    p2: float
    p1: float
    p0: float


class NoThreeRealRoots(Exception):
    """The cubic has a pair of complex conjugate roots."""


def _star_coeffs(l1, l2, l3):
    p2 = -2 * (l1 + l2 + l3)
    p1 = 3 * (l1 * l2 + l1 * l3 + l2 * l3)
    p0 = -4 * l1 * l2 * l3
    return p2, p1, p0


def _cycle_coeffs(l1, l2, l3, l4):
    p2 = -2 * (l1 + l2 + l3 + l4)
    p1 = 3 * (l1 * l2 + l2 * l3 + l3 * l4 + l4 * l1) + 4 * (l1 * l3 + l2 * l4)
    p0 = -4 * (l1 * l2 * l3 + l1 * l2 * l4 + l1 * l3 * l4 + l2 * l3 * l4)
    return p2, p1, p0


def _kite_coeffs(l1, l2, l3, l4):
    p2 = -2 * (l1 + l2 + l3 + l4)
    p1 = 3 * (l1 * l2 + l1 * l3 + l2 * l3 + l2 * l4 + l3 * l4) + 4 * l1 * l4
    p0 = -4 * (l1 * l2 * l4 + l1 * l3 * l4 + l2 * l3 * l4)
    return p2, p1, p0


def _path_coeffs(l1, l2, l3):
    # path = cycle with the v4v1 edge deleted
    return _cycle_coeffs(0, l1, l2, l3)


#: coefficient formula of each four-vertex topology, for Python floats
#: and numpy arrays alike; integer literals keep it exact on Fractions
COEFFS = {
    "star": _star_coeffs,
    "cycle": _cycle_coeffs,
    "path": _path_coeffs,
    "kite": _kite_coeffs,
}


def _coeffs(topology: Topology):
    """The ``COEFFS`` formula of ``topology``; K_n has none."""
    if topology.kind not in COEFFS:
        raise ValueError(
            f"no closed-form cubic for {topology.kind}(order={topology.order}); use spectrum_numeric"
        )
    return COEFFS[topology.kind]


def reduced_cubic(topology: Topology, weights) -> CubicCoeffs:
    """Cubic whose roots are the three nonzero-slot eigenvalues, in Python floats.

    The weights are read and checked by ``graphs.float_weights``.
    """
    w = float_weights(topology, weights)
    return CubicCoeffs(*_coeffs(topology)(*w))


def reduced_cubic_batch(topology: Topology, weight_rows: np.ndarray):
    """Vectorized :func:`reduced_cubic` of rows checked by ``float_weight_rows``; (p2, p1, p0) arrays."""
    w = float_weight_rows(topology, weight_rows)
    return _coeffs(topology)(*(w[:, k] for k in range(w.shape[1])))


def cubic_discriminant(p2: float, p1: float, p0: float) -> float:
    """Discriminant 18*B*C*D - 4*B^3*D + B^2*C^2 - 4*C^3 - 27*D^2 of the monic cubic.

    Products only (numpy's ``**`` is slow on negative arrays), so it serves
    Python floats and numpy arrays alike.
    """
    b2, c2 = p2 * p2, p1 * p1  # B^2 and C^2
    return 18.0 * p2 * p1 * p0 - 4.0 * (b2 * p2) * p0 + b2 * c2 - 4.0 * (c2 * p1) - 27.0 * (p0 * p0)


def _depressed(p2, p1, p0):
    """(p, q, h, shift): lambda = t + shift turns the monic cubic into t^3 + p*t + q.

    h = q^2/4 + p^3/27 is -1/108 of the discriminant: h <= 0 means three
    real roots.  Products only, so it serves Python floats and numpy arrays.
    """
    p = p1 - p2 * p2 / 3.0
    q = 2.0 * (p2 * p2 * p2) / 27.0 - p2 * p1 / 3.0 + p0
    return p, q, q * q / 4.0 + p * p * p / 27.0, -p2 / 3.0


def _roots(p2, p1, p0, three=True):
    """The scalar kernel: real roots of the monic cubic on floats, ascending.

    First the root r of largest magnitude in the depressed form t^3 + p*t + q:
    with three real roots its angle lies in [0, pi/6], where the cosine is
    flat, and with one it is Cardano's form taking the larger cube root, so
    nothing cancels (W. Kahan, "To Solve a Real Cubic Equation", 1986;
    J. Blinn, "How to Solve a Cubic Equation", IEEE CG&A 2006-07).  One
    Newton step polishes r unless |f'(r)| <= 1e-6*r^2, a guard that reads
    the same at every scale, as f'(r) is homogeneous of degree 2; the other
    two roots solve the deflated quadratic u^2 - sigma*u + prod, the larger
    by magnitude first and the smaller as prod over it.  With ``three``, a
    discriminant below the roundoff band raises :class:`NoThreeRealRoots`,
    a lone real root inside the band comes with the double root sigma/2,
    and the roots come back as a tuple; without it, as a list.  No root is
    clamped: ``laplacian_cubic_roots`` applies ``ZERO_CLAMP``.
    """
    if three:
        disc = cubic_discriminant(p2, p1, p0)
        if disc < -DISC_TOL * max(1.0, abs(p2), abs(p1), abs(p0)) ** 3:
            raise NoThreeRealRoots(f"discriminant {disc} < 0 for {CubicCoeffs(p2, p1, p0)}")
    p, q, h, shift = _depressed(p2, p1, p0)
    if h <= 0.0:
        m = 2.0 * math.sqrt(-p / 3.0) if p < 0.0 else 0.0
        mag = m * math.cos(math.acos(min(1.0, 3.0 * abs(q) / (m * -p))) / 3.0) if m else 0.0
    else:
        a = (abs(q) / 2.0 + math.sqrt(h)) ** (1.0 / 3.0)
        mag = a - p / (3.0 * a)
    r = shift - math.copysign(mag, q)
    fp = (3.0 * r + 2.0 * p2) * r + p1
    if abs(fp) > 1e-6 * r * r:
        r -= (((r + p2) * r + p1) * r + p0) / fp
    sigma = -p2 - r
    if h > 0.0:
        if not three:
            return [r]
        big = small = sigma / 2.0
    else:
        prod = -p0 / r if abs(r) > abs(sigma) else p1 - r * sigma
        disc = sigma * sigma - 4.0 * prod
        big = (sigma + math.copysign(math.sqrt(disc) if disc > 0.0 else 0.0, sigma)) / 2.0
        small = prod / big if big else big
    lo, hi = (big, small) if big < small else (small, big)
    if r < lo:
        r1, r2, r3 = r, lo, hi
    elif r > hi:
        r1, r2, r3 = lo, hi, r
    else:
        r1, r2, r3 = lo, r, hi
    return (r1, r2, r3) if three else [r1, r2, r3]


def cubic_real_roots(p2: float, p1: float, p0: float) -> list[float]:
    """All real roots of the monic cubic (one or three), ascending."""
    return _roots(p2, p1, p0, three=False)


def solve_cubic_real(coeffs: CubicCoeffs) -> tuple[float, float, float]:
    """The three real roots of ``coeffs``, ascending; repeated roots duplicated.

    Raises :class:`NoThreeRealRoots` when the discriminant is negative
    beyond the roundoff band.
    """
    return _roots(coeffs.p2, coeffs.p1, coeffs.p0)


def laplacian_cubic_roots(coeffs: CubicCoeffs) -> tuple[float, float, float]:
    """Roots of a Laplacian cubic, with roots in (-ZERO_CLAMP, 0) clamped to 0."""
    return tuple(0.0 if -ZERO_CLAMP < r < 0.0 else r for r in solve_cubic_real(coeffs))


def solve_cubic_real_batch(p2, p1, p0) -> np.ndarray:
    """Vectorized three-real-root solver; returns a (batch, 3) ascending array.

    The algorithm of :func:`_roots` on every row: both forms of the outlier
    root are computed and ``np.where`` keeps the row's own, and a row with
    one real root gets the double root sigma/2, the real part of its pair.
    Raises ``ValueError`` naming the first NaN or infinite coefficient, and
    :class:`NoThreeRealRoots` if any row has a discriminant below the
    roundoff band.  Intended for Laplacian cubics, whose roots are always
    real.
    """
    p2 = np.asarray(p2, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    for name, p in (("p2", p2), ("p1", p1), ("p0", p0)):
        if not np.isfinite(p).all():
            idx = int(np.argmin(np.isfinite(p)))
            raise ValueError(f"row {idx}: non-finite coefficient {name} = {p[idx]}")
    disc = cubic_discriminant(p2, p1, p0)
    scale = np.maximum(1.0, np.maximum(np.abs(p2), np.maximum(np.abs(p1), np.abs(p0))))
    bad = disc < -DISC_TOL * (scale * scale * scale)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NoThreeRealRoots(
            f"row {idx}: discriminant {disc[idx]} < 0 for "
            f"({p2[idx]}, {p1[idx]}, {p0[idx]})"
        )
    p, q, h, shift = _depressed(p2, p1, p0)
    real3 = h <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 2.0 * np.sqrt(np.maximum(-p, 0.0) / 3.0)
        trig = m * np.cos(np.arccos(np.minimum(1.0, 3.0 * np.abs(q) / (m * -p))) / 3.0)
        a = np.cbrt(np.abs(q) / 2.0 + np.sqrt(np.maximum(h, 0.0)))
        mag = np.where(real3, np.where(m > 0.0, trig, 0.0), a - p / (3.0 * a))
        r = shift - np.copysign(mag, q)
        f = ((r + p2) * r + p1) * r + p0
        fp = (3.0 * r + 2.0 * p2) * r + p1
        safe = np.abs(fp) > 1e-6 * r * r
        r = np.where(safe, r - f / fp, r)
        sigma = -p2 - r
        prod = np.where(np.abs(r) > np.abs(sigma), -p0 / r, p1 - r * sigma)
        disc = np.where(real3, sigma * sigma - 4.0 * prod, 0.0)
        big = (sigma + np.copysign(np.sqrt(np.maximum(disc, 0.0)), sigma)) / 2.0
        small = np.where(real3 & (big != 0.0), prod / big, big)
    lo, hi = np.minimum(big, small), np.maximum(big, small)
    return np.stack((np.minimum(r, lo), np.maximum(lo, np.minimum(r, hi)), np.maximum(r, hi)), axis=1)


def laplacian_cubic_roots_batch(topology: Topology, weight_rows) -> tuple[np.ndarray, np.ndarray]:
    """``(R, e)``: :func:`laplacian_cubic_roots` of each weight row times 2**-e (``unit_exponents``).

    R is ``(batch, 3)`` at unit scale, where the masks hold; the spectrum is ``ldexp(R, e)``.
    """
    w = float_weight_rows(topology, weight_rows)
    e = unit_exponents(w.max(axis=1, initial=0.0))
    roots = solve_cubic_real_batch(*reduced_cubic_batch(topology, np.ldexp(w, -e[:, None])))
    return np.where((roots < 0.0) & (roots > -ZERO_CLAMP), 0.0, roots), e
