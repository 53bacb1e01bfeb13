"""Closed-form cubics for the nonzero part of the Laplacian spectrum.

Each four-vertex topology has a monic cubic whose roots, together with
the forced zero eigenvalue, form the Laplacian spectrum.  The
coefficients are taken from the symmetric-function systems of the
characteristic polynomials, not from det(lambda*I - L), so that the
iterative eigensolver remains an independent cross-check.

One scalar kernel, ``_roots``, finds the roots on Python floats; its two
wrappers ``solve_cubic_real`` (three roots) and ``laplacian_cubic_roots``
(three roots, near-zero roundoff clamped), and ``cubic_real_roots`` (one or
three roots as found), only unpack their arguments.  The batch solver does
the same work on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CYCLE_KIND, KITE_KIND, PATH_KIND, STAR_KIND, Topology
from .graphs import float_weights, unit_scaled

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
    STAR_KIND: _star_coeffs,
    CYCLE_KIND: _cycle_coeffs,
    PATH_KIND: _path_coeffs,
    KITE_KIND: _kite_coeffs,
}


def reduced_cubic(topology: Topology, weights) -> CubicCoeffs:
    """Cubic whose roots are the three nonzero-slot eigenvalues, in Python floats.

    The weights are read and checked by ``graphs.float_weights``.
    """
    w = float_weights(topology, weights)
    coeffs = COEFFS.get(topology.kind)
    if coeffs is None:
        raise ValueError(
            f"no closed-form cubic for {topology.kind}(order={topology.order}); "
            "use spectrum_numeric"
        )
    return CubicCoeffs(*coeffs(*w))


def reduced_cubic_batch(topology: Topology, weight_rows: np.ndarray):
    """Vectorized :func:`reduced_cubic`; returns (p2, p1, p0) arrays."""
    w = np.asarray(weight_rows, dtype=float)
    if w.ndim != 2 or w.shape[1] != topology.edge_count:
        raise ValueError(f"expected shape (batch, {topology.edge_count}), got {w.shape}")
    if topology.kind not in COEFFS:
        raise ValueError(f"no closed-form cubic for {topology.kind}")
    return COEFFS[topology.kind](*(w[:, k] for k in range(w.shape[1])))


def cubic_discriminant(p2: float, p1: float, p0: float) -> float:
    """Discriminant 18*B*C*D - 4*B^3*D + B^2*C^2 - 4*C^3 - 27*D^2 of the monic cubic.

    Products only (numpy's ``**`` is slow on negative arrays), so it serves
    Python floats and numpy arrays alike.
    """
    b2, c2 = p2 * p2, p1 * p1  # B^2 and C^2
    return 18.0 * p2 * p1 * p0 - 4.0 * (b2 * p2) * p0 + b2 * c2 - 4.0 * (c2 * p1) - 27.0 * (p0 * p0)


_TWO_PI = 2.0 * math.pi


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _roots(p2, p1, p0, three=True, clamp=True):
    """The scalar kernel: real roots of the monic cubic on floats, ascending.

    Trigonometric form when all roots are real, Cardano otherwise, then one
    guarded Newton step per root.  The trigonometric form loses half the
    digits at a double root, so a close pair is re-solved from the
    coefficients and the well separated (accurate) third root.  With
    ``three``, a discriminant below the roundoff band raises
    :class:`NoThreeRealRoots` and a lone root inside the band is deflated to
    three; with ``clamp`` too, roots in (-ZERO_CLAMP, 0) come back as 0.
    """
    if three:
        disc = cubic_discriminant(p2, p1, p0)
        if disc < -DISC_TOL * max(1.0, abs(p2), abs(p1), abs(p0)) ** 3:
            raise NoThreeRealRoots(f"discriminant {disc} < 0 for {CubicCoeffs(p2, p1, p0)}")
    p = p1 - p2 * p2 / 3.0
    q = 2.0 * p2**3 / 27.0 - p2 * p1 / 3.0 + p0
    shift = -p2 / 3.0
    h = q * q / 4.0 + p**3 / 27.0
    if h <= 0.0:
        # three real roots (p <= 0 here)
        m = 2.0 * math.sqrt(-p / 3.0) if p < 0.0 else 0.0
        if m == 0.0:
            roots = [shift, shift, shift]
        else:
            phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
            roots = [
                m * math.cos(phi / 3.0) + shift,
                m * math.cos((phi - _TWO_PI) / 3.0) + shift,
                m * math.cos((phi - 2.0 * _TWO_PI) / 3.0) + shift,
            ]
    else:
        sqrt_h = math.sqrt(h)
        roots = [_cbrt(-q / 2.0 + sqrt_h) + _cbrt(-q / 2.0 - sqrt_h) + shift]
    for k, r in enumerate(roots):
        fp = (3.0 * r + 2.0 * p2) * r + p1
        scale = abs(r) if abs(r) > 1.0 else 1.0  # max(1.0, abs(r)) without the call
        if abs(fp) > 1e-6 * scale * scale:
            roots[k] = r - (((r + p2) * r + p1) * r + p0) / fp
    if len(roots) == 3:
        roots.sort()
        r1, r2, r3 = roots
        d12 = r2 - r1
        d23 = r3 - r2
        scale = max(1.0, abs(r1), abs(r3))
        if d12 <= d23:
            iso, dpair, diso = r3, d12, d23
        else:
            iso, dpair, diso = r1, d23, d12
        if not (dpair >= 1e-3 * scale or diso <= 10.0 * dpair):
            sigma = -p2 - iso
            prod = p1 - iso * sigma
            r = math.sqrt(max(sigma * sigma - 4.0 * prod, 0.0))
            roots = sorted([(sigma - r) / 2.0, (sigma + r) / 2.0, iso])
    elif three:
        r = roots[0]
        double = -(p2 + r) / 2.0
        roots = sorted([r, double, double])
    if not three:
        return roots
    r1, r2, r3 = roots
    if clamp:
        return (
            0.0 if -ZERO_CLAMP < r1 < 0.0 else r1,
            0.0 if -ZERO_CLAMP < r2 < 0.0 else r2,
            0.0 if -ZERO_CLAMP < r3 < 0.0 else r3,
        )
    return r1, r2, r3


def _spectrum_roots(kind: str, w) -> tuple[float, float, float]:
    """Ascending Laplacian cubic roots of float weights ``w`` on ``kind``, via ``unit_scaled``."""
    w, e = unit_scaled(w)
    roots = _roots(*COEFFS[kind](*w))
    return tuple(math.ldexp(r, e) for r in roots) if e else roots


def cubic_real_roots(p2: float, p1: float, p0: float) -> list[float]:
    """All real roots of the monic cubic (one or three), ascending."""
    return _roots(p2, p1, p0, three=False)


def solve_cubic_real(coeffs: CubicCoeffs) -> tuple[float, float, float]:
    """The three real roots of ``coeffs``, ascending; repeated roots duplicated.

    Raises :class:`NoThreeRealRoots` when the discriminant is negative
    beyond the roundoff band.
    """
    return _roots(coeffs.p2, coeffs.p1, coeffs.p0, clamp=False)


def laplacian_cubic_roots(coeffs: CubicCoeffs) -> tuple[float, float, float]:
    """Roots of a Laplacian cubic, with near-zero roundoff clamped to 0."""
    return _roots(coeffs.p2, coeffs.p1, coeffs.p0)


def solve_cubic_real_batch(p2, p1, p0, strict: bool = True) -> np.ndarray:
    """Vectorized three-real-root solver; returns a (batch, 3) ascending array.

    Raises ``ValueError`` naming the first NaN or infinite coefficient.
    With ``strict`` set, raises :class:`NoThreeRealRoots` if any row has a
    discriminant below the roundoff band.  Intended for Laplacian cubics,
    whose roots are always real.
    """
    p2 = np.asarray(p2, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    for name, p in (("p2", p2), ("p1", p1), ("p0", p0)):
        if not np.isfinite(p).all():
            idx = int(np.argmin(np.isfinite(p)))
            raise ValueError(f"row {idx}: non-finite coefficient {name} = {p[idx]}")
    if strict:
        disc = cubic_discriminant(p2, p1, p0)
        scale = np.maximum(1.0, np.maximum(np.abs(p2), np.maximum(np.abs(p1), np.abs(p0))))
        bad = disc < -DISC_TOL * (scale * scale * scale)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise NoThreeRealRoots(
                f"row {idx}: discriminant {disc[idx]} < 0 for "
                f"({p2[idx]}, {p1[idx]}, {p0[idx]})"
            )
    p = p1 - p2 * p2 / 3.0
    q = 2.0 * (p2 * p2 * p2) / 27.0 - p2 * p1 / 3.0 + p0
    shift = -p2 / 3.0
    m = 2.0 * np.sqrt(np.maximum(-p, 0.0) / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosarg = np.clip(3.0 * q / (p * m), -1.0, 1.0)
    cosarg = np.where(m > 0.0, cosarg, 1.0)
    phi = np.arccos(cosarg)
    ks = np.array([0.0, 1.0, 2.0])
    angles = (phi[:, None] - 2.0 * np.pi * ks[None, :]) / 3.0
    roots = m[:, None] * np.cos(angles) + shift[:, None]
    # single guarded Newton step to tighten simple roots
    f = ((roots + p2[:, None]) * roots + p1[:, None]) * roots + p0[:, None]
    fp = (3.0 * roots + 2.0 * p2[:, None]) * roots + p1[:, None]
    rscale = np.maximum(1.0, np.abs(roots))
    safe = np.abs(fp) > 1e-6 * rscale * rscale
    roots = np.where(safe, roots - np.where(safe, f / np.where(safe, fp, 1.0), 0.0), roots)
    roots.sort(axis=1)
    return _refine_close_pair_batch(roots, p2, p1)


def _refine_close_pair_batch(roots: np.ndarray, p2, p1) -> np.ndarray:
    """Vectorized :func:`_refine_close_pair` over a (batch, 3) root array."""
    d12 = roots[:, 1] - roots[:, 0]
    d23 = roots[:, 2] - roots[:, 1]
    scale = np.maximum(1.0, np.maximum(np.abs(roots[:, 0]), np.abs(roots[:, 2])))
    low_pair = d12 <= d23
    iso = np.where(low_pair, roots[:, 2], roots[:, 0])
    dpair = np.where(low_pair, d12, d23)
    diso = np.where(low_pair, d23, d12)
    fix = (dpair < 1e-3 * scale) & (diso > 10.0 * dpair)
    if not np.any(fix):
        return roots
    sigma = -p2 - iso
    prod = p1 - iso * sigma
    r = np.sqrt(np.maximum(sigma * sigma - 4.0 * prod, 0.0))
    lo = (sigma - r) / 2.0
    hi = (sigma + r) / 2.0
    fixed = np.stack([lo, hi, iso], axis=1)
    fixed.sort(axis=1)
    out = np.where(fix[:, None], fixed, roots)
    return out
