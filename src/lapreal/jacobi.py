"""Round-robin (Brent-Luk) Jacobi eigensolver for dense symmetric matrices.

Independent of the closed-form cubic route; the two are cross-checked in
the test suite.  Each sweep is n - 1 steps (n for odd n) of n/2 disjoint
rotations.  A matrix is scaled by ``graphs.unit_scaled``'s rule, so its
Frobenius norm, the convergence scale, cannot overflow or underflow.  A step
is the symmetric update (Rutishauser 1966): a pair's diagonal moves by -+t a_pq
and a_pq becomes 0; each 2x2 block between pairs i < j is rotated once, rows
by pair i, then columns by pair j; at odd n the unpaired index's entries get
each pair's columns.  A block entry (r, c) is read and written at its
upper-triangle index, the same value by symmetry, so the sweep reads and
writes the upper triangle only, each entry once per step.

A stack is held as one ``(n, n, batch)`` array, so each entry is a contiguous
batch vector and a step is ~40 numpy calls whatever the batch, each product
of a rotation between arrays of one shape, updated in place.  A matrix leaves
the stack at the first convergence test it passes, so every matrix of a stack
gets the bits it gets in a stack of its own.

One matrix goes to LAPACK instead: ``spectrum_numeric`` scales it by the same
rule and calls ``np.linalg.eigvalsh`` on its upper triangle.  ``forward_spectrum``
on K_n and every ``InverseSolution.residual`` call it; the stack sweep stays
their independent reference in the test suite.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .graphs import UNIT_HIGH, UNIT_LOW

#: off-diagonal convergence threshold relative to the Frobenius norm
OFFDIAG_TOL = 1e-12

MAX_SWEEPS = 100


class JacobiNonConvergence(RuntimeError):
    """The sweep limit was hit before the off-diagonal mass vanished."""


class _Step(NamedTuple):
    """One step of a sweep: the flat upper-triangle indices min * n + max it reads for its pairs p < q."""

    diag: np.ndarray  # (3, pairs): pp, qq and pq
    rows: np.ndarray  # (2 * blocks,): the pair i of each block, i < j, once per column
    cols: np.ndarray  # (segments,): the pair j of each segment
    seg: np.ndarray  # (segments, 2): row r at cols p_j, q_j; a block's two rows, then odd's


@functools.cache
def _round_robin(n: int) -> tuple[tuple[_Step, ...], np.ndarray, np.ndarray]:
    """Shared read-only schedule: a sweep's steps, the strict upper triangle, its mirror for the norm."""
    m = n + n % 2  # for odd n, a dummy index n pads the ring and its pair is dropped
    ring = np.arange(m)
    steps = []
    for _ in range(m - 1):
        p, q = np.sort([ring[: m // 2], ring[::-1][: m // 2]], axis=0)
        odd, p, q = p[q == n], p[q < n], q[q < n]
        i, j = np.triu_indices(p.size, 1)
        r = np.concatenate((np.stack((p[i], q[i]), axis=1).ravel(), np.repeat(odd, p.size)))[:, None]
        cols = np.concatenate((np.repeat(j, 2), np.tile(np.arange(p.size), odd.size)))
        pq = np.stack((p[cols], q[cols]), axis=1)
        seg = np.minimum(r, pq) * n + np.maximum(r, pq)  # (r, c) by symmetry
        steps.append(_Step(np.stack((p * (n + 1), q * (n + 1), p * n + q)), np.repeat(i, 2), cols, seg))
        ring[1:] = np.roll(ring[1:], 1)
    i, j = np.triu_indices(n, 1)
    for a in (upper := i * n + j, lower := j * n + i, *(a for step in steps for a in step)):
        a.flags.writeable = False
    return tuple(steps), upper, lower


def jacobi_spectra(mats: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Ascending eigenvalues of a (batch, n, n) stack of upper triangles of symmetric matrices."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected (batch, n, n) stack, got shape {mats.shape}")
    batch, n = mats.shape[:2]
    b = mats.transpose(1, 2, 0).copy()  # the working copy, C-contiguous
    big = np.maximum(b.max(axis=(0, 1), initial=0.0), -b.min(axis=(0, 1), initial=0.0))
    if not np.isfinite(big).all():
        k, i, j = np.argwhere(~np.isfinite(mats))[0]
        raise ValueError(f"non-finite entry {mats[k, i, j]} in matrix {k} at [{i}, {j}]")
    e = np.where((UNIT_LOW <= big) & (big <= UNIT_HIGH), 0, np.frexp(big)[1])
    scaled = e.any()  # ldexp(x, 0) is x
    if scaled:
        np.ldexp(b, -e, out=b)
    _, upper, lower = _round_robin(n)
    # the sweep reads the upper triangle only; numpy's norm reads both
    b.reshape(n * n, batch)[lower] = b.reshape(n * n, batch)[upper]
    norms = np.linalg.norm(b, axis=(0, 1))
    diagonal = _sweep_stack(b, norms, max_sweeps)
    if scaled:
        with np.errstate(over="ignore"):
            diagonal = np.ldexp(diagonal, e[:, None])
        if not np.isfinite(diagonal).all():
            raise ValueError("an eigenvalue overflows the float range")
    return np.sort(diagonal, axis=1)


def _rotate(x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """Set x, y to c x - s y, s x + c y in place, with the products and sums as written."""
    sy, sx = s * y, s * x
    x *= c
    x -= sy
    y *= c
    y += sx


def _sweep_stack(b: np.ndarray, norms: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Sweep the upper triangle of the ``(n, n, batch)`` array ``b`` in place; its ``(batch, n)`` diagonal.

    A step reads and writes the upper triangle only, each entry once, in ~40
    numpy calls: one gather and one scatter of the pairs' pp, qq and pq and
    ~20 calls for their angles, then one gather of the blocks and the odd
    index's entries, a rotation of rows and one of columns, and one scatter.
    A matrix retires at the first convergence test it passes, so it gets the bits
    it gets alone: its diagonal is put aside then and written back at the end.  It
    goes on rotating, unread, in its column; compacting the stack instead costs
    fresh arrays whose page faults outweigh the rotations saved.
    """
    n, _, batch = b.shape
    flat = b.reshape(n * n, batch)
    steps, upper, _ = _round_robin(n)
    limit = OFFDIAG_TOL * norms
    live, left = np.ones(batch, dtype=bool), batch  # the matrices not yet retired
    retired = []  # the matrices retired at each earlier test, and their diagonals
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_sweeps):
            off = flat[upper]
            going = np.abs(off, out=off).max(axis=0, initial=0.0) > limit
            going &= live
            count = np.count_nonzero(going)
            if not count:
                diagonal = flat[:: n + 1]
                for cols, values in retired:
                    diagonal[:, cols] = values
                return diagonal.T
            if count < left:
                cols = np.flatnonzero(live ^ going)
                retired.append((cols, flat[:: n + 1, cols]))
                live, left = going, count
            for step in steps:
                # angles from the entries before the step: disjoint rotations commute
                d = flat[step.diag]
                theta = d[1] - d[0]
                theta /= 2.0 * d[2]
                # t = copysign(1 / (|theta| + sqrt(theta**2 + 1)), theta), 0 where NaN
                t = theta * theta
                t += 1.0
                np.sqrt(t, out=t)
                t += np.abs(theta)
                np.divide(1.0, t, out=t)
                np.copysign(t, theta, out=t)
                t[np.isnan(t)] = 0.0
                c = t * t  # c = 1 / sqrt(t**2 + 1), s = t c
                c += 1.0
                np.sqrt(c, out=c)
                np.divide(1.0, c, out=c)
                np.multiply(t, d[2], out=theta)  # the diagonal's turn
                d[0] -= theta
                d[1] += theta
                d[2] = 0.0
                flat[step.diag] = d
                s = np.multiply(t, c, out=t)
                # p becomes c p - s q and q becomes s p + c q: each block's rows, then
                # every segment's columns, written back to the upper triangle
                g = flat[step.seg]
                h = g[: step.rows.size].reshape(-1, 2, 2, batch)
                shape = h[:, 0].shape
                _rotate(h[:, 0], h[:, 1], c[step.rows].reshape(shape), s[step.rows].reshape(shape))
                _rotate(g[:, 0], g[:, 1], c[step.cols], s[step.cols])
                flat[step.seg] = g
    raise JacobiNonConvergence(f"no convergence after {max_sweeps} sweeps")


def spectrum_numeric(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix: LAPACK's ``eigvalsh`` on its upper triangle.

    Only the upper triangle is read, once the matrix passes the symmetry test
    (to 1e-12 of its largest entry).  It is scaled by ``jacobi_spectra``'s rule
    for the call and its eigenvalues scaled back, so none over- or underflows
    on the way.  When the rule's exponent is 0 the matrix goes to LAPACK as it
    is and nothing is rescaled: its entries are at most 2**60, so no eigenvalue
    can overflow.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    big = np.abs(m).max()
    if not np.isfinite(big):
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"non-finite entry {m[i, j]} in matrix 0 at [{i}, {j}]")
    # the tolerance scales with the largest entry, so it holds at any scale
    if np.abs(m - m.T).max() > 1e-12 * big:
        raise ValueError("matrix is not symmetric")
    e = 0 if UNIT_LOW <= big <= UNIT_HIGH else math.frexp(big)[1]
    if not e:
        return np.linalg.eigvalsh(m, UPLO="U")
    spec = np.linalg.eigvalsh(np.ldexp(m, -e), UPLO="U")
    with np.errstate(over="ignore"):
        spec = np.ldexp(spec, e)
    if not np.isfinite(spec).all():
        raise ValueError("an eigenvalue overflows the float range")
    return spec
