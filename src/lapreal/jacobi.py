"""Round-robin (Brent-Luk) Jacobi eigensolver for dense symmetric matrices.

Independent of the closed-form cubic route; the two are cross-checked in
the test suite.  Each sweep is n - 1 steps (n for odd n) of n/2 disjoint
rotations.  A matrix is scaled by ``graphs.unit_scaled``'s rule, so its
Frobenius norm, the convergence scale, cannot overflow or underflow.  A step
is the symmetric update (Rutishauser 1966): a pair's diagonal moves by -+t a_pq
and a_pq becomes 0; each 2x2 block between pairs i < j is rotated once, rows
by pair i, then columns by pair j, and mirrored, so only the upper triangle of
the input is read; at odd n the unpaired index's entries get each pair's columns.

A stack is held as one ``(n, n, batch)`` array, so each entry is a contiguous
batch vector and a step is ~45 numpy calls whatever the batch.  A matrix leaves
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
    """One step of a sweep: the flat indices row * n + col it reads for its disjoint pairs p < q."""

    diag: np.ndarray  # (4, pairs): pp, qq, pq and qp
    rows: np.ndarray  # (blocks,): the pair i of each block, i < j
    cols: np.ndarray  # (segments,): the pair j of each segment
    seg: np.ndarray  # (segments, 2): row r at cols p_j, q_j; a block's two rows, then odd's
    mirror: np.ndarray  # (segments, 2): the same entries transposed


@functools.cache
def _round_robin(n: int) -> tuple[tuple[_Step, ...], np.ndarray, np.ndarray]:
    """Shared read-only schedule: a sweep's steps, the strict upper triangle, its mirror."""
    m = n + n % 2  # for odd n, a dummy index n pads the ring and its pair is dropped
    ring = np.arange(m)
    steps = []
    for _ in range(m - 1):
        p, q = np.sort([ring[: m // 2], ring[::-1][: m // 2]], axis=0)
        odd, p, q = p[q == n], p[q < n], q[q < n]
        i, j = np.triu_indices(p.size, 1)
        r = np.concatenate((np.stack((p[i], q[i]), axis=1).ravel(), np.repeat(odd, p.size)))
        cols = np.concatenate((np.repeat(j, 2), np.tile(np.arange(p.size), odd.size)))
        pq = np.stack((p[cols], q[cols]), axis=1)
        diag = np.stack((p * (n + 1), q * (n + 1), p * n + q, q * n + p))
        steps.append(_Step(diag, i, cols, r[:, None] * n + pq, pq * n + r[:, None]))
        ring[1:] = np.roll(ring[1:], 1)
    i, j = np.triu_indices(n, 1)
    for a in (upper := i * n + j, lower := j * n + i, *(a for step in steps for a in step)):
        a.flags.writeable = False
    return tuple(steps), upper, lower


def jacobi_spectra(mats: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Ascending eigenvalues of a (batch, n, n) stack of upper triangles of symmetric matrices."""
    b = np.asarray(mats, dtype=float)
    if b.ndim != 3 or b.shape[1] != b.shape[2]:
        raise ValueError(f"expected (batch, n, n) stack, got shape {b.shape}")
    batch, n = b.shape[:2]
    big = np.abs(b).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(big).all():
        k, i, j = np.argwhere(~np.isfinite(b))[0]
        raise ValueError(f"non-finite entry {b[k, i, j]} in matrix {k} at [{i}, {j}]")
    e = np.where((UNIT_LOW <= big) & (big <= UNIT_HIGH), 0, np.frexp(big)[1])
    b = np.ldexp(b.transpose(1, 2, 0), -e, order="C")
    _, upper, lower = _round_robin(n)
    b.reshape(n * n, batch)[lower] = b.reshape(n * n, batch)[upper]
    norms = np.linalg.norm(b, axis=(0, 1))
    diagonal = _sweep_stack(b, norms, max_sweeps)
    with np.errstate(over="ignore"):
        diagonal = np.ldexp(diagonal, e[:, None])
    if not np.isfinite(diagonal).all():
        raise ValueError("an eigenvalue overflows the float range")
    return np.sort(diagonal, axis=1)


def _sweep_stack(b: np.ndarray, norms: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Sweep the symmetric ``(n, n, batch)`` array ``b`` in place; its ``(batch, n)`` diagonal.

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
            going = np.abs(flat[upper]).max(axis=0, initial=0.0) > limit
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
                theta = (d[1] - d[0]) / (2.0 * d[2])
                t = np.copysign(1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0)), theta)
                t[np.isnan(t)] = 0.0
                c, turn = 1.0 / np.sqrt(t * t + 1.0), t * d[2]
                s = t * c
                d[0] -= turn
                d[1] += turn
                d[2:] = 0.0
                flat[step.diag] = d
                # p becomes c p - s q and q becomes s p + c q: each block's rows, then
                # every segment's columns, written to the block and to its mirror
                g = flat[step.seg]
                h = g[: 2 * step.rows.size].reshape(-1, 2, 2, batch)
                ci, si = c[step.rows, None], s[step.rows, None]
                h[:, 0], h[:, 1] = ci * h[:, 0] - si * h[:, 1], si * h[:, 0] + ci * h[:, 1]
                cj, sj = c[step.cols], s[step.cols]
                g[:, 0], g[:, 1] = cj * g[:, 0] - sj * g[:, 1], sj * g[:, 0] + cj * g[:, 1]
                flat[step.seg] = flat[step.mirror] = g
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
