"""Round-robin (Brent-Luk) Jacobi eigensolver for dense symmetric matrices.

Independent of the closed-form cubic route; the two are cross-checked in
the test suite.  Each sweep is n - 1 steps (n for odd n) of n/2 disjoint
rotations.  A matrix is scaled by ``graphs.unit_scaled``'s rule, so its
Frobenius norm, the convergence scale, cannot overflow or underflow.  A step
is the symmetric update (Rutishauser 1966): a pair's diagonal moves by -+t a_pq
and a_pq becomes 0; each 2x2 block between pairs i < j is rotated once, rows
by pair i, then columns by pair j, and mirrored, so only the upper triangle of
the input is read; at odd n the unpaired index's entries get each pair's columns.

Two sweeps run it.  A stack is held as one ``(n, n, batch)`` array, so each
entry is a contiguous batch vector and a step is ~45 numpy calls whatever the
batch.  One matrix of order up to ``FLOAT_SWEEP_MAX_ORDER`` is swept on Python
floats instead: a numpy call costs microseconds however few entries it touches,
while the float loop pays per entry.  On single K_n Laplacians the float sweep
is ~5x faster at n = 8, ~1.15x at n = 27 and even from n = 28, the measured
crossover.  It makes the same IEEE operations per entry in the same order, and a
matrix leaves a stack at the first convergence test it passes, as the float
sweep returns at it, so every matrix of a stack gets the bits it gets alone.

``spectrum_rows`` takes such a matrix from rows of Python floats to sorted
eigenvalues with no numpy call: on one K_4 Laplacian the ~12 numpy calls around
the sweep cost more than the sweep.  It applies the stack's scale rule with
``math.frexp``/``math.ldexp`` and adds the squares of the Frobenius norm in
numpy's pairwise order, so its convergence threshold is the stack's float.
``forward_spectrum`` on K_n, the K_n residual and a stack of one call it.
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

#: largest order of a single matrix swept on Python floats (the measured crossover)
FLOAT_SWEEP_MAX_ORDER = 27


class JacobiNonConvergence(RuntimeError):
    """The sweep limit was hit before the off-diagonal mass vanished."""


class _Step(NamedTuple):
    """One step of a sweep: disjoint pairs p < q, and the flat indices row * n + col it reads."""

    pairs: tuple[tuple[int, int], ...]
    odd: tuple[int, ...]  # the index left unpaired at odd n
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
        steps.append(_Step(tuple(zip(p.tolist(), q.tolist())), tuple(odd.tolist()), diag, i, cols,
                           r[:, None] * n + pq, pq * n + r[:, None]))
        ring[1:] = np.roll(ring[1:], 1)
    i, j = np.triu_indices(n, 1)
    for a in (upper := i * n + j, lower := j * n + i, *(a for step in steps for a in step[2:])):
        a.flags.writeable = False
    return tuple(steps), upper, lower


def jacobi_spectra(mats: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Ascending eigenvalues of a (batch, n, n) stack of upper triangles of symmetric matrices."""
    b = np.asarray(mats, dtype=float)
    if b.ndim != 3 or b.shape[1] != b.shape[2]:
        raise ValueError(f"expected (batch, n, n) stack, got shape {b.shape}")
    batch, n = b.shape[:2]
    if batch == 1 and n <= FLOAT_SWEEP_MAX_ORDER:
        return np.array([spectrum_rows(b[0].tolist(), max_sweeps)])
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


def spectrum_rows(rows: list[list[float]], max_sweeps: int = MAX_SWEEPS) -> list[float]:
    """Ascending eigenvalues of one symmetric matrix given as rows of Python floats.

    Only the upper triangle is read, and ``rows`` is not changed.  Up to order
    ``FLOAT_SWEEP_MAX_ORDER`` the float sweep runs with no numpy call; a larger
    matrix goes to the stack sweep.  The bits are those of ``jacobi_spectra``.
    """
    n = len(rows)
    if n > FLOAT_SWEEP_MAX_ORDER:
        return jacobi_spectra(np.array(rows)[None], max_sweeps)[0].tolist()
    if any(len(row) != n for row in rows):
        raise ValueError(f"expected {n} rows of {n} entries, got lengths {[len(row) for row in rows]}")
    flat = [v for row in rows for v in row]
    # a NaN can hide from max, never from a sum
    if not math.isfinite(sum(map(abs, flat))):
        for k, v in enumerate(flat):
            if not math.isfinite(v):
                raise ValueError(f"non-finite entry {v} in matrix 0 at [{k // n}, {k % n}]")
    big = max(map(abs, flat), default=0.0)
    e = 0 if UNIT_LOW <= big <= UNIT_HIGH else math.frexp(big)[1]
    # the upper triangle mirrored, as a fresh matrix the sweep may overwrite
    a = [[rows[j][i] for j in range(i)] + rows[i][i:] for i in range(n)]
    if e:
        a = [[math.ldexp(v, -e) for v in row] for row in a]
    norm = math.sqrt(_pairwise_sum([v * v for row in a for v in row]))
    diagonal = _sweep_floats(a, OFFDIAG_TOL * norm, max_sweeps)
    if e:
        try:
            diagonal = [math.ldexp(v, e) for v in diagonal]
        except OverflowError:
            raise ValueError("an eigenvalue overflows the float range") from None
    out = sorted(diagonal)
    if 0.0 in out and len({math.copysign(1.0, v) for v in out if not v}) > 1:
        # -0.0 and 0.0 compare equal, and numpy's sort, the stack's, orders them its own way
        out = np.sort(diagonal).tolist()
    return out


def _pairwise_sum(a: list[float]) -> float:
    """``a`` summed in the order of numpy's pairwise ``add.reduce``, so with its bits."""
    n = len(a)
    if n < 8:
        total = 0.0
        for v in a:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    # eight running sums over the blocks of eight, then the rest one by one
    m = n - n % 8
    r = a[:8]
    for i in range(8, m, 8):
        r = [u + v for u, v in zip(r, a[i : i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in a[m:]:
        total += v
    return total


def _sweep_stack(b: np.ndarray, norms: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Sweep the symmetric ``(n, n, batch)`` array ``b`` in place; its ``(batch, n)`` diagonal.

    A matrix retires at the first convergence test it passes, as ``_sweep_floats``
    returns at it, so it gets the bits it gets alone: its diagonal is put aside
    then and written back at the end.  It goes on rotating, unread, in its column;
    compacting the stack instead costs fresh arrays whose page faults outweigh the
    rotations saved.
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


def _sweep_floats(a: list[list[float]], threshold: float, max_sweeps: int) -> list[float]:
    """Sweep one symmetric matrix held as rows of Python floats in place; its diagonal.

    Each entry gets the operations of ``_sweep_stack`` in the same order.
    """
    n = len(a)
    steps = _round_robin(n)[0]
    copysign, sqrt = math.copysign, math.sqrt
    for _ in range(max_sweeps):
        off = max((abs(v) for i, row in enumerate(a) for v in row[i + 1 :]), default=0.0)
        if not off > threshold:
            return [a[i][i] for i in range(n)]
        for step in steps:
            turns = []
            for p, q in step.pairs:
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                diff, den = aqq - app, 2.0 * apq
                if den:
                    theta = diff / den
                    t = copysign(1.0 / (abs(theta) + sqrt(theta * theta + 1.0)), theta)
                else:
                    # numpy's diff / ±0 is ±inf, giving t = ±0.0; its 0 / 0 is nan, reset to 0.0
                    t = copysign(0.0, diff) * copysign(1.0, den) if diff else 0.0
                c = 1.0 / sqrt(t * t + 1.0)
                a[p][p], a[q][q] = app - t * apq, aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                turns.append((p, q, c, t * c))
            for k, (p, q, c, s) in enumerate(turns):
                rp, rq = a[p], a[q]
                for pj, qj, cj, sj in turns[k + 1 :]:
                    w, x, y, z = rp[pj], rp[qj], rq[pj], rq[qj]
                    w, y = c * w - s * y, s * w + c * y
                    x, z = c * x - s * z, s * x + c * z
                    rp[pj] = a[pj][p] = cj * w - sj * x
                    rp[qj] = a[qj][p] = sj * w + cj * x
                    rq[pj] = a[pj][q] = cj * y - sj * z
                    rq[qj] = a[qj][q] = sj * y + cj * z
            for u in step.odd:
                for p, q, c, s in turns:
                    x, y = a[u][p], a[u][q]
                    a[u][p] = a[p][u] = c * x - s * y
                    a[u][q] = a[q][u] = s * x + c * y
    raise JacobiNonConvergence(f"no convergence after {max_sweeps} sweeps")


def spectrum_numeric(mat: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Full sorted spectrum of one symmetric matrix via round-robin Jacobi."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # a non-finite entry is left to jacobi_spectra, which names it; the
    # tolerance scales with the largest entry, so it holds at any scale
    if np.isfinite(m).all() and np.abs(m - m.T).max() > 1e-12 * np.abs(m).max():
        raise ValueError("matrix is not symmetric")
    return jacobi_spectra(m[None, :, :], max_sweeps=max_sweeps)[0]
