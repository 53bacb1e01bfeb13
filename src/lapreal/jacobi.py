"""Round-robin (Brent-Luk) Jacobi eigensolver for dense symmetric matrices.

Independent of the closed-form cubic route; the two are cross-checked in
the test suite.  Each sweep is n - 1 steps (n for odd n) of n/2 disjoint
rotations.  A matrix is scaled by ``graphs.unit_scaled``'s rule, so its
Frobenius norm, the convergence scale, cannot overflow or underflow.

Two sweeps run the same schedule.  A stack is held as one ``(n, n, batch)``
array, so each entry is a contiguous batch vector and a step is ~40 numpy
calls whatever the batch.  One matrix of order up to ``FLOAT_SWEEP_MAX_ORDER``
is swept on Python floats instead: a numpy call costs microseconds however
few entries it touches, while the float loop pays per entry, n^2 updates a
step.  On single K_n Laplacians the float sweep is ~2.5x faster at n = 8,
~1.1x at n = 15 and ~1.1x slower at n = 16, the measured crossover.  It
makes the same IEEE operations per entry in the same order, so a matrix swept
alone and a stack of copies of it give the same bits.  A stack of different
matrices is not bit-identical to sweeping each alone: every matrix keeps
rotating until the slowest one has converged, and the extra rotations can
move a near-zero eigenvalue by ~1e-22.  On 2500 seeded weightings of each
four-vertex graph this moved the zero eigenvalue of 249-546 of them; the
other three eigenvalues kept their bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import UNIT_HIGH, UNIT_LOW

#: off-diagonal convergence threshold relative to the Frobenius norm
OFFDIAG_TOL = 1e-12

MAX_SWEEPS = 100

#: largest order of a single matrix swept on Python floats (the measured crossover)
FLOAT_SWEEP_MAX_ORDER = 15


class JacobiNonConvergence(RuntimeError):
    """The sweep limit was hit before the off-diagonal mass vanished."""


@functools.cache
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """One sweep: steps ``(p, q, perm)`` of disjoint pairs p < q, ``perm`` swapping each.

    Built once per order and shared, so the index arrays are read-only.
    """
    m = n + n % 2  # for odd n, a dummy index n pads the ring and its pair is dropped
    ring = np.arange(m)
    steps = []
    for _ in range(m - 1):
        p, q = np.sort([ring[: m // 2], ring[::-1][: m // 2]], axis=0)
        p, q = p[q < n], q[q < n]
        perm = np.arange(n)
        perm[p], perm[q] = q, p
        for a in (p, q, perm):
            a.flags.writeable = False
        steps.append((p, q, perm))
        ring[1:] = np.roll(ring[1:], 1)
    return tuple(steps)


def jacobi_spectra(mats: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a (batch, n, n) stack of symmetric matrices, ascending."""
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
    norms = np.linalg.norm(b, axis=(0, 1))
    if batch == 1 and n <= FLOAT_SWEEP_MAX_ORDER:
        diagonal = [_sweep_floats(b[:, :, 0].tolist(), float(OFFDIAG_TOL * norms[0]), max_sweeps)]
    else:
        diagonal = _sweep_stack(b, norms, max_sweeps)
    with np.errstate(over="ignore"):
        diagonal = np.ldexp(diagonal, e[:, None])
    if not np.isfinite(diagonal).all():
        raise ValueError("an eigenvalue overflows the float range")
    return np.sort(diagonal, axis=1)


def _sweep_stack(b: np.ndarray, norms: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Sweep the ``(n, n, batch)`` array ``b`` in place; its ``(batch, n)`` diagonal."""
    n, _, batch = b.shape
    off_mask = ~np.eye(n, dtype=bool)
    steps = _round_robin(n)
    for _ in range(max_sweeps):
        off = np.abs(b[off_mask]).max(axis=0, initial=0.0)
        if not np.any(off > OFFDIAG_TOL * norms):
            return b.diagonal()
        for p, q, perm in steps:
            # angles from the entries before the step: disjoint rotations commute
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = (b[q, q] - b[p, p]) / (2.0 * b[p, q])
                t = np.copysign(1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0)), theta)
            t[np.isnan(t)] = 0.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            cv, sv = np.ones((n, batch)), np.zeros((n, batch))
            cv[p] = cv[q] = c
            sv[p], sv[q] = -t * c, t * c
            # rows, then columns: p becomes c p - s q and q becomes s p + c q
            for side in (b, b.transpose(1, 0, 2)):
                turned = side[perm]
                turned *= sv[:, None]
                side *= cv[:, None]
                side += turned
            b[p, q] = b[q, p] = 0.0
    raise JacobiNonConvergence(f"no convergence after {max_sweeps} sweeps")


def _sweep_floats(a: list[list[float]], threshold: float, max_sweeps: int) -> list[float]:
    """Sweep one matrix held as rows of Python floats in place; its diagonal.

    Each entry gets the operations of ``_sweep_stack`` in the same order:
    every pair's rows, then every pair's columns, then the pair's entries set
    to 0.0.  A row left unpaired is skipped; the stack sweep's ``x*1 + x*0``
    leaves its bits as they are, since the rotations keep every entry finite
    (below the Frobenius norm).
    """
    n = len(a)
    steps = [tuple(zip(p.tolist(), q.tolist())) for p, q, _ in _round_robin(n)]
    copysign, sqrt = math.copysign, math.sqrt
    for _ in range(max_sweeps):
        off = max((abs(v) for i, row in enumerate(a) for v in row[:i] + row[i + 1 :]), default=0.0)
        if not off > threshold:
            return [a[i][i] for i in range(n)]
        for pairs in steps:
            turns = []
            for p, q in pairs:
                rp, rq = a[p], a[q]
                diff, den = rq[q] - rp[p], 2.0 * rp[q]
                if den:
                    theta = diff / den
                    t = copysign(1.0 / (abs(theta) + sqrt(theta * theta + 1.0)), theta)
                else:
                    # numpy's diff / ±0 is ±inf, giving t = ±0.0; its 0 / 0 is nan, reset to 0.0
                    t = copysign(0.0, diff) * copysign(1.0, den) if diff else 0.0
                c = 1.0 / sqrt(t * t + 1.0)
                sp, sq = -t * c, t * c
                a[p] = [x * c + y * sp for x, y in zip(rp, rq)]
                a[q] = [y * c + x * sq for x, y in zip(rp, rq)]
                turns.append((p, q, c, sp, sq))
            for row in a:
                for p, q, c, sp, sq in turns:
                    x, y = row[p], row[q]
                    row[p] = x * c + y * sp
                    row[q] = y * c + x * sq
            for p, q in pairs:
                a[p][q] = a[q][p] = 0.0
    raise JacobiNonConvergence(f"no convergence after {max_sweeps} sweeps")


def spectrum_numeric(mat: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Full sorted spectrum of one symmetric matrix via round-robin Jacobi."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # a non-finite entry is left to jacobi_spectra, which names it; the
    # tolerance scales with the largest entry, so it holds at any scale
    if np.isfinite(m).all() and not np.allclose(m, m.T, atol=1e-12 * np.abs(m).max()):
        raise ValueError("matrix is not symmetric")
    return jacobi_spectra(m[None, :, :], max_sweeps=max_sweeps)[0]
