"""Round-robin (Brent-Luk) Jacobi eigensolver for dense symmetric matrices.

Independent of the closed-form cubic route; the two are cross-checked in
the test suite.  Each sweep is n - 1 steps (n for odd n) of n/2 disjoint
rotations.  A matrix is scaled by 2**-e, e = ``graphs.unit_exponents`` of
its largest entry, so its Frobenius norm, the convergence scale, cannot
overflow or underflow.  A step is the symmetric update (Rutishauser 1966):
a pair's diagonal moves by -+t a_pq and a_pq becomes 0; each 2x2 block between
pairs i < j is rotated once, rows by pair i, then columns by pair j; at odd n
the unpaired index's entries get each pair's columns.  At n <= 3 there is one
pair and no block, so a step rotates no block.  A block entry (r, c) is read
and written at its upper-triangle index, the same value by symmetry, so the
sweep reads and writes the upper triangle only, each entry once per step.

A stack is held as one ``(n(n+1)/2, batch)`` array of its upper triangle, so
each entry is a contiguous batch vector, with its rows in the current step's
order (``_Schedule``): the diagonal, the pairs' pq, the blocks, the odd
index's entries.  A step is then ~40 numpy calls whatever the batch, on
slices and reshaped views updated in place, each pair's cosine and sine
broadcast over its blocks, and one gather that puts the rows in the next
step's order.  A matrix leaves the stack at the first convergence test it
passes, so every matrix of a stack gets the bits it gets in a stack of its own.

One matrix goes to LAPACK instead: ``spectrum_numeric`` scales it by
``unit_scaled``'s e and calls ``np.linalg.eigvalsh`` on its upper triangle.
``forward_spectrum`` on K_n and every ``InverseSolution.residual`` call it;
the stack sweep stays their independent reference in the test suite.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .graphs import unit_exponents, unit_scaled

#: off-diagonal convergence threshold relative to the Frobenius norm
OFFDIAG_TOL = 1e-12

MAX_SWEEPS = 100


class JacobiNonConvergence(RuntimeError):
    """The sweep limit was hit before the off-diagonal mass vanished."""


class _Schedule(NamedTuple):
    """One sweep at order n: each step's order of the upper triangle's keys min * n + max.

    A step's layout lists each pair's pp, then each pair's qq, then the odd
    index's oo, so its first n rows are the diagonal; then each pair's pq; then,
    for each block i < j, (p_i p_j), (p_i q_j), (q_i p_j), (q_i q_j); then, for
    each pair j, (o p_j), (o q_j).
    """

    layouts: np.ndarray  # (steps, n(n+1)/2): each row's key, in the step's order
    perms: np.ndarray  # (steps, n(n+1)/2): layouts[k][perms[k]] is the next layout, the last's the first
    rows: slice | np.ndarray  # the pair i of each block i < j
    cols: slice | np.ndarray  # the pair j of each block
    vertex: np.ndarray  # (n,): the first layout's diagonal rows, in vertex order
    upper: np.ndarray  # the strict upper triangle's flat indices, and its mirror for the norm
    lower: np.ndarray


def _run(a: np.ndarray) -> slice | np.ndarray:
    """Indices ``a`` as a basic slice when they are one contiguous run, so a read by them is a view."""
    lo = int(a[0]) if a.size else 0
    return slice(lo, lo + a.size) if np.array_equal(a, np.arange(lo, lo + a.size)) else a


@functools.cache
def _round_robin(n: int) -> _Schedule:
    """Shared read-only schedule of one sweep at order n."""
    m = n + n % 2  # for odd n, a dummy index n pads the ring and its pair is dropped
    ring = np.arange(m)
    rows, cols = np.triu_indices(n // 2, 1)
    layouts = []
    for _ in range(m - 1):
        p, q = np.sort([ring[: m // 2], ring[::-1][: m // 2]], axis=0)
        odd, p, q = p[q == n], p[q < n], q[q < n]
        pairs = np.stack((p, q), axis=1)
        r, c = pairs[rows][:, :, None], pairs[cols][:, None, :]  # a block's rows and columns
        o = odd[:, None, None]
        layouts.append(np.concatenate((
            p * (n + 1), q * (n + 1), odd * (n + 1), p * n + q,
            (np.minimum(r, c) * n + np.maximum(r, c)).ravel(),  # (r, c) by symmetry
            (np.minimum(o, pairs) * n + np.maximum(o, pairs)).ravel(),
        )))
        ring[1:] = np.roll(ring[1:], 1)
    layouts = np.array(layouts)
    where = np.empty((len(layouts), n * n), dtype=np.intp)  # each key's row in each layout
    np.put_along_axis(where, layouts, np.arange(layouts.shape[1]), axis=1)
    perms = np.take_along_axis(where, np.roll(layouts, -1, axis=0), axis=1)
    i, j = np.triu_indices(n, 1)
    schedule = _Schedule(layouts, perms, _run(rows), _run(cols), where[0, :: n + 1], i * n + j, j * n + i)
    for a in schedule:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return schedule


def jacobi_spectra(mats: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Ascending eigenvalues of a (batch, n, n) stack of upper triangles of symmetric matrices."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected (batch, n, n) stack, got shape {mats.shape}")
    batch, n = mats.shape[:2]
    b = mats.transpose(1, 2, 0).copy()  # C-contiguous; a plain copy of a stack built by graphs
    big = np.maximum(b.max(axis=(0, 1), initial=0.0), -b.min(axis=(0, 1), initial=0.0))
    if not np.isfinite(big).all():
        k, i, j = np.argwhere(~np.isfinite(mats))[0]
        raise ValueError(f"non-finite entry {mats[k, i, j]} in matrix {k} at [{i}, {j}]")
    e = unit_exponents(big)
    scaled = e.any()  # ldexp(x, 0) is x
    if scaled:
        np.ldexp(b, -e, out=b)
    schedule = _round_robin(n)
    flat = b.reshape(n * n, batch)
    # the sweep reads the upper triangle only; numpy's norm reads both
    flat[schedule.lower] = flat[schedule.upper]
    norms = np.linalg.norm(b, axis=(0, 1))
    diagonal = _sweep_stack(flat[schedule.layouts[0]], n, norms, max_sweeps)
    if scaled:
        with np.errstate(over="ignore"):
            np.ldexp(diagonal, e[:, None], out=diagonal)
        if not np.isfinite(diagonal).all():
            raise ValueError("an eigenvalue overflows the float range")
    diagonal.sort(axis=1)
    return diagonal


def _rotate(x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """Set x, y to c x - s y, s x + c y in place, with the products and sums as written."""
    sy, sx = s * y, s * x
    x *= c
    x -= sy
    y *= c
    y += sx


def _sweep_stack(u: np.ndarray, n: int, norms: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Sweep the ``(n(n+1)/2, batch)`` stack ``u``, rows in the first layout of ``_round_robin(n)``.

    Returns the ``(batch, n)`` diagonals, C-contiguous, in vertex order, since
    numpy's sort places 0.0 and -0.0 by their input order.  A step's pp, qq
    and pq are the slices ``u[:P]``, ``u[P:2P]`` and ``u[n:n+P]`` of its P
    pairs; their angles and the diagonal's turn are ~20 numpy calls on them.
    The blocks' rows, then their columns, and the odd index's columns are
    rotated in place on reshaped views of the rows after them, each pair's
    ``c``, ``s`` broadcast over its block.  Then one gather, ``u[perm]``, puts
    the rows in the next step's order.

    A matrix retires at the first convergence test it passes, so it gets the
    bits it gets alone: its diagonal is put aside then and written back at the
    end.  It goes on rotating, unread, in its column; compacting the stack
    instead costs fresh arrays whose page faults outweigh the rotations saved.
    """
    schedule = _round_robin(n)
    batch, pairs = u.shape[1], n // 2
    blocks = pairs * (pairs - 1) // 2
    pp, qq, pq = slice(0, pairs), slice(pairs, 2 * pairs), slice(n, n + pairs)
    block, odd = slice(n + pairs, n + pairs + 4 * blocks), slice(n + pairs + 4 * blocks, None)
    rows, cols = schedule.rows, schedule.cols
    limit = OFFDIAG_TOL * norms
    live, left = np.ones(batch, dtype=bool), batch  # the matrices not yet retired
    retired = []  # the matrices retired at each earlier test, and their diagonals
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_sweeps):
            off = np.abs(u[n:])
            going = off.max(axis=0, initial=0.0) > limit
            going &= live
            count = np.count_nonzero(going)
            if not count:
                for done, values in retired:
                    u[:n, done] = values
                return u[schedule.vertex].T.copy()
            if count < left:
                done = np.flatnonzero(live ^ going)
                retired.append((done, u[:n, done]))
                live, left = going, count
            for perm in schedule.perms:
                # angles from the entries before the step: disjoint rotations commute
                theta = u[qq] - u[pp]
                theta /= 2.0 * u[pq]
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
                np.multiply(t, u[pq], out=theta)  # the diagonal's turn
                u[pp] -= theta
                u[qq] += theta
                u[pq] = 0.0
                s = np.multiply(t, c, out=t)
                # p becomes c p - s q and q becomes s p + c q: each block's rows by
                # its pair i, then its columns by its pair j, then the odd index's
                if blocks:
                    h = u[block].reshape(blocks, 2, 2, batch)
                    _rotate(h[:, 0], h[:, 1], c[rows, None], s[rows, None])
                    _rotate(h[:, :, 0], h[:, :, 1], c[cols, None], s[cols, None])
                if n % 2:
                    g = u[odd].reshape(pairs, 2, batch)
                    _rotate(g[:, 0], g[:, 1], c, s)
                u = u[perm]
    raise JacobiNonConvergence(f"no convergence after {max_sweeps} sweeps")


def spectrum_numeric(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix: LAPACK's ``eigvalsh`` on its upper triangle.

    Only the upper triangle is read, once the matrix passes the symmetry test
    (to 1e-12 of its largest entry).  It is scaled by ``unit_scaled``'s 2**-e
    for the call and its eigenvalues scaled back, so none over- or underflows.
    At e = 0 it goes to LAPACK as it is: its entries are at most 2**60, so no
    eigenvalue can overflow.
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
    e = unit_scaled((big,))[1]
    if not e:
        return np.linalg.eigvalsh(m, UPLO="U")
    spec = np.linalg.eigvalsh(np.ldexp(m, -e), UPLO="U")
    with np.errstate(over="ignore"):
        spec = np.ldexp(spec, e)
    if not np.isfinite(spec).all():
        raise ValueError("an eigenvalue overflows the float range")
    return spec
