"""Graph topologies and weighted Laplacian construction.

Supported topologies are the four-vertex star, cycle, path and kite
graphs plus complete graphs K_n.  ``_EDGE_LISTS`` is the one registry of
the four-vertex kinds: ``FOUR_VERTEX_KINDS`` and ``STAR``...``KITE`` are
read off it, and every per-kind table (``COEFFS``, ``MASKS``, ``CHECKS``,
``INVERTERS``) and kind list (the region panels, the CLI graphs, the
oracle's streams) follows its order.

Edge-index conventions (vertices are 0-based internally; the docs below
use the 1-based labels of the figures):

* star:  e1 = v1v4, e2 = v2v4, e3 = v3v4 (v4 is the center)
* cycle: e1 = v1v2, e2 = v2v3, e3 = v3v4, e4 = v4v1
* path:  e1 = v1v2, e2 = v2v3, e3 = v3v4 (cycle with the v4v1 weight 0)
* kite:  e1 = v1v2, e2 = v2v3, e3 = v1v3, e4 = v3v4
* complete(n): edges (i, j), i < j, in lexicographic order
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COMPLETE_KIND = "complete"

_EDGE_LISTS = {
    "star": ((0, 3), (1, 3), (2, 3)),
    "cycle": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "path": ((0, 1), (1, 2), (2, 3)),
    "kite": ((0, 1), (1, 2), (0, 2), (2, 3)),
}

FOUR_VERTEX_KINDS = tuple(_EDGE_LISTS)


@dataclass(frozen=True)
class Topology:
    """A supported graph topology with a fixed edge ordering."""

    kind: str
    order: int = 4

    def __post_init__(self):
        if self.kind in FOUR_VERTEX_KINDS:
            if self.order != 4:
                raise ValueError(f"{self.kind} graph must have 4 vertices, got {self.order}")
        elif self.kind == COMPLETE_KIND:
            if self.order < 2:
                raise ValueError(f"complete graph needs order >= 2, got {self.order}")
        else:
            raise ValueError(f"unknown topology kind {self.kind!r}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self.kind == COMPLETE_KIND:
            n = self.order
            return tuple((i, j) for i in range(n) for j in range(i + 1, n))
        return _EDGE_LISTS[self.kind]

    @property
    def edge_count(self) -> int:
        if self.kind == COMPLETE_KIND:
            return self.order * (self.order - 1) // 2
        return len(_EDGE_LISTS[self.kind])


STAR, CYCLE4, PATH4, KITE = map(Topology, FOUR_VERTEX_KINDS)


def complete(n: int) -> Topology:
    """Complete graph K_n."""
    return Topology(COMPLETE_KIND, n)


def float_weights(topology: Topology, weights) -> tuple[float, ...]:
    """The weights for ``topology`` as Python floats; a wrong count, NaN, inf or negative raises."""
    try:
        w = tuple(map(float, weights))
    except TypeError:
        raise ValueError(f"expected a flat sequence of edge weights, got {weights!r}") from None
    if len(w) != topology.edge_count:
        raise ValueError(
            f"{topology.kind} graph expects {topology.edge_count} weights, got {len(w)}"
        )
    for v in w:
        if not math.isfinite(v):
            raise ValueError(f"non-finite edge weight {v} in {weights!r}")
    if any(v < 0 for v in w):
        raise ValueError(f"negative edge weight in {weights!r}")
    return w


def build_laplacian(topology: Topology, weights) -> np.ndarray:
    """Weighted (degree minus adjacency) Laplacian as a dense symmetric array.

    Rows sum to zero by construction; zero weights are allowed and act as
    deleted edges.  A degree past the float range raises, naming its vertex.
    """
    w = float_weights(topology, weights)
    n = topology.order
    rows = [[0.0] * n for _ in range(n)]
    for (i, j), wij in zip(topology.edges, w):
        rows[i][i] += wij
        rows[j][j] += wij
        rows[i][j] -= wij
        rows[j][i] -= wij
    for v in range(n):
        if rows[v][v] == math.inf:
            raise ValueError(f"degree of vertex {v} overflows the float range")
    return np.array(rows)


def _checked_stack(topology: Topology, weight_rows, size: int, add, label: str) -> np.ndarray:
    """The ``(batch, size, size)`` view of a zeroed ``(size, size, batch)`` array filled by ``add(array, w)``.

    ``w`` is ``weight_rows`` as a float array, checked before ``add`` runs: a
    shape other than ``(batch, edge_count)``, a NaN, an inf or a negative
    weight raises.  After it, the diagonal is checked for overflow: the first
    row that holds an inf, then its first such entry v, raises, named by
    ``label.format(v=v)``.  The diagonal bounds every entry: in each stack
    built here, an off-diagonal entry sums, with signs, some of the weights
    its row's diagonal entry sums, in the same order.
    """
    w = np.asarray(weight_rows, dtype=float)
    if w.ndim != 2 or w.shape[1] != topology.edge_count:
        raise ValueError(f"expected shape (batch, {topology.edge_count}), got {w.shape}")
    finite = np.isfinite(w)
    if not finite.all():
        raise ValueError(f"non-finite edge weight {w[~finite][0]}")
    if np.any(w < 0):
        raise ValueError("negative edge weight")
    stack = np.zeros((size, size, w.shape[0]))
    with np.errstate(over="ignore"):
        add(stack, w)
    overflow = np.isinf(stack.diagonal(axis1=0, axis2=1))  # (batch, size)
    if overflow.any():
        k, v = np.argwhere(overflow)[0]
        raise ValueError(f"{label.format(v=v)} in row {k} overflows the float range")
    return stack.transpose(2, 0, 1)


def build_laplacians(topology: Topology, weight_rows: np.ndarray) -> np.ndarray:
    """Vectorized :func:`build_laplacian` for a (batch, edge_count) array.

    The stack is built as an ``(n, n, batch)`` array, so each entry is a
    contiguous batch vector, and returned as its ``(batch, n, n)`` transposed
    view, which ``jacobi_spectra`` takes back to that layout with a plain copy.
    The weights and the degrees are checked as by :func:`deflated_laplacians`,
    whose blocks are built in the same layout.
    """

    def add(lap, w):
        for k, (i, j) in enumerate(topology.edges):
            wk = w[:, k]
            lap[i, i] += wk
            lap[j, j] += wk
            lap[i, j] -= wk
            lap[j, i] -= wk

    return _checked_stack(topology, weight_rows, topology.order, add, "degree of vertex {v}")


#: the rows of the Hadamard matrix H4: H4 / 2 is orthonormal, its first row along (1, 1, 1, 1)
_H4 = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _deflated_sums(edges) -> dict:
    """Each upper entry (a, b) of a deflated block and its terms (k, sign), in edge order.

    In the basis H4 / 2 an edge (i, j) of weight w adds w s s^T, where s_a =
    (H4[a, i] - H4[a, j]) / 2 is -1, 0 or 1; the first row's s is 0.
    """
    s = [[(h[i] - h[j]) // 2 for i, j in edges] for h in _H4[1:]]
    return {
        (a, b): tuple((k, s[a][k] * s[b][k]) for k in range(len(edges)) if s[a][k] * s[b][k])
        for a in range(3)
        for b in range(a, 3)
    }


_DEFLATED_SUMS = {kind: _deflated_sums(edges) for kind, edges in _EDGE_LISTS.items()}


def deflated_laplacians(topology: Topology, weight_rows: np.ndarray) -> np.ndarray:
    """The ``(batch, 3, 3)`` lower blocks of the four-vertex Laplacians in the basis H4 / 2.

    Every four-vertex Laplacian L has the null vector (1, 1, 1, 1), the first
    row of H4, so (H4 / 2) L (H4 / 2)^T is 0 but for its lower 3x3 block,
    whose eigenvalues are L's other three.  Each entry is a signed sum of
    weights, added in edge order, so every call gives the same bits; only the
    upper triangle is filled.  The weights are checked as by
    :func:`build_laplacians`, and a diagonal entry past the float range
    raises, as a degree does there.
    """
    if topology.kind not in _DEFLATED_SUMS:
        raise ValueError(f"deflated_laplacians applies to the four-vertex topologies, got {topology.kind!r}")
    sums = _DEFLATED_SUMS[topology.kind]

    def add(block, w):
        for (a, b), terms in sums.items():
            entry = block[a, b]
            for k, sign in terms:
                (np.add if sign > 0 else np.subtract)(entry, w[:, k], out=entry)

    return _checked_stack(topology, weight_rows, 3, add, "entry [{v}, {v}] of the deflated block")


def scale_weights(weights, factor: float) -> np.ndarray:
    """Multiply every edge weight by ``factor`` (> 0).

    The spectrum of the scaled graph is ``factor`` times the original one.
    """
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return np.asarray(weights, dtype=float) * factor


#: magnitudes at which criteria, cubics and Jacobi sweeps take values as given
UNIT_LOW, UNIT_HIGH = 2.0**-60, 2.0**60


def unit_scaled(values) -> tuple[tuple[float, ...], int]:
    """Nonnegative floats ``values`` times 2**-e, and ``e``: the one, exact, scale rule.

    e = 0 if the largest value is 0 or in [UNIT_LOW, UNIT_HIGH], else its frexp exponent.
    """
    big = max(values)
    if UNIT_LOW <= big <= UNIT_HIGH:
        return values, 0
    e = math.frexp(big)[1]
    return tuple(math.ldexp(v, -e) for v in values), e
