"""Graph topologies and weighted Laplacian construction.

Supported topologies are the four-vertex star, cycle, path and kite
graphs plus complete graphs K_n.  ``_EDGE_LISTS`` is the one registry of
the four-vertex kinds: ``FOUR_VERTEX_KINDS`` and ``STAR``...``KITE`` are
read off it, and every per-kind table (``COEFFS``, ``MASKS``, ``CHECKS``,
``INVERTERS``) and kind list (the region panels, the CLI graphs, the
oracle's streams) follows its order.  One signed-edge loop builds both
Laplacian stacks: an edge (i, j) of L is the signed edge (i, j, -1), and in
the basis H4 / 2 the signed edge on three vertices in ``_DEFLATED_EDGES``.

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


def float_weight_rows(topology: Topology, weight_rows) -> np.ndarray:
    """Batch :func:`float_weights`: a ``(batch, edge_count)`` float array; NaN, inf or negative raises."""
    w = np.asarray(weight_rows, dtype=float)
    if w.ndim != 2 or w.shape[1] != topology.edge_count:
        raise ValueError(f"expected shape (batch, {topology.edge_count}), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"non-finite edge weight {w[~np.isfinite(w)][0]}")
    if np.any(w < 0):
        raise ValueError("negative edge weight")
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


def _signed_stack(w: np.ndarray, edges, size: int, label: str) -> np.ndarray:
    """``(batch, size, size)`` Laplacians of the signed graph ``edges``, one per row of ``w``.

    Edge k = (a, b, sign) of weight w adds w to [a, a] and [b, b] and sign * w
    to [a, b] and [b, a], in edge order, into a zeroed ``(size, size, batch)``
    array; its transposed view is returned.  The first row with an inf on the
    diagonal, at its first such entry v, raises, named by ``label.format(v=v)``.
    The diagonal bounds every entry: an off-diagonal sums, with signs, some of
    the weights its row's diagonal sums.
    """
    stack = np.zeros((size, size, w.shape[0]))
    with np.errstate(over="ignore"):
        for k, (a, b, sign) in enumerate(edges):
            wk = w[:, k]
            stack[a, a] += wk
            stack[b, b] += wk
            if sign < 0:
                wk = -wk  # a - w and a + (-w) are the same float
            stack[a, b] += wk
            stack[b, a] += wk
    overflow = np.isinf(stack.diagonal(axis1=0, axis2=1))  # (batch, size)
    if overflow.any():
        k, v = np.argwhere(overflow)[0]
        raise ValueError(f"{label.format(v=v)} in row {k} overflows the float range")
    return stack.transpose(2, 0, 1)


def build_laplacians(topology: Topology, weight_rows: np.ndarray) -> np.ndarray:
    """Vectorized :func:`build_laplacian` for a (batch, edge_count) array: edge (i, j) is (i, j, -1).

    The ``(n, n, batch)`` layout keeps each entry a contiguous batch vector, and
    ``jacobi_spectra`` takes the ``(batch, n, n)`` view back to it with a plain copy.
    """
    w = float_weight_rows(topology, weight_rows)
    edges = [(i, j, -1) for i, j in topology.edges]
    return _signed_stack(w, edges, topology.order, "degree of vertex {v}")


#: the rows of the Hadamard matrix H4: H4 / 2 is orthonormal, its first row along (1, 1, 1, 1)
_H4 = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _deflated_edge(i: int, j: int) -> tuple[int, int, int]:
    """Edge (i, j) in the basis H4 / 2 as the signed edge (a, b, s_a * s_b) on three vertices.

    The edge adds w s s^T, where s_r = (H4[r + 1, i] - H4[r + 1, j]) / 2 is
    -1, 0 or 1 and is nonzero at exactly two places, a < b.
    """
    s = [(h[i] - h[j]) // 2 for h in _H4[1:]]
    a, b = (r for r in range(3) if s[r])
    return a, b, s[a] * s[b]


_DEFLATED_EDGES = {kind: tuple(_deflated_edge(*e) for e in edges) for kind, edges in _EDGE_LISTS.items()}


def deflated_laplacians(topology: Topology, weight_rows: np.ndarray) -> np.ndarray:
    """The ``(batch, 3, 3)`` lower blocks of the four-vertex Laplacians in the basis H4 / 2.

    Every four-vertex Laplacian L has the null vector (1, 1, 1, 1), the first
    row of H4, so (H4 / 2) L (H4 / 2)^T is 0 but for its lower 3x3 block,
    whose eigenvalues are L's other three.  The block is the Laplacian of a
    signed graph on three vertices (``_DEFLATED_EDGES``), built in full by
    :func:`_signed_stack` as L is; a diagonal entry past the float range raises.
    """
    if topology.kind not in _DEFLATED_EDGES:
        raise ValueError(f"deflated_laplacians applies to the four-vertex topologies, got {topology.kind!r}")
    w = float_weight_rows(topology, weight_rows)
    return _signed_stack(w, _DEFLATED_EDGES[topology.kind], 3, "entry [{v}, {v}] of the deflated block")


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


def unit_exponents(big: np.ndarray) -> np.ndarray:
    """:func:`unit_scaled`'s e per entry: 0 if 0 or in [UNIT_LOW, UNIT_HIGH], else the frexp exponent."""
    return np.where((UNIT_LOW <= big) & (big <= UNIT_HIGH), 0, np.frexp(big)[1])
