"""Barycentric realizability grids and the CSV / SVG emitters.

The grid holds one membership bit per topology for every lattice point
(i, j, k) with i + j + k = resolution on the eigenvalue simplex
x + y + z = normalization.  The SVG reproduces the five region panels:
realizable interior cells in gray, realizable cells with a zero
coordinate in black, the rest white.

A spectrum is a multiset, so every criterion is a symmetric function of
(x, y, z): the grid evaluates each mask once per permutation orbit, on its
sorted point, and copies the verdict to the orbit.  This is exact, as the
masks on the full lattice give every point of an orbit the same bits
(checked at every resolution 2..400 and at 700, 1000, 1500 and 2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import FOUR_VERTEX_KINDS
from .realizability import MASKS

PANEL_ORDER = (*FOUR_VERTEX_KINDS, "k4")

#: panel titles that differ from the panel's name
_TITLES = {"k4": "K4"}

GRAY = "#808080"
BLACK = "#000000"
WHITE = "#ffffff"

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class RegionGrid:
    resolution: int
    normalization: float
    bary: np.ndarray  # (cells, 3) integer lattice coordinates
    masks: np.ndarray  # (cells, 5) booleans in PANEL_ORDER

    @property
    def cell_count(self) -> int:
        return self.bary.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.masks[:, PANEL_ORDER.index(name)]

    def coords(self) -> np.ndarray:
        """Scaled (x, y, z) coordinates of every lattice point."""
        return self.bary * (self.normalization / self.resolution)


def evaluate_grid(resolution: int, normalization: float = 1.0) -> RegionGrid:
    """Evaluate all five predicates on the barycentric lattice."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if not (math.isfinite(normalization) and normalization > 0):
        raise ValueError(f"normalization must be positive and finite, got {normalization}")
    # lattice points (i, j, resolution - i - j) by i, then j; k = i + j
    i, k = np.triu_indices(resolution + 1)
    a, b, c = i, k - i, resolution - k
    bary = np.column_stack([a, b, c])
    # each mask runs on the sorted points a <= b <= c only (module docstring):
    # orbit[n] is lattice point n's sorted point, found by its (lo, mid) in a
    # table of (res // 3 + 1) * (res + 1) keys, as lo <= res / 3
    lo = np.minimum(np.minimum(a, b), c)
    mid = resolution - lo - np.maximum(np.maximum(a, b), c)
    reps = np.flatnonzero((a <= b) & (b <= c))
    table = np.empty((resolution // 3 + 1) * (resolution + 1), dtype=np.intp)
    table[a[reps] * (resolution + 1) + b[reps]] = np.arange(reps.size)
    orbit = table[lo * (resolution + 1) + mid]
    # the criteria are homogeneous: evaluated on the unit simplex, the
    # masks cannot overflow or underflow at any normalization
    scale = 1.0 / resolution
    x, y, z = a[reps] * scale, b[reps] * scale, c[reps] * scale
    masks = np.column_stack(
        [MASKS["complete" if name == "k4" else name](x, y, z) for name in PANEL_ORDER]
    )
    # take copies whole rows; masks[orbit] is ~4x slower on a (cells, 5) array
    return RegionGrid(resolution, normalization, bary, masks.take(orbit, axis=0))


#: cells gathered into one string and written at a time, so memory stays
#: bounded at any resolution
CSV_CHUNK = 8192

# CSV bits of each packed mask code, ending its row; the highest of the
# five bits is PANEL_ORDER[0]
_WEIGHTS = np.array([16, 8, 4, 2, 1], dtype=np.uint8)
_BITS = np.array([",".join(format(code, "05b")) + "\n" for code in range(32)], dtype=object)


def write_csv(grid: RegionGrid, path: str) -> None:
    """CSV with header x,y,z,star,cycle,path,kite,k4; booleans as 0/1."""
    res = grid.resolution
    # every coordinate is bary * scale, exactly as coords() computes it,
    # so each of the res + 1 distinct values is formatted once
    values = (np.arange(res + 1) * (grid.normalization / res)).tolist()
    labels = np.array([format(v, ".9g") + "," for v in values], dtype=object)
    codes = grid.masks.view(np.uint8) @ _WEIGHTS
    table = np.empty((CSV_CHUNK, 4), dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,z,star,cycle,path,kite,k4\n")
        for start in range(0, grid.cell_count, CSV_CHUNK):
            rows = table[: min(CSV_CHUNK, grid.cell_count - start)]
            stop = start + len(rows)
            rows[:, :3] = labels[grid.bary[start:stop]]
            rows[:, 3] = _BITS[codes[start:stop]]
            fh.write("".join(rows.ravel().tolist()))


def _cartesian(i: int, j: int, k: int, res: int) -> tuple[float, float]:
    # barycentric (x, y, z) -> ((z - x)/(x+y+z), sqrt(3)*y/(x+y+z));
    # vertices map to (-1, 0), (0, sqrt(3)), (1, 0)
    return (k - i) / res, SQRT3 * j / res


def _row_runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True in each row of a 2-D array: arrays row, start, stop (inclusive)."""
    rows, cols = flags.shape
    padded = np.zeros((rows, cols + 2), dtype=bool)
    padded[:, 1:-1] = flags
    # every padded row starts and ends False, so its changes pair up as
    # (start, stop + 1) and the flat list of changes pairs up in order
    row, col = np.divmod(np.flatnonzero(np.diff(padded, axis=1)), cols + 1)
    return row[::2], col[::2], col[1::2] - 1


def _panel_elements(grid: RegionGrid, columns: np.ndarray) -> list[list[str]]:
    """The <rect> and <line> elements of one panel per column of a (cells, panels) mask."""
    res = grid.resolution
    n = res + 1
    cell = 1.0 / res
    half_h = SQRT3 / (2.0 * res)
    # flags[p, j, i] is panel p's flag of lattice point (i, j, res - i - j),
    # so each lattice row is one row of the panel; unset entries stay False
    flags = np.zeros((columns.shape[1], n, n), dtype=bool)
    flags[:, grid.bary[:, 1], grid.bary[:, 0]] = columns.T
    # gray interior: one rectangle per run of realizable points in a row.
    # A run (j, a, b) starts at x = (res - j - 2b) / res - cell, so the x, y
    # and width labels come from tables of their few distinct values
    xs = [f"{v:.6f}" for v in (np.arange(-res, res + 1) / res - cell).tolist()]
    ys = [f"{v:.6f}" for v in (SQRT3 * np.arange(n) / res - half_h).tolist()]
    height = f"{2 * half_h:.6f}"
    row, a, b = _row_runs(flags.reshape(-1, n))
    p, j = np.divmod(row, n)
    width = (res - j - 2 * a) / res - (res - j - 2 * b) / res + 2 * cell
    widths, width_of = np.unique(width, return_inverse=True)
    ws = [f"{v:.6f}" for v in widths.tolist()]
    rects = [
        f'<rect x="{xs[x]}" y="{ys[y]}" width="{ws[w]}" height="{height}" fill="{GRAY}"/>'
        for x, y, w in zip((2 * res - j - 2 * b).tolist(), j.tolist(), width_of.tolist())
    ]
    # runs come panel by panel, so each panel's rects are one slice
    ends = np.cumsum(np.bincount(p, minlength=columns.shape[1])).tolist()
    panels = [rects[start:stop] for start, stop in zip([0] + ends, ends)]
    # black overlay: realizable points with some zero coordinate
    stroke = f"{1.8 * cell:.6f}"
    idx = np.arange(n)
    # lattice point (i, j) at position t along each edge
    edge_points = (
        lambda t: (t, 0),  # bottom edge, y = 0
        lambda t: (0, t),  # left edge, x = 0
        lambda t: (res - t, t),  # right edge, z = 0
    )
    edge_flags = np.stack([flags[:, 0, :], flags[:, :, 0], flags[:, idx, res - idx]], axis=1)
    for row, a, b in np.column_stack(_row_runs(edge_flags.reshape(-1, n))).tolist():
        p, edge = divmod(row, len(edge_points))
        i0, j0 = edge_points[edge](a)
        i1, j1 = edge_points[edge](b)
        x0, y0 = _cartesian(i0, j0, res - i0 - j0, res)
        x1, y1 = _cartesian(i1, j1, res - i1 - j1, res)
        panels[p].append(
            f'<line x1="{x0:.6f}" y1="{y0:.6f}" x2="{x1:.6f}" y2="{y1:.6f}" '
            f'stroke="{BLACK}" stroke-width="{stroke}" stroke-linecap="round"/>'
        )
    return panels


def write_svg(grid: RegionGrid, path: str) -> None:
    """Standalone SVG 1.1 document with one <g> panel per topology."""
    scale = 160.0
    panel_w = 2.4 * scale
    panel_h = 2.2 * scale
    total_w = panel_w * len(PANEL_ORDER)
    tri = f"-1,0 1,0 0,{SQRT3:.6f}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w:.0f}" height="{panel_h:.0f}" '
        f'viewBox="0 0 {total_w:.0f} {panel_h:.0f}">',
        "<!-- barycentric map: (x,y,z) -> ((z-x)/(x+y+z), sqrt(3)*y/(x+y+z)); "
        "triangle vertices (-1,0), (1,0), (0,sqrt(3)) -->",
        "<defs>",
        f'<clipPath id="tri"><polygon points="{tri}"/></clipPath>',
        "</defs>",
        f'<rect width="{total_w:.0f}" height="{panel_h:.0f}" fill="{WHITE}"/>',
    ]
    for idx, (name, elements) in enumerate(zip(PANEL_ORDER, _panel_elements(grid, grid.masks))):
        cx = panel_w * idx + panel_w / 2.0
        base_y = panel_h - 0.25 * scale
        parts.append(
            f'<g id="panel-{name}" transform="translate({cx:.1f},{base_y:.1f}) '
            f'scale({scale:.0f},{-scale:.0f})">'
        )
        parts.append(f'<polygon points="{tri}" fill="{WHITE}"/>')
        parts.append('<g clip-path="url(#tri)">')
        parts.extend(elements)
        parts.append("</g>")
        parts.append(
            f'<polygon points="{tri}" fill="none" stroke="{BLACK}" stroke-width="0.012"/>'
        )
        parts.append("</g>")
        parts.append(
            f'<text x="{cx:.1f}" y="{panel_h - 8:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_TITLES.get(name, name)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def render_region(
    resolution: int,
    normalization: float = 1.0,
    csv_path: str | None = None,
    svg_path: str | None = None,
) -> RegionGrid:
    """Evaluate the grid and emit the requested files."""
    grid = evaluate_grid(resolution, normalization)
    if csv_path:
        write_csv(grid, csv_path)
    if svg_path:
        write_svg(grid, svg_path)
    return grid
