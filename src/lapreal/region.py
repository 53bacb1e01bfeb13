"""Barycentric realizability grids and the CSV / SVG emitters.

The grid holds one membership bit per topology for every lattice point
(i, j, k) with i + j + k = resolution on the eigenvalue simplex
x + y + z = normalization.  The SVG reproduces the five region panels:
realizable interior cells in gray, realizable cells with a zero
coordinate in black, the rest white.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .realizability import MASKS

PANEL_ORDER = ("star", "cycle", "path", "kite", "k4")

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
    bary = np.column_stack([i, k - i, resolution - k])
    # the criteria are homogeneous: evaluated on the unit simplex, the
    # masks cannot overflow or underflow at any normalization
    scale = 1.0 / resolution
    x, y, z = bary[:, 0] * scale, bary[:, 1] * scale, bary[:, 2] * scale
    masks = np.column_stack(
        [MASKS["complete" if name == "k4" else name](x, y, z) for name in PANEL_ORDER]
    )
    return RegionGrid(resolution, normalization, bary, masks)


# CSV bits of each packed mask code; the highest of its five bits is PANEL_ORDER[0]
_BITS = [",".join(format(code, "05b")) for code in range(32)]


def write_csv(grid: RegionGrid, path: str) -> None:
    """CSV with header x,y,z,star,cycle,path,kite,k4; booleans as 0/1."""
    res = grid.resolution
    # every coordinate is bary * scale, exactly as coords() computes it,
    # so each of the res + 1 distinct values is formatted once
    values = (np.arange(res + 1) * (grid.normalization / res)).tolist()
    labels = [format(v, ".9g") for v in values]
    codes = np.packbits(grid.masks, axis=1)[:, 0] >> 3
    chunk = res + 1  # rows formatted and written at a time
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,z,star,cycle,path,kite,k4\n")
        for start in range(0, grid.cell_count, chunk):
            rows = grid.bary[start : start + chunk].tolist()
            bits = codes[start : start + chunk].tolist()
            fh.write(
                "".join(
                    f"{labels[i]},{labels[j]},{labels[k]},{_BITS[c]}\n"
                    for (i, j, k), c in zip(rows, bits)
                )
            )


def _cartesian(i: int, j: int, k: int, res: int) -> tuple[float, float]:
    # barycentric (x, y, z) -> ((z - x)/(x+y+z), sqrt(3)*y/(x+y+z));
    # vertices map to (-1, 0), (0, sqrt(3)), (1, 0)
    return (k - i) / res, SQRT3 * j / res


def _row_runs(flags: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal runs of True in each row of a 2-D array as (row, start, stop), stop inclusive."""
    padded = np.zeros((flags.shape[0], flags.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = flags
    steps = np.diff(padded, axis=1)
    rows, starts = np.nonzero(steps == 1)
    stops = np.nonzero(steps == -1)[1] - 1
    return list(zip(rows.tolist(), starts.tolist(), stops.tolist()))


def _panel_elements(grid: RegionGrid, column: np.ndarray) -> list[str]:
    res = grid.resolution
    cell = 1.0 / res
    half_h = SQRT3 / (2.0 * res)
    # tri[i, j] is the flag of lattice point (i, j, res - i - j); unset entries stay False
    tri = np.zeros((res + 1, res + 1), dtype=bool)
    tri[grid.bary[:, 0], grid.bary[:, 1]] = column
    parts = []
    # gray interior: one rectangle per run of realizable points in a row
    for j, a, b in _row_runs(tri.T):
        y = SQRT3 * j / res
        x_hi, _ = _cartesian(a, j, res - j - a, res)
        x_lo, _ = _cartesian(b, j, res - j - b, res)
        parts.append(
            f'<rect x="{x_lo - cell:.6f}" y="{y - half_h:.6f}" '
            f'width="{(x_hi - x_lo) + 2 * cell:.6f}" height="{2 * half_h:.6f}" '
            f'fill="{GRAY}"/>'
        )
    # black overlay: realizable points with some zero coordinate
    width = 1.8 * cell
    idx = np.arange(res + 1)
    # lattice point (i, j) at position t along each edge
    edge_points = (
        lambda t: (t, 0),  # bottom edge, y = 0
        lambda t: (0, t),  # left edge, x = 0
        lambda t: (res - t, t),  # right edge, z = 0
    )
    edge_flags = np.stack([tri[:, 0], tri[0, :], tri[res - idx, idx]])
    for edge, a, b in _row_runs(edge_flags):
        i0, j0 = edge_points[edge](a)
        i1, j1 = edge_points[edge](b)
        x0, y0 = _cartesian(i0, j0, res - i0 - j0, res)
        x1, y1 = _cartesian(i1, j1, res - i1 - j1, res)
        parts.append(
            f'<line x1="{x0:.6f}" y1="{y0:.6f}" x2="{x1:.6f}" y2="{y1:.6f}" '
            f'stroke="{BLACK}" stroke-width="{width:.6f}" stroke-linecap="round"/>'
        )
    return parts


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
    for idx, name in enumerate(PANEL_ORDER):
        cx = panel_w * idx + panel_w / 2.0
        base_y = panel_h - 0.25 * scale
        parts.append(
            f'<g id="panel-{name}" transform="translate({cx:.1f},{base_y:.1f}) '
            f'scale({scale:.0f},{-scale:.0f})">'
        )
        parts.append(f'<polygon points="{tri}" fill="{WHITE}"/>')
        parts.append('<g clip-path="url(#tri)">')
        parts.extend(_panel_elements(grid, grid.column(name)))
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
