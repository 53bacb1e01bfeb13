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

import contextlib
import itertools
import math
import operator
import os
import stat
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
    """The lattice points of one resolution and their mask bits.

    ``bary`` holds the points (i, j, resolution - i - j) as int32 rows, by i,
    then j, so lattice row i is the contiguous slice of its resolution + 1 - i
    points that starts at ``_row_starts(resolution)[i]``.  ``masks`` is
    symmetric: every permutation of a point has its bits.  The SVG reads a
    figure row off a lattice row and relies on both.
    """

    resolution: int
    normalization: float
    bary: np.ndarray  # (cells, 3) int32 lattice coordinates
    masks: np.ndarray  # (cells, 5) booleans in PANEL_ORDER

    @property
    def cell_count(self) -> int:
        return self.bary.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.masks[:, PANEL_ORDER.index(name)]


def _row_starts(res: int) -> np.ndarray:
    """Index in ``bary`` of each lattice row's first point (i, 0, res - i), i = 0..res."""
    i = np.arange(res + 1)
    return i * (2 * res + 3 - i) // 2


def evaluate_grid(resolution: int, normalization: float = 1.0) -> RegionGrid:
    """Evaluate all five predicates on the barycentric lattice."""
    try:
        res = operator.index(resolution)
    except TypeError:
        raise ValueError(f"resolution must be an integer, got {resolution!r}") from None
    if res < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if not (math.isfinite(normalization) and normalization > 0):
        raise ValueError(f"normalization must be positive and finite, got {normalization}")
    # lattice points (i, j, res - i - j) by i, then j: row i holds the
    # res + 1 - i points from _row_starts(res)[i], j counting up from 0
    n = res + 1
    first = _row_starts(res)
    bary = np.empty((n * (n + 1) // 2, 3), dtype=np.int32)
    a, b, c = bary.T
    length = np.arange(n, 0, -1)
    a[:] = np.repeat(np.arange(n, dtype=np.int32), length)
    # j is the running cell index less its row's first
    np.subtract(np.arange(len(bary)), np.repeat(first, length), out=b)
    np.subtract(res - a, b, out=c)
    # each mask runs on the sorted points a <= b <= c only (module docstring):
    # orbit[t] is lattice point t's sorted point, found by its key
    # lo * (res + 1) + mid in a table of (res // 3 + 1) * (res + 1) keys, as
    # lo <= res / 3; the keys grow as res**2, so they are np.intp
    lo = np.minimum(np.minimum(a, b), c)
    mid = np.maximum(np.maximum(a, b), c)
    np.subtract(res - lo, mid, out=mid)
    keys = np.multiply(lo, n, dtype=np.intp)
    keys += mid
    del lo, mid
    reps = np.flatnonzero((a <= b) & (b <= c))
    table = np.empty((res // 3 + 1) * n, dtype=np.intp)
    table[np.multiply(a[reps], n, dtype=np.intp) + b[reps]] = np.arange(reps.size)
    orbit = table[keys]
    del table, keys
    # the criteria are homogeneous: evaluated on the unit simplex, the
    # masks cannot overflow or underflow at any normalization
    scale = 1.0 / res
    x, y, z = a[reps] * scale, b[reps] * scale, c[reps] * scale
    masks = np.column_stack(
        [MASKS["complete" if name == "k4" else name](x, y, z) for name in PANEL_ORDER]
    )
    # take copies whole rows; masks[orbit] is ~4x slower on a (cells, 5) array
    return RegionGrid(res, normalization, bary, masks.take(orbit, axis=0))


#: cells gathered into one string and written at a time, so memory stays
#: bounded at any resolution
CSV_CHUNK = 8192

# CSV bits of each packed mask code, ending its row; the highest of the
# five bits is PANEL_ORDER[0]
_WEIGHTS = np.array([16, 8, 4, 2, 1], dtype=np.uint8)
_BITS = np.array([",".join(format(code, "05b")) + "\n" for code in range(32)], dtype=object)


@contextlib.contextmanager
def _outputs(files: list[str | int]):
    """Hold every output open for writing, truncating none; yield the descriptors.

    Each path is opened once, without ``O_TRUNC``; a descriptor (an int) is
    taken as it is and not closed here.  If a path cannot be opened, or two
    outputs name one regular file, which the second writer would overwrite
    (a device such as /dev/null takes both), the files this call created
    are removed and the error is raised before the body runs.  On exit,
    clean or not, each regular file is cut at its offset, as
    ``open(path, "w")`` would leave it; a second cut there does nothing.
    Overwriting in place spares the filesystem a free and reallocate (on
    ext4, also the writeback ``auto_da_alloc`` starts at close).  Pipes and
    devices are not cut, and a pipe's reader sees one end of file.
    """
    fds, created = [], []
    try:
        try:
            for file in files:
                if isinstance(file, int):
                    fds.append(file)
                    continue
                try:
                    fds.append(os.open(file, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                    created.append(file)
                except FileExistsError:
                    fds.append(os.open(file, os.O_WRONLY))
            stats = [os.fstat(fd) for fd in fds]
            regular = [stat.S_ISREG(st.st_mode) for st in stats]
            if len(stats) == 2 and regular[0] and os.path.samestat(*stats):
                raise ValueError(f"{files[0]!r} and {files[1]!r} name the same file")
        except (OSError, ValueError):
            for path in created:
                os.remove(path)
            raise
        try:
            yield fds
        finally:
            for fd in itertools.compress(fds, regular):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        for fd, file in zip(fds, files):
            if not isinstance(file, int):
                os.close(fd)


def write_csv(grid: RegionGrid, path: str | int) -> None:
    """CSV with header x,y,z,star,cycle,path,kite,k4; booleans as 0/1.

    ``path`` is a path or a descriptor the caller holds.  The file is
    overwritten in place and cut to length (``_outputs``); if a chunk fails,
    the file holds the chunks written before it.
    """
    res = grid.resolution
    # every coordinate is bary * normalization / res, so each of the
    # res + 1 distinct values is formatted once
    values = (np.arange(res + 1) * (grid.normalization / res)).tolist()
    labels = np.array([format(v, ".9g") + "," for v in values], dtype=object)
    codes = grid.masks.view(np.uint8) @ _WEIGHTS
    table = np.empty((CSV_CHUNK, 4), dtype=object)
    with _outputs([path]) as (fd,), open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
        fh.write("x,y,z,star,cycle,path,kite,k4\n")
        for start in range(0, grid.cell_count, CSV_CHUNK):
            rows = table[: min(CSV_CHUNK, grid.cell_count - start)]
            stop = start + len(rows)
            rows[:, :3] = labels[grid.bary[start:stop]]
            rows[:, 3] = _BITS[codes[start:stop]]
            fh.write("".join(rows.ravel().tolist()))


def _cartesian(i: np.ndarray, j: np.ndarray, k: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    # barycentric (x, y, z) -> ((z - x)/(x+y+z), sqrt(3)*y/(x+y+z)), elementwise;
    # vertices map to (-1, 0), (0, sqrt(3)), (1, 0)
    return (k - i) / res, SQRT3 * j / res


def _runs(flags: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True in a 1-D bool array cut into rows that start at ``first``.

    Arrays row, start, stop (inclusive); start and stop count from the first
    entry of the run's row, and no run crosses the end of a row.
    """
    last = np.append(first[1:], flags.size) - 1
    edge = np.empty(flags.shape, dtype=bool)
    # a run starts at a set flag whose left neighbour in its row is unset
    np.greater(flags[1:], flags[:-1], out=edge[1:])
    edge[first] = flags[first]
    start = np.flatnonzero(edge)
    # and stops at a set flag whose right neighbour in its row is unset
    np.greater(flags[:-1], flags[1:], out=edge[:-1])
    edge[last] = flags[last]
    stop = np.flatnonzero(edge)
    row = np.searchsorted(first, start, side="right") - 1
    return row, start - first[row], stop - first[row]


def _panel_elements(grid: RegionGrid, columns: np.ndarray) -> list[list[str]]:
    """The <rect> and <line> elements of one panel per column of a (cells, panels) mask.

    Each column must be symmetric, as the masks are (``RegionGrid``).
    """
    res = grid.resolution
    n = res + 1
    cell = 1.0 / res
    half_h = SQRT3 / (2.0 * res)
    # every mask is symmetric, so lattice row j, the points (j, t, res - j - t)
    # that are one slice of a column, has the flags of the figure's row
    # y = j, the points (t, j, res - j - t), t = 0..res - j
    first = _row_starts(res)
    runs = [_runs(columns[:, p], first) for p in range(columns.shape[1])]
    # gray interior: one rectangle per run of realizable points in a row.
    # A run (j, a, b) starts at x = (res - j - 2b) / res - cell, so the x, y
    # and width labels come from tables of their few distinct values
    xs = [f"{v:.6f}" for v in (np.arange(-res, res + 1) / res - cell).tolist()]
    ys = [f"{v:.6f}" for v in (SQRT3 * np.arange(n) / res - half_h).tolist()]
    height = f"{2 * half_h:.6f}"
    j, a, b = (np.concatenate(part) for part in zip(*runs))
    width = (res - j - 2 * a) / res - (res - j - 2 * b) / res + 2 * cell
    widths, width_of = np.unique(width, return_inverse=True)
    ws = [f"{v:.6f}" for v in widths.tolist()]
    rects = [
        f'<rect x="{xs[x]}" y="{ys[y]}" width="{ws[w]}" height="{height}" fill="{GRAY}"/>'
        for x, y, w in zip((2 * res - j - 2 * b).tolist(), j.tolist(), width_of.tolist())
    ]
    # runs come panel by panel, so each panel's rects are one slice
    ends = np.cumsum([row.size for row, _, _ in runs]).tolist()
    panels = [rects[start:stop] for start, stop in zip([0] + ends, ends)]
    # black overlay: realizable points with some zero coordinate.  Point t of
    # each edge permutes (0, t, res - t), so every edge has lattice row 0's runs
    stroke = f"{1.8 * cell:.6f}"
    for panel, (row, a, b) in zip(panels, runs):
        t = np.stack([a[row == 0], b[row == 0]])  # first and last t of each run
        for i, j in ((t, 0 * t), (0 * t, t), (res - t, t)):  # bottom, left, right edge
            panel.extend(
                f'<line x1="{x0:.6f}" y1="{y0:.6f}" x2="{x1:.6f}" y2="{y1:.6f}" '
                f'stroke="{BLACK}" stroke-width="{stroke}" stroke-linecap="round"/>'
                for x0, x1, y0, y1 in zip(*np.vstack(_cartesian(i, j, res - i - j, res)).tolist())
            )
    return panels


def write_svg(grid: RegionGrid, path: str | int) -> None:
    """Standalone SVG 1.1 document with one <g> panel per topology.

    ``path`` is a path or a descriptor the caller holds.  The file is
    overwritten in place and cut to length (``_outputs``).
    """
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
    with _outputs([path]) as (fd,), open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
        fh.write("\n".join(parts) + "\n")


def render_region(
    resolution: int,
    normalization: float = 1.0,
    csv_path: str | None = None,
    svg_path: str | None = None,
) -> RegionGrid:
    """Evaluate the grid and emit the requested files.

    ``_outputs`` opens each path once, before either file is written, so a
    path that cannot be opened, or two paths that name one regular file,
    leave every file as it was; the writers take the held descriptors.
    """
    grid = evaluate_grid(resolution, normalization)
    with _outputs([path for path in (csv_path, svg_path) if path]) as fds:
        if csv_path:
            write_csv(grid, fds[0])
        if svg_path:
            write_svg(grid, fds[-1])
    return grid
