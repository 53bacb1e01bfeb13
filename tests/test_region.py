"""Barycentric region grids, CSV and SVG emitters."""

import hashlib
import itertools
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from lapreal import region
from lapreal.realizability import MASKS
from lapreal.region import (
    PANEL_ORDER,
    _cartesian,
    _panel_elements,
    _row_starts,
    _runs,
    evaluate_grid,
    render_region,
    write_csv,
    write_svg,
)

# sha256 of the files written at commit a8c3cda by the per-point loop
# emitters; the vectorized emitters must write the same bytes.  (700, 3.0)
# and (1000, 0.7) were computed with the emitters of commit 57fb820, which
# wrote the CSV one lattice row at a time: they span many CSV chunks and
# their coordinate labels vary in width
GOLDEN = {
    (2, 1.0): (
        "8a9729ce020e742342f4e9f39789d9a5157ea34cdeb3a409d91f601f1924b90d",
        "a10c5294f475af70df35ca1e0a91dedcc0fa8ab887ea48d94da6858a6a6346aa",
    ),
    (24, 1.0): (
        "6bb3c9fae0910d5ee2bd99bc92898d10f1f68ed62b4dd734a7a22c7805cc3ab7",
        "ba26c8937520d0d3d79a03829d460c4ce3bc7b912ad671305235eb162d231cc9",
    ),
    (60, 8.0): (
        "cb68cde6a7a1247a7aa24c59e37c2f63c531d6943c59140f02a41253d8b7a7bb",
        "4c16e3e9ec8c79a67e7caa343e41f65203877590e0b6a9ce75f215e151a267d0",
    ),
    (300, 1.0): (
        "c3a39e029590a73a3827b2d1d20de1a0f647de887ed4957fee9fc7794aae897d",
        "18458d8322e156e08cf996a0c0e029c620b8c27d449967703ff6823f7859f39f",
    ),
    (700, 3.0): (
        "1b3edf89cfebf6dd1a4f49999582bc67b4fab9831ed3757611f8ad47014890ca",
        "e26a6495856de8835824d366d3068e2b9f37514a3372b8d1423724fd377315dc",
    ),
    (1000, 0.7): (
        "399a5e314d7d3d866f4f714e5fc2722d790490ed6b4a373b3557fd19ef086867",
        "ef60f44105e2e411127a9a8164d54d2eee08b386d1c4a69dc05ef08c03f7e172",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestEvaluateGrid:
    def test_cell_count(self):
        for res in (2, 5, 17):
            grid = evaluate_grid(res)
            assert grid.cell_count == (res + 1) * (res + 2) // 2
            # lattice points by i, then j, as a nested loop enumerates them
            want = [[i, j, res - i - j] for i in range(res + 1) for j in range(res - i + 1)]
            assert grid.bary.tolist() == want

    def test_k4_column_all_true(self):
        grid = evaluate_grid(2)
        assert grid.column("k4").all()
        assert grid.cell_count == 6

    def test_centroid_only_k4(self):
        grid = evaluate_grid(30)
        idx = np.flatnonzero((grid.bary == 10).all(axis=1))[0]
        star, cycle, path, kite, k4 = grid.masks[idx]
        assert (star, cycle, path, kite, k4) == (False, False, False, False, True)

    def test_inclusion_chain(self):
        grid = evaluate_grid(60)
        path = grid.column("path")
        assert not np.any(path & ~grid.column("cycle"))
        assert not np.any(path & ~grid.column("kite"))
        assert not np.any(grid.column("star") & ~grid.column("kite"))
        assert grid.column("k4").all()

    def test_permutation_symmetry(self):
        res = 24
        grid = evaluate_grid(res)
        table = {tuple(b): tuple(m) for b, m in zip(grid.bary, grid.masks)}
        for bary, mask in table.items():
            for perm in itertools.permutations(bary):
                assert table[perm] == mask

    @pytest.mark.parametrize("res", [*range(2, 151), 300, 700, 1000])
    def test_orbit_evaluation_matches_full_lattice(self, res):
        # the grid evaluates each mask once per permutation orbit; it must
        # give every point the bits the masks give on the full lattice
        grid = evaluate_grid(res)
        # the lattice points, by i, then j, as the upper triangle lists them
        i, k = np.triu_indices(res + 1)
        np.testing.assert_array_equal(grid.bary, np.column_stack([i, k - i, res - k]))
        assert grid.bary.dtype == np.int32
        x, y, z = (grid.bary * (1.0 / res)).T
        full = np.column_stack(
            [MASKS["complete" if name == "k4" else name](x, y, z) for name in PANEL_ORDER]
        )
        np.testing.assert_array_equal(grid.masks, full)
        # and the grid is symmetric: every permutation of a point has its bits
        key = grid.bary[:, 0] * (res + 1) + grid.bary[:, 1]
        index = np.empty((res + 1) ** 2, dtype=np.intp)
        index[key] = np.arange(grid.cell_count)
        for perm in itertools.permutations(range(3)):
            moved = grid.bary[:, perm]
            np.testing.assert_array_equal(
                grid.masks[index[moved[:, 0] * (res + 1) + moved[:, 1]]], grid.masks
            )

    def test_normalization_does_not_change_masks(self):
        # at 1e-60 and 1e60 the star and path masks used to flip hundreds of
        # cells, because the sum's sixth power underflowed or overflowed
        a = evaluate_grid(40, normalization=1.0)
        for normalization in (8.0, 3.0, 1e-60, 1e60):
            b = evaluate_grid(40, normalization=normalization)
            np.testing.assert_array_equal(a.masks, b.masks, err_msg=f"{normalization}")

    def test_rejects_bad_resolution(self):
        for bad in (1, 0, -4, True):
            with pytest.raises(ValueError, match=f"resolution must be >= 2, got {bad}$"):
                evaluate_grid(bad)
        # floats used to fail inside numpy, naming 3.5 and 8.0 for 2.5 and 3.0
        for bad in (2.5, 3.0, np.float64(4.0), "6", None):
            message = f"resolution must be an integer, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                evaluate_grid(bad)
        assert evaluate_grid(np.int64(3)).bary.tolist() == evaluate_grid(3).bary.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_normalization(self, bad):
        # NaN and inf used to pass and write nan/inf coordinates
        with pytest.raises(ValueError, match="normalization"):
            evaluate_grid(4, normalization=bad)


class TestMemory:
    # tracemalloc peaks at resolution 1000, numpy 2.4: evaluate_grid 48.65 MiB
    # and write_svg 14.66 MiB when the grid was built from int64 index arrays
    # and the SVG scattered the masks into a dense (panels, n, n) flag cube;
    # 17.41 and 2.51 MiB with the int32 lattice and the lattice-row runs
    def test_evaluate_grid(self):
        tracemalloc.start()
        try:
            evaluate_grid(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_write_svg(self, tmp_path):
        grid = evaluate_grid(1000)
        tracemalloc.start()
        try:
            write_svg(grid, str(tmp_path / "g.svg"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestWriteCsv:
    def test_header_and_row_count(self, tmp_path):
        res = 10
        grid = evaluate_grid(res)
        out = tmp_path / "grid.csv"
        write_csv(grid, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,y,z,star,cycle,path,kite,k4"
        assert len(lines) == 1 + (res + 1) * (res + 2) // 2

    def test_deterministic_bytes(self, tmp_path):
        grid = evaluate_grid(12)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(grid, str(a))
        write_csv(grid, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "grid.csv"
        write_csv(evaluate_grid(4), str(out))
        assert b"\r" not in out.read_bytes()

    def test_bits_match_masks(self, tmp_path):
        grid = evaluate_grid(8)
        out = tmp_path / "grid.csv"
        write_csv(grid, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        for line, mask in zip(lines, grid.masks):
            bits = [int(v) for v in line.split(",")[3:]]
            assert bits == [int(b) for b in mask]


class TestWriteSvg:
    def test_five_panels(self, tmp_path):
        out = tmp_path / "region.svg"
        write_svg(evaluate_grid(20), str(out))
        text = out.read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text
        for name in PANEL_ORDER:
            assert f'<g id="panel-{name}"' in text

    def test_colors_present(self, tmp_path):
        out = tmp_path / "region.svg"
        write_svg(evaluate_grid(20), str(out))
        text = out.read_text(encoding="utf-8")
        assert "#808080" in text
        assert "#000000" in text
        assert "#ffffff" in text


class TestRenderRegion:
    def test_emits_requested_files(self, tmp_path):
        csv = tmp_path / "g.csv"
        svg = tmp_path / "g.svg"
        grid = render_region(8, csv_path=str(csv), svg_path=str(svg))
        assert grid.resolution == 8
        assert csv.exists() and svg.exists()

    def test_grid_only(self):
        grid = render_region(5)
        assert grid.cell_count == 21


def render_pair(tmp_path, name, res):
    """Render ``res`` into ``name``.csv and ``name``.svg; return the two paths."""
    paths = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
    render_region(res, csv_path=str(paths[0]), svg_path=str(paths[1]))
    return paths


class TestRewriteInPlace:
    @pytest.mark.parametrize("first,second", [(300, 10), (10, 300)], ids=["shrink", "grow"])
    def test_rerender_matches_fresh_files(self, tmp_path, first, second):
        render_pair(tmp_path, "g", first)
        paths = render_pair(tmp_path, "g", second)
        fresh = render_pair(tmp_path, "fresh", second)
        for path, want in zip(paths, fresh):
            assert path.read_bytes() == want.read_bytes()
            assert path.stat().st_size == want.stat().st_size

    def test_keeps_inode_and_hard_link(self, tmp_path):
        csv, svg = render_pair(tmp_path, "g", 300)
        inodes = csv.stat().st_ino, svg.stat().st_ino
        links = tmp_path / "link.csv", tmp_path / "link.svg"
        os.link(csv, links[0])
        os.link(svg, links[1])
        render_pair(tmp_path, "g", 10)
        assert (csv.stat().st_ino, svg.stat().st_ino) == inodes
        fresh = render_pair(tmp_path, "fresh", 10)
        for link, want in zip(links, fresh):
            assert link.read_bytes() == want.read_bytes()

    def test_failed_chunk_leaves_only_the_prefix(self, tmp_path, monkeypatch):
        # over an existing file, a write that stops after the first chunk
        # must not leave the old file's tail behind the new bytes
        full = tmp_path / "full.csv"
        grid = evaluate_grid(300)
        write_csv(grid, str(full))
        csv = tmp_path / "g.csv"
        write_csv(grid, str(csv))

        class FailingSecondGather:
            def __init__(self, table):
                self.table, self.calls = table, 0

            def __getitem__(self, key):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("second gather")
                return self.table[key]

        monkeypatch.setattr(region, "CSV_CHUNK", 1000)
        monkeypatch.setattr(region, "_BITS", FailingSecondGather(region._BITS))
        with pytest.raises(RuntimeError, match="second gather"):
            write_csv(grid, str(csv))
        data, want = csv.read_bytes(), full.read_bytes()
        assert data.count(b"\n") == 1 + 1000
        assert len(data) < len(want) and want.startswith(data)


class TestHeldOutputs:
    @pytest.mark.parametrize("existing", [False, True])
    def test_render_opens_each_path_once(self, tmp_path, monkeypatch, existing):
        # the outputs were opened twice each: once held for the refusal and
        # once more by the writer
        csv, svg = tmp_path / "g.csv", tmp_path / "g.svg"
        if existing:
            render_pair(tmp_path, "g", 10)
        opened, os_open = [], os.open

        def counting_open(path, *args, **kwargs):
            fd = os_open(path, *args, **kwargs)
            opened.append(path)
            return fd

        monkeypatch.setattr(region.os, "open", counting_open)
        render_region(24, csv_path=str(csv), svg_path=str(svg))
        monkeypatch.undo()
        assert opened == [str(csv), str(svg)]
        assert (sha256(csv), sha256(svg)) == GOLDEN[(24, 1.0)]

    @pytest.mark.parametrize("writer, digest", [(write_csv, 0), (write_svg, 1)], ids=["csv", "svg"])
    def test_writer_takes_a_held_descriptor(self, tmp_path, writer, digest):
        path = tmp_path / "g"
        path.write_bytes(b"x" * 10**6)
        fd = os.open(path, os.O_WRONLY)
        try:
            writer(evaluate_grid(24), fd)
            size = os.fstat(fd).st_size  # the writer left the descriptor open
        finally:
            os.close(fd)
        assert sha256(path) == GOLDEN[(24, 1.0)][digest]
        assert size == path.stat().st_size < 10**6


class TestGoldenBytes:
    @pytest.mark.parametrize("res,norm", sorted(GOLDEN))
    def test_csv_and_svg_digests(self, tmp_path, res, norm):
        grid = evaluate_grid(res, normalization=norm)
        csv = tmp_path / "g.csv"
        svg = tmp_path / "g.svg"
        write_csv(grid, str(csv))
        write_svg(grid, str(svg))
        assert (sha256(csv), sha256(svg)) == GOLDEN[(res, norm)]


def reference_runs(rows):
    """Runs of True per row by a plain loop, as (row, start, stop) with stop inclusive."""
    out = []
    for row, values in enumerate(rows):
        start = None
        for t, flag in enumerate(values + [False]):
            if flag and start is None:
                start = t
            elif not flag and start is not None:
                out.append((row, start, t - 1))
                start = None
    return out


def runs_of(flags, first):
    row, start, stop = _runs(np.asarray(flags, dtype=bool), np.asarray(first))
    return list(zip(row.tolist(), start.tolist(), stop.tolist()))


def cut(flags, first):
    """The rows of a flat list that start at the offsets ``first``."""
    return [flags[lo:hi] for lo, hi in zip(first, [*first[1:], len(flags)])]


class TestRunDetection:
    def test_matches_loop_on_random_rows(self):
        rng = np.random.default_rng(5)
        for lengths in [[1], [1, 1, 1], [9] * 4, rng.integers(1, 40, 17).tolist()]:
            first = np.cumsum([0] + lengths[:-1]).tolist()
            for p in (0.0, 0.3, 0.8, 1.0):
                flags = (rng.random(sum(lengths)) < p).tolist()
                assert runs_of(flags, first) == reference_runs(cut(flags, first))
        # on the lattice, whose rows shrink by one point each
        for res in (2, 3, 10, 31):
            first = _row_starts(res).tolist()
            assert first == [i * (res + 1) - i * (i - 1) // 2 for i in range(res + 1)]
            flags = (rng.random((res + 1) * (res + 2) // 2) < 0.6).tolist()
            assert runs_of(flags, first) == reference_runs(cut(flags, first))

    def test_runs_stop_at_row_ends(self):
        first = [0, 5, 8, 9, 14]
        size = 19
        # all set: one run per row, each ending where the next row starts
        want = [(0, 0, 4), (1, 0, 2), (2, 0, 0), (3, 0, 4), (4, 0, 4)]
        assert runs_of([True] * size, first) == want
        assert runs_of([False] * size, first) == []
        # alternating within each row: every set flag is a run of its own, as
        # the set last flag of rows 0, 1, 2 and 3 meets a set first flag
        flags = sum(([t % 2 == 0 for t in range(len(r))] for r in cut([0] * size, first)), [])
        want = [(row, t, t) for row, r in enumerate(cut(flags, first)) for t in range(0, len(r), 2)]
        assert runs_of(flags, first) == want
        # a run across a row boundary is two runs
        flags = [False] * size
        flags[3:7] = [True] * 4
        assert runs_of(flags, first) == [(0, 3, 4), (1, 0, 1)]

    def test_all_false_column_draws_nothing(self):
        grid = evaluate_grid(9)
        parts = _panel_elements(grid, np.zeros((grid.cell_count, 1), dtype=bool))
        assert parts == [[]]

    def test_all_true_column(self):
        res = 9
        grid = evaluate_grid(res)
        (parts,) = _panel_elements(grid, grid.column("k4")[:, None])
        assert sum(p.startswith("<rect") for p in parts) == res + 1
        assert sum(p.startswith("<line") for p in parts) == 3

    def test_two_runs_in_one_row(self):
        res = 6
        grid = evaluate_grid(res)
        # a symmetric column, as every mask is: the orbits of (0, 0, 6) and
        # (0, 1, 5), so the bottom row (t, 0, 6 - t) runs at t in {0, 1} and {5, 6}
        lo, mid, _ = np.sort(grid.bary, axis=1).T
        column = (lo == 0) & np.isin(mid, [0, 1])
        (parts,) = _panel_elements(grid, column[:, None])
        half_h = math.sqrt(3.0) / (2.0 * res)
        rects = [p for p in parts if p.startswith("<rect") and f'y="{-half_h:.6f}"' in p]
        # a run (0, a, b) starts at x = (6 - 2b) / 6 - 1 / 6
        assert [r.split('"')[1] for r in rects] == ["0.500000", "-1.166667"]

    def test_panels_drawn_together_match_each_alone(self):
        # all panels share one width table and one run search; each must get
        # exactly the elements it gets when drawn on its own
        grid = evaluate_grid(17)
        together = _panel_elements(grid, grid.masks)
        alone = [_panel_elements(grid, grid.masks[:, [p]])[0] for p in range(len(PANEL_ORDER))]
        assert together == alone
        assert all(together)


LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)" ')


class TestEdgeOverlay:
    def test_lines_are_the_runs_of_each_edge(self):
        # the overlay is drawn from lattice row 0's runs alone; point by point,
        # each edge's own lattice points must give the same segments
        for res in range(2, 41):
            grid = evaluate_grid(res)
            index = {point: t for t, point in enumerate(map(tuple, grid.bary.tolist()))}
            edges = (
                [(t, 0, res - t) for t in range(res + 1)],  # bottom, y = 0
                [(0, t, res - t) for t in range(res + 1)],  # left, x = 0
                [(res - t, t, 0) for t in range(res + 1)],  # right, z = 0
            )
            for p, parts in enumerate(_panel_elements(grid, grid.masks)):
                want = []
                for points in edges:
                    flags = [bool(grid.masks[index[point], p]) for point in points]
                    for _, a, b in reference_runs([flags]):
                        ends = [_cartesian(*points[t], res) for t in (a, b)]
                        want.append([float(v) for end in ends for v in end])
                got = [[float(v) for v in LINE.match(e).groups()] for e in parts if e.startswith("<line")]
                assert len(got) == len(want), (res, PANEL_ORDER[p])
                np.testing.assert_allclose(
                    np.reshape(got, (-1, 4)), np.reshape(want, (-1, 4)), rtol=0, atol=1e-6
                )
