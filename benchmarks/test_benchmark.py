"""The benchmark's own tests: every check passes on lapreal's real output
and fails on a deliberately corrupted copy of it; the tracer restores
what it wraps and its self times add up.

Run from the root of a checkout:  python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import lapreal  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def fails(fn, *args, match=None):
    with pytest.raises(CheckFailed, match=match):
        fn(*args)


# -- forward ---------------------------------------------------------------


@pytest.fixture(scope="module")
def forward():
    wl = workloads.Forward(seed=3, outdir="")
    return wl, wl.run_round()


def test_forward_passes(forward):
    wl, out = forward
    assert wl.check(out) == 0


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_forward_corruptions(forward, kind):
    wl, out = forward
    weights = wl.weights[kind]
    roots, spectra, cmask, jmask = out[kind]

    shifted = roots.copy()
    shifted[7, 1] += 1e-6
    fails(checks.check_forward, kind, weights, shifted, spectra, cmask, jmask, match="sum")

    reversed_rows = spectra.copy()
    reversed_rows[5] = reversed_rows[5, ::-1]
    fails(checks.check_forward, kind, weights, roots, reversed_rows, cmask, jmask, match="eigvalsh")

    # equal sums, so only the sum of squares can see it
    spread = spectra.copy()
    spread[2, 1] -= 1e-3
    spread[2, 3] += 1e-3
    fails(checks.check_forward, kind, weights, roots, spread, cmask, jmask, match="squares|eigvalsh")

    masked = jmask.copy()
    masked[11] = False
    fails(checks.check_forward, kind, weights, roots, spectra, cmask, masked, match="mask")


# -- roundtrip -------------------------------------------------------------


def test_roundtrip_report_corruptions():
    cfg = lapreal.SamplerConfig(seed=5, samples=200)
    report = lapreal.roundtrip_suite(lapreal.KITE, cfg)
    checks.check_roundtrip_report(report, 200)
    for change in (
        {"inverted": 199},
        {"infeasible_count": 1},
        {"not_realizable_count": 2},
        {"max_residual": 3e-8},
        {"max_residual": float("nan")},
    ):
        fails(checks.check_roundtrip_report, dataclasses.replace(report, **change), 200)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_realized_weights(kind):
    target = {"star": (0.1, 0.2, 0.7), "cycle": (0.2, 0.3, 0.5), "path": (0.1, 0.3, 0.6), "kite": (0.05, 0.15, 0.8)}[kind]
    weights = workloads.INVERTERS[kind](target).weights
    checks.check_realized(kind, target, weights)
    bent = list(weights)
    bent[0] += 1e-6
    fails(checks.check_realized, kind, target, bent)


def test_roundtrip_workload_passes():
    wl = workloads.Roundtrip(seed=2, outdir="")
    wl.SAMPLES = 100
    wl.cfg = lapreal.SamplerConfig(seed=2, samples=100)
    assert wl.check(wl.run_round()) == 0


# -- region ----------------------------------------------------------------


@pytest.fixture(scope="module")
def region():
    outdir = os.path.join(HERE, "out", "test")
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.Region(seed=1, outdir=outdir)
    grid = wl.run_round()
    csv_text, svg_text = wl._files()
    return wl.RESOLUTION, grid, csv_text, svg_text


def test_region_passes(region):
    res, grid, csv_text, svg_text = region
    checks.check_region(res, grid.bary, grid.masks, csv_text, svg_text)


def test_region_corruptions(region):
    res, grid, csv_text, svg_text = region
    lines = csv_text.splitlines(keepends=True)
    col = {name: k for k, name in enumerate(checks.PANELS)}

    def with_masks(masks):
        # CSV rebuilt from the same coordinates with the given bits
        body = [",".join(line.split(",")[:3]) + "," + ",".join(str(int(b)) for b in row) + "\n"
                for line, row in zip(lines[1:], masks)]
        return lines[0] + "".join(body)

    fails(checks.check_region, res, grid.bary[:-1], grid.masks[:-1], csv_text, svg_text, match="shape")
    fails(checks.check_region, res, grid.bary, grid.masks, "".join(lines[:-1]), svg_text, match="rows")
    flipped = lines[1].rstrip("\n")[:-1] + ("0" if lines[1].rstrip("\n")[-1] == "1" else "1") + "\n"
    fails(checks.check_region, res, grid.bary, grid.masks, lines[0] + flipped + "".join(lines[2:]), svg_text,
          match="bits")

    for name, value, match in (("cycle", None, "cycle cells"), ("star", True, "star is not inside kite"),
                               ("path", True, "path is not inside"), ("k4", False, "K4")):
        masks = grid.masks.copy()
        if name == "cycle":
            i = int(np.flatnonzero(masks[:, col["cycle"]])[0])
            masks[i, col["cycle"]] = False
        else:
            i = int(np.flatnonzero(~masks[:, col["kite"]] if value else masks[:, col[name]])[0])
            masks[i, col[name]] = value
        fails(checks.check_region, res, grid.bary, masks, with_masks(masks), svg_text, match=match)

    fails(checks.check_region, res, grid.bary, grid.masks, csv_text, svg_text[: len(svg_text) // 2], match="parse")
    four_panels = svg_text.replace('id="panel-kite"', 'id="kite"')
    fails(checks.check_region, res, grid.bary, grid.masks, csv_text, four_panels, match="panels")


# -- queries ---------------------------------------------------------------


@pytest.fixture(scope="module")
def queries():
    wl = workloads.Queries(seed=11, outdir="")
    return wl, wl.run_round()


def test_queries_fail_only_on_star_cusp(queries):
    wl, records = queries
    assert wl.check(records) == len(workloads.STAR_CUSP)
    assert wl.failed(records) == list(range(wl.cusp_start, len(wl.queries)))


def test_queries_corruptions(queries):
    wl, records = queries
    disagree = [list(r) for r in records]
    disagree[0][0] = not disagree[0][0]
    fails(wl.check, disagree, match="seeded queries failed")

    i = next(i for i, r in enumerate(records) if r[1] is not None and i < wl.cusp_start)
    missed = [list(r) for r in records]
    missed[i][1] = tuple(w * 1.001 for w in missed[i][1])
    fails(wl.check, missed, match="seeded queries failed")

    j = next(i for i, (_, _, extra) in enumerate(wl.queries) if extra is not None and records[i][1] is not None)
    bad_kn = [list(r) for r in records]
    bad_kn[j][2] = bad_kn[j][2][:-1] + [bad_kn[j][2][-1] + 1e-6]
    fails(wl.check, bad_kn, match="K")

    bad_cli = [list(r) for r in records]
    bad_cli[j][4] = bad_cli[j][4].replace("weights=[", "weights=[1")
    fails(wl.check, bad_cli, match="CLI")

    bad_code = [list(r) for r in records]
    bad_code[j][3] = 1
    fails(wl.check, bad_code, match="CLI")


def test_cli_record_checks():
    checks.check_cli_invert("cycle", 1, "graph=cycle\nrealizable=false\n", None)
    fails(checks.check_cli_invert, "cycle", 0, "graph=cycle\nrealizable=false\n", None)
    fails(checks.check_cli_invert, "kite", 0, "graph=kite\nrealizable=true\nweights=[1]\n", (2.0,))
    fails(checks.check_cli_invert, "kite", 0, "not a record\n", (2.0,))


def test_star_band_covers_cusp_targets():
    for target in workloads.STAR_CUSP:
        assert abs(workloads.star_product(*target)) < workloads.STAR_BAND


# -- tracing ---------------------------------------------------------------


def test_tracer_wraps_and_restores():
    original = workloads.jacobi_spectra
    tracer = spans.Tracer(lapreal, [workloads])
    tracer.round_id = 0
    tracer.install()
    try:
        assert workloads.jacobi_spectra is not original
        lapreal.roundtrip_suite(lapreal.CYCLE4, lapreal.SamplerConfig(seed=1, samples=50))
    finally:
        tracer.uninstall()
    assert workloads.jacobi_spectra is original
    assert workloads.INVERTERS["cycle"] is lapreal.invert_cycle
    assert tracer.counts["inverse.invert.calls"] == 50
    assert tracer.counts["jacobi.batch.rows"] == 50
    top = [i for i, p in enumerate(tracer.span_parent) if p == -1]
    assert [tracer.names[tracer.span_name[i]] for i in top] == ["oracle.roundtrip_suite"]
    wall = tracer.span_end[top[0]] - tracer.span_start[top[0]]
    assert sum(tracer.self_ns.values()) == wall
