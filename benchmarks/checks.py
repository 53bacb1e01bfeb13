"""Correctness checks made apart from lapreal.

Every check rebuilds what it needs from first principles: Laplacians
from the documented edge conventions, spectra from
``numpy.linalg.eigvalsh``, the cycle region from integer arithmetic on
the lattice, and the figure from an XML parse.  None of them calls the
code under test.  Each raises :class:`CheckFailed` with the first
violation it finds.
"""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET

import numpy as np

#: absolute tolerance on spectra whose entries are O(1) to O(10)
TOL = 1e-8

#: edge lists of the four-vertex topologies (0-based; see lapreal.graphs)
EDGES = {
    "star": ((0, 3), (1, 3), (2, 3)),
    "cycle": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "path": ((0, 1), (1, 2), (2, 3)),
    "kite": ((0, 1), (1, 2), (0, 2), (2, 3)),
}

PANELS = ("star", "cycle", "path", "kite", "k4")


class CheckFailed(Exception):
    """An output of lapreal is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def complete_edges(n: int):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def laplacians(edges, n: int, weights) -> np.ndarray:
    """(batch, n, n) Laplacians of a (batch, len(edges)) weight array."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    lap = np.zeros((w.shape[0], n, n))
    for k, (i, j) in enumerate(edges):
        lap[:, i, j] -= w[:, k]
        lap[:, j, i] -= w[:, k]
    idx = np.arange(n)
    lap[:, idx, idx] = -lap.sum(axis=2)
    return lap


def _spectrum_residual(edges, n, weights, want) -> float:
    got = np.linalg.eigvalsh(laplacians(edges, n, weights))[0]
    return float(np.max(np.abs(got - np.sort(want))))


def check_forward(kind: str, weights, roots, spectra, cubic_mask, jacobi_mask) -> None:
    """Both forward routes against eigvalsh, the trace identities and the mask."""
    w = np.asarray(weights, dtype=float)
    lap = laplacians(EDGES[kind], 4, w)
    ref = np.linalg.eigvalsh(lap)
    cubic_full = np.sort(np.concatenate([np.zeros((w.shape[0], 1)), roots], axis=1), axis=1)
    for route, spec in (("cubic", cubic_full), ("jacobi", np.asarray(spectra))):
        require(spec.shape == ref.shape, f"{kind} {route}: shape {spec.shape} != {ref.shape}")
        scale = np.maximum(1.0, np.abs(ref).sum(axis=1))
        trace_err = np.abs(spec.sum(axis=1) - 2.0 * w.sum(axis=1)) / scale
        require(trace_err.max() <= TOL, f"{kind} {route}: eigenvalue sum != 2*sum(w)")
        sq_ref = (lap * lap).sum(axis=(1, 2))
        sq_err = np.abs((spec * spec).sum(axis=1) - sq_ref) / np.maximum(1.0, sq_ref)
        require(sq_err.max() <= TOL, f"{kind} {route}: sum of squares != trace(L^2)")
        err = np.abs(spec - ref).max(axis=1)
        bad = int(np.argmax(err))
        require(err[bad] <= TOL, f"{kind} {route}: row {bad} is {err[bad]:.3g} from eigvalsh")
    for route, mask in (("cubic", cubic_mask), ("jacobi", jacobi_mask)):
        mask = np.asarray(mask)
        require(mask.shape == (w.shape[0],), f"{kind} {route} mask: shape {mask.shape}")
        require(bool(mask.all()), f"{kind} {route}: {int((~mask).sum())} spectra fail the mask")


def realization_error(kind: str, target, weights) -> float:
    """How far a weighting's nonzero spectrum is from ``target``, relative to its sum."""
    want = np.concatenate([[0.0], np.asarray(target, dtype=float)])
    scale = max(1.0, float(np.sum(target)))
    return _spectrum_residual(EDGES[kind], 4, weights, want) / scale


def check_realized(kind: str, target, weights) -> None:
    """A weighting reproduces ``target`` as its nonzero spectrum, to TOL times the scale."""
    res = realization_error(kind, target, weights)
    require(res <= TOL, f"{kind} weights {tuple(weights)} miss {tuple(target)} by {res:.3g}")


def check_roundtrip_report(report, samples: int) -> None:
    require(report.inverted == samples, f"{report.topology}: inverted {report.inverted} of {samples}")
    require(report.infeasible_count == 0, f"{report.topology}: {report.infeasible_count} infeasible")
    require(report.not_realizable_count == 0, f"{report.topology}: {report.not_realizable_count} rejected")
    require(0.0 <= report.max_residual <= TOL, f"{report.topology}: residual {report.max_residual:.3g}")


def check_complete_spectrum(n: int, weights, spectrum) -> None:
    res = _spectrum_residual(complete_edges(n), n, weights, spectrum)
    scale = max(1.0, float(np.max(np.abs(spectrum))))
    require(res <= TOL * scale, f"K{n} spectrum is {res:.3g} from eigvalsh")


def parse_records(text: str) -> dict[str, str]:
    """``key=value`` lines of the CLI as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        require(sep == "=", f"CLI line without '=': {line!r}")
        out[key] = value
    return out


def check_cli_invert(kind: str, exit_code: int, stdout: str, weights) -> None:
    """The CLI's ``invert`` records match the library's answer ``weights`` (None: rejected)."""
    rec = parse_records(stdout)
    require(rec.get("graph") == kind, f"CLI graph={rec.get('graph')} for {kind}")
    if weights is None:
        require(exit_code == 1 and rec.get("realizable") == "false", f"CLI accepted a {kind} target the library rejects")
        return
    require(exit_code == 0 and rec.get("realizable") == "true", f"CLI rejected a {kind} target the library realizes")
    want = "[" + ",".join(format(float(v), ".9g") for v in weights) + "]"
    require(rec.get("weights") == want, f"CLI weights {rec.get('weights')} != library {want}")


def check_region(resolution: int, bary, masks, csv_text: str, svg_text: str) -> None:
    """The region grid, its CSV and its SVG against the lattice and the cycle geometry."""
    cells = (resolution + 1) * (resolution + 2) // 2
    bary = np.asarray(bary)
    masks = np.asarray(masks, dtype=bool)
    require(bary.shape == (cells, 3), f"grid has shape {bary.shape}, want ({cells}, 3)")
    require(masks.shape == (cells, 5), f"masks have shape {masks.shape}, want ({cells}, 5)")
    require(bool((bary >= 0).all()) and bool((bary.sum(axis=1) == resolution).all()), "grid points off the lattice")
    require(len({tuple(r) for r in bary.tolist()}) == cells, "grid points repeat")

    rows = list(csv.reader(io.StringIO(csv_text)))
    require(rows and rows[0] == ["x", "y", "z", *PANELS], f"CSV header {rows[:1]}")
    body = rows[1:]
    require(len(body) == cells, f"CSV has {len(body)} rows, want {cells}")
    coords = np.array([[float(v) for v in r[:3]] for r in body])
    bits = np.array([[int(v) for v in r[3:]] for r in body])
    require(np.abs(coords - bary / resolution).max() <= 1e-9, "CSV coordinates differ from the grid")
    require(bool(np.isin(bits, (0, 1)).all()) and bool((bits == masks).all()), "CSV bits differ from the grid")

    col = {name: masks[:, k] for k, name in enumerate(PANELS)}
    cycle = 2 * bary.max(axis=1) >= resolution
    require(bool((col["cycle"] == cycle).all()), f"{int((col['cycle'] != cycle).sum())} cycle cells wrong")
    frac = float(cycle.mean())
    require(abs(frac - 0.75) <= 0.01, f"cycle lattice fraction {frac:.4f} is not 3/4")
    for inner, outer in (("path", "cycle"), ("path", "kite"), ("star", "kite")):
        require(not bool((col[inner] & ~col[outer]).any()), f"{inner} is not inside {outer}")
    require(bool(col["k4"].all()), "K4 column is not all ones")

    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    panels = [g.get("id") for g in root.iter("{http://www.w3.org/2000/svg}g") if (g.get("id") or "").startswith("panel-")]
    require(panels == [f"panel-{p}" for p in PANELS], f"SVG panels {panels}")
