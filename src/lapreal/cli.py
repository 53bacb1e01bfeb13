"""Command-line front end.

Subcommands: eigs, check, invert, region, frac, suspend.  Results go to
stdout as key=value records; exit code 0 on success, 1 when an invert
target is not realizable, 2 on usage errors.  ``main`` is the one boundary
for those: every ``ValueError`` or ``OSError`` a command raises, from its own
parsing or from the library, becomes ``error: <message>``, the usage line and
exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import forward_spectrum
from .graphs import FOUR_VERTEX_KINDS, Topology, complete
from .inverse import INVERTERS, NotRealizable, invert_complete, suspend_spectrum
from .oracle import (
    GENERATOR_NAME,
    SamplerConfig,
    estimate_region_fraction,
)
from .realizability import CHECKS, _fmt, check_complete
from .region import render_region

GRAPH_NAMES = (*FOUR_VERTEX_KINDS, "k4", "kn")


def _fmt_list(values) -> str:
    return "[" + ",".join(_fmt(v) for v in values) + "]"


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} expects finite numbers, got {text!r}")
    return values


def _topology(graph: str, weights=()) -> Topology:
    """The topology named ``graph``; kn takes its order n from its n(n-1)/2 weights."""
    if graph == "k4":
        return complete(4)
    if graph != "kn":
        return Topology(graph)
    n = round((1.0 + math.sqrt(1.0 + 8.0 * len(weights))) / 2.0)
    if n * (n - 1) // 2 != len(weights) or n < 2:
        raise ValueError(f"{len(weights)} weights do not match any complete graph K_n")
    return complete(n)


def _complete_order(graph: str, target) -> int:
    # k4 fixes the order, kn takes it from the target's length
    return 4 if graph == "k4" else len(target) + 1


def _cmd_eigs(args) -> int:
    weights = _parse_floats(args.weights, "--weights")
    spec = forward_spectrum(_topology(args.graph, weights), weights)
    print(f"graph={args.graph}")
    print(f"spectrum={_fmt_list(spec)}")
    return 0


def _check_records(graph: str, triple: list[float]) -> tuple[int, list[str]]:
    """Exit status and records of a check."""
    if graph in CHECKS:
        verdict = CHECKS[graph](triple)
    else:
        verdict = check_complete(triple, _complete_order(graph, triple))
    cert = verdict.certificate
    realizable = "true" if verdict.realizable else "false"
    return 0, [f"realizable={realizable}"] + ([f'certificate="{cert.detail}"'] if cert else [])


def _invert_records(graph: str, triple: list[float]) -> tuple[int, list[str]]:
    """Exit status and records; the lazy residual and certificate are read before printing."""
    try:
        if graph in INVERTERS:
            solution = INVERTERS[graph](triple)
        else:
            check_complete(triple, _complete_order(graph, triple))
            solution = invert_complete(triple)
    except NotRealizable as exc:
        cert = exc.certificate
        return 1, ["realizable=false"] + ([f'certificate="{cert.detail}"'] if cert else [])
    weights, residual = _fmt_list(solution.weights), _fmt(solution.residual)
    return 0, ["realizable=true", f"weights={weights}", f"residual={residual}"]


def _cmd_target(records, args) -> int:
    """check and invert: print the ``records`` of --graph at --triple."""
    triple = _parse_floats(args.triple, "--triple")
    status, lines = records(args.graph, triple)
    print(f"graph={args.graph}", *lines, sep="\n")
    return status


def _cmd_region(args) -> int:
    grid = render_region(
        args.resolution,
        normalization=args.normalization,
        csv_path=args.out,
        svg_path=args.svg,
    )
    print(f"resolution={grid.resolution}")
    print(f"normalization={_fmt(grid.normalization)}")
    print(f"cells={grid.cell_count}")
    if args.out:
        print(f"csv={args.out}")
    if args.svg:
        print(f"svg={args.svg}")
    return 0


def _cmd_frac(args) -> int:
    if args.graph == "kn":
        raise ValueError("frac supports star, cycle, path, kite and k4")
    cfg = SamplerConfig(seed=args.seed, samples=args.samples)
    estimate = estimate_region_fraction(_topology(args.graph), cfg)
    print(f"graph={args.graph}")
    print(f"fraction={_fmt(estimate.fraction)}")
    print(f"half_width_95={_fmt(estimate.half_width_95)}")
    print(f"samples={estimate.samples}")
    print(f"seed={args.seed}")
    print(f"generator={GENERATOR_NAME}")
    return 0


def _cmd_suspend(args) -> int:
    spectrum = _parse_floats(args.spectrum, "--spectrum")
    out = suspend_spectrum(spectrum, args.c)
    print(f"spectrum={_fmt_list(out)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="lapreal",
        description="Spectra and realizability of weighted graph Laplacians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eigs = sub.add_parser("eigs", help="forward spectrum from edge weights")
    p_eigs.add_argument("--graph", required=True, choices=GRAPH_NAMES)
    p_eigs.add_argument("--weights", required=True)
    p_eigs.set_defaults(func=_cmd_eigs)

    p_check = sub.add_parser("check", help="realizability verdict for a target")
    p_check.add_argument("--graph", required=True, choices=GRAPH_NAMES)
    p_check.add_argument("--triple", required=True)
    p_check.set_defaults(func=functools.partial(_cmd_target, _check_records))

    p_invert = sub.add_parser("invert", help="construct weights for a target")
    p_invert.add_argument("--graph", required=True, choices=GRAPH_NAMES)
    p_invert.add_argument("--triple", required=True)
    p_invert.set_defaults(func=functools.partial(_cmd_target, _invert_records))

    p_region = sub.add_parser("region", help="rasterize the realizability regions")
    p_region.add_argument("--resolution", required=True, type=int)
    p_region.add_argument("--normalization", type=float, default=1.0)
    p_region.add_argument("--out", default=None, help="CSV output path")
    p_region.add_argument("--svg", default=None, help="SVG output path")
    p_region.set_defaults(func=_cmd_region)

    p_frac = sub.add_parser("frac", help="Monte Carlo region-area fraction")
    p_frac.add_argument("--graph", required=True, choices=GRAPH_NAMES)
    p_frac.add_argument("--samples", required=True, type=int)
    p_frac.add_argument("--seed", required=True, type=int)
    p_frac.set_defaults(func=_cmd_frac)

    p_susp = sub.add_parser("suspend", help="spectrum of a graph suspension")
    p_susp.add_argument("--spectrum", required=True)
    p_susp.add_argument("--c", required=True, type=float)
    p_susp.set_defaults(func=_cmd_suspend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
