"""Command-line front end.

Subcommands: eigs, check, invert, region, frac, suspend.  Results go to
stdout as key=value records; exit code 0 on success, 1 when an invert
target is not realizable, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import forward_spectrum
from .graphs import CYCLE4, KITE, PATH4, STAR, Topology, complete
from .inverse import INVERTERS, NotRealizable, invert_complete, suspend_spectrum
from .oracle import (
    GENERATOR_NAME,
    SamplerConfig,
    estimate_region_fraction,
)
from .realizability import CHECKS, check_complete
from .region import render_region

GRAPH_NAMES = ("star", "cycle", "path", "kite", "k4", "kn")

_FOUR_VERTEX = {"star": STAR, "cycle": CYCLE4, "path": PATH4, "kite": KITE}


class UsageError(Exception):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _fmt_list(values) -> str:
    return "[" + ",".join(_fmt(v) for v in values) + "]"


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag} expects finite numbers, got {text!r}")
    return values


def _order_from_edge_count(count: int) -> int:
    # invert count = n(n-1)/2
    n = round((1.0 + math.sqrt(1.0 + 8.0 * count)) / 2.0)
    if n * (n - 1) // 2 != count or n < 2:
        raise UsageError(f"{count} weights do not match any complete graph K_n")
    return n


def _topology_for_weights(graph: str, weights) -> Topology:
    if graph in _FOUR_VERTEX:
        return _FOUR_VERTEX[graph]
    if graph == "k4":
        return complete(4)
    return complete(_order_from_edge_count(len(weights)))


def _cmd_eigs(args) -> int:
    weights = _parse_floats(args.weights, "--weights")
    topology = _topology_for_weights(args.graph, weights)
    try:
        spec = forward_spectrum(topology, weights)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"graph={args.graph}")
    print(f"spectrum={_fmt_list(spec)}")
    return 0


def _cmd_check(args) -> int:
    triple = _parse_floats(args.triple, "--triple")
    try:
        if args.graph in CHECKS:
            verdict = CHECKS[args.graph](triple)
        elif args.graph == "k4":
            verdict = check_complete(triple, 4)
        else:
            verdict = check_complete(triple, len(triple) + 1)
    except ValueError as exc:
        raise UsageError(str(exc))
    except OverflowError:
        raise UsageError(f"{args.graph}: --triple {args.triple} overflows the float range")
    print(f"graph={args.graph}")
    print(f"realizable={'true' if verdict.realizable else 'false'}")
    if verdict.certificate is not None:
        print(f'certificate="{verdict.certificate.detail}"')
    return 0


def _invert_records(graph: str, triple: list[float]) -> tuple[int, list[str]]:
    """Exit status and records; the lazy residual and certificate are read before printing."""
    try:
        if graph in INVERTERS:
            solution = INVERTERS[graph](triple)
        elif graph == "k4" and len(triple) != 3:
            raise ValueError(f"K4 expects 3 target eigenvalues, got {len(triple)}")
        else:
            solution = invert_complete(triple)
    except NotRealizable as exc:
        cert = exc.certificate
        return 1, ["realizable=false"] + ([f'certificate="{cert.detail}"'] if cert else [])
    weights, residual = _fmt_list(solution.weights), _fmt(solution.residual)
    return 0, ["realizable=true", f"weights={weights}", f"residual={residual}"]


def _cmd_invert(args) -> int:
    triple = _parse_floats(args.triple, "--triple")
    try:
        status, records = _invert_records(args.graph, triple)
    except ValueError as exc:
        raise UsageError(str(exc))
    except OverflowError:
        raise UsageError(f"{args.graph}: --triple {args.triple} overflows the float range")
    print(f"graph={args.graph}", *records, sep="\n")
    return status


def _cmd_region(args) -> int:
    try:
        grid = render_region(
            args.resolution,
            normalization=args.normalization,
            csv_path=args.out,
            svg_path=args.svg,
        )
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc))
    print(f"resolution={grid.resolution}")
    print(f"normalization={_fmt(grid.normalization)}")
    print(f"cells={grid.cell_count}")
    if args.out:
        print(f"csv={args.out}")
    if args.svg:
        print(f"svg={args.svg}")
    return 0


def _cmd_frac(args) -> int:
    if args.graph in _FOUR_VERTEX:
        topology = _FOUR_VERTEX[args.graph]
    elif args.graph == "k4":
        topology = complete(4)
    else:
        raise UsageError("frac supports star, cycle, path, kite and k4")
    try:
        cfg = SamplerConfig(seed=args.seed, samples=args.samples)
        estimate = estimate_region_fraction(topology, cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"graph={args.graph}")
    print(f"fraction={_fmt(estimate.fraction)}")
    print(f"half_width_95={_fmt(estimate.half_width_95)}")
    print(f"samples={estimate.samples}")
    print(f"seed={args.seed}")
    print(f"generator={GENERATOR_NAME}")
    return 0


def _cmd_suspend(args) -> int:
    spectrum = _parse_floats(args.spectrum, "--spectrum")
    try:
        out = suspend_spectrum(spectrum, args.c)
    except ValueError as exc:
        raise UsageError(str(exc))
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
    p_check.set_defaults(func=_cmd_check)

    p_invert = sub.add_parser("invert", help="construct weights for a target")
    p_invert.add_argument("--graph", required=True, choices=GRAPH_NAMES)
    p_invert.add_argument("--triple", required=True)
    p_invert.set_defaults(func=_cmd_invert)

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
