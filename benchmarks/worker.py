"""One workload in one fresh process; started by ``run.py``.

The worker imports lapreal from the checkout's ``src``, builds the
workload's seeded inputs, runs one untimed warm-up round and prints
``READY``: the parent times set-up up to that line.  A set-up probe
(``--setup-only``) exits there.  Otherwise the worker runs whole timed
rounds until ``--seconds`` have passed, compares every round's output
with the warm-up's, checks the warm-up's output apart from the program,
and prints one JSON line with the round times and metrics.

The host this runs on changes speed by up to 2x over tens of seconds,
as other tenants come and go, and that drift dwarfs the differences a
change to lapreal makes.  So after READY and after every timed round the
worker also times a fixed reference kernel that does not touch lapreal,
and reports each time both as measured and normalized: multiplied by
REFERENCE_S over the kernel's time next to it, which is what the time
would be on a host where the kernel takes REFERENCE_S.

With ``--trace 1`` the timed rounds alternate between untraced and
traced, so the run measures its own tracing overhead; the per-layer
figures are per traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import lapreal  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: per-layer metrics in the order they are reported: (name, unit, source)
PER_LAYER = (
    ("graphs.build_laplacians_s", "s", "graphs.build_laplacians"),
    ("cubic.batch_s", "s", "cubic.batch"),
    ("cubic.batch_rows", "count", "cubic.batch.rows"),
    ("cubic.scalar_s", "s", "cubic.scalar"),
    ("cubic.scalar_calls", "count", "cubic.scalar.calls"),
    ("jacobi.batch_s", "s", "jacobi.batch"),
    ("jacobi.batch_rows", "count", "jacobi.batch.rows"),
    ("jacobi.single_s", "s", "jacobi.single"),
    ("jacobi.single_calls", "count", "jacobi.single.calls"),
    ("realizability.mask_s", "s", "realizability.mask"),
    ("realizability.mask_points", "count", "realizability.mask.points"),
    ("realizability.check_s", "s", "realizability.check"),
    ("realizability.check_calls", "count", "realizability.check.calls"),
    ("inverse.invert_s", "s", "inverse.invert"),
    ("inverse.invert_calls", "count", "inverse.invert.calls"),
    ("inverse.not_realizable", "count", "inverse.not_realizable"),
    ("oracle.roundtrip_self_s", "s", "oracle.roundtrip"),
    ("region.evaluate_grid_s", "s", "region.evaluate_grid"),
    ("region.write_csv_s", "s", "region.write_csv"),
    ("region.write_svg_s", "s", "region.write_svg"),
    ("region.csv_bytes", "bytes", "region.write_csv.bytes"),
    ("region.svg_bytes", "bytes", "region.write_svg.bytes"),
    ("cli.main_self_s", "s", "cli.main"),
)


#: the reference kernel's time on an uncontended core of the 2-core host
#: the benchmark was sized on (Python 3.11, numpy 2.4)
REFERENCE_S = 0.010


def reference_kernel() -> float:
    """Seconds taken by fixed work that does not touch lapreal.

    Half interpreted Python, half small numpy calls, like the workloads.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += (i * 0.5) ** 0.5
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(250):
        a = np.sin(a) + 0.5
    return time.perf_counter() - t0


def _per_layer(tracer: spans.Tracer, traced_times, untraced_times, normalized) -> dict:
    n = len(traced_times)
    out = {}
    for name, unit, source in PER_LAYER:
        pool = tracer.self_ns if unit == "s" else tracer.counts
        value = pool.get(source, 0)
        out[name] = (value / 1e9 / n if unit == "s" else value / n, unit)
    for layer in spans.LAYERS:
        ns = sum(v for k, v in tracer.self_ns.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (ns / 1e9 / n, "s")
    traced = statistics.mean(traced_times)
    out["trace.round_s"] = (traced, "s")
    out["trace.untraced_round_s"] = (statistics.mean(untraced_times), "s")
    overhead = statistics.median(normalized[True]) / statistics.median(normalized[False]) - 1.0
    out["trace.overhead"] = (overhead, "ratio")
    out["trace.unattributed_s"] = (traced - tracer.total_self_s() / n, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if os.path.dirname(os.path.abspath(lapreal.__file__)) != os.path.join(SRC, "lapreal"):
        print(f"lapreal imported from {lapreal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    ref = wl.run_round()
    print("READY", flush=True)
    kernel = [reference_kernel() for _ in range(3)]
    print(f"SPEED {REFERENCE_S / statistics.median(kernel)!r}", flush=True)
    if args.setup_only:
        return 0
    ref_print = wl.fingerprint(ref)

    tracer = spans.Tracer(lapreal, [workloads]) if args.trace else None
    untraced, traced = [], []
    normalized = {False: [], True: []}  # round times scaled to the reference host, by traced
    problem = None
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_round = tracer is not None and len(untraced) > len(traced)
        wl.record_latency = not trace_round
        if trace_round:
            tracer.round_id = len(traced)
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.run_round()
            t1 = time.perf_counter()
        finally:
            if trace_round:
                tracer.uninstall()
        (traced if trace_round else untraced).append(t1 - t0)
        kernel.append(reference_kernel())
        normalized[trace_round].append((t1 - t0) * REFERENCE_S / statistics.mean(kernel[-2:]))
        if wl.fingerprint(out) != ref_print:
            problem = f"round {len(untraced) + len(traced)} output differs from the warm-up round"
            break
        if t1 >= deadline and (tracer is None or traced):
            break
    wl.record_latency = False
    del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_per_round = 0
    if problem is None:
        try:
            failed_per_round = wl.check(ref)
        except checks.CheckFailed as exc:
            problem = str(exc)
    if problem is not None:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = len(untraced) + len(traced)
    result = {
        "correct": problem is None,
        "problem": problem,
        "rounds": rounds,
        "attempted": rounds * wl.ops_per_round,
        "failed": rounds * failed_per_round,
        "round_s": untraced,
        "normalized_round_s": normalized[False],
        "kernel_s": kernel,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": wl.ops_per_round / statistics.median(normalized[False]),
        "ops_per_s_raw": wl.ops_per_round / statistics.median(untraced),
        "named": wl.metrics(untraced),
    }
    if tracer is not None and traced:
        path = os.path.join(args.outdir, f"trace-{args.workload}-seed{args.seed}.csv")
        result["spans"] = tracer.write(path)
        result["trace_file"] = path
        result["per_layer"] = _per_layer(tracer, traced, untraced, normalized)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
