"""lapreal benchmark: four workloads, each in its own fresh single-threaded process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is one of forward, roundtrip, region, queries, or all.
For each workload the runner starts SETUPS fresh workers one after the
other.  Every worker imports lapreal from ``src`` and runs one untimed
warm-up round; the time from starting the process to its READY line is
one set-up sample.  The last worker goes on to run timed rounds for
``--seconds`` and to check its outputs.

The runner prints each workload's metrics as ``workload metric=value unit``
lines, writes them to ``benchmarks/out/``, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUTDIR = os.path.join(HERE, "out")
WORKLOADS = ("forward", "roundtrip", "region", "queries")

#: set-ups per run (the median is reported); the last one also measures
SETUPS = 5
#: seconds a set-up probe may take, and a worker beyond its timed phase
GRACE_S = 60.0

SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class RunFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_worker(args, workload: str, setup_only: bool):
    """Start one worker and wait for READY.

    Returns the process, the set-up time and the worker's host speed: the
    reference kernel's nominal time over its measured time.
    """
    cmd = [
        sys.executable, WORKER,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--outdir", OUTDIR,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if line.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        _stop(proc)
        raise RunFailed(f"{workload} worker did not get ready (exit {proc.returncode})")
    return proc, setup_s, float(speed[1])


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunFailed(f"worker still running after {timeout:.0f} s") from None
    return out


def run_workload(args, workload: str) -> dict:
    setups, normalized = [], []
    for i in range(SETUPS):
        proc, setup_s, speed = _start_worker(args, workload, setup_only=i < SETUPS - 1)
        setups.append(setup_s)
        normalized.append(setup_s * speed)
        if i < SETUPS - 1:
            _finish(proc, GRACE_S)
            if proc.returncode != 0:
                raise RunFailed(f"{workload} set-up probe exited {proc.returncode}")
    out = _finish(proc, args.seconds + GRACE_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = statistics.median(normalized)
    result["setup_s_raw"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
    }


def per_layer(result: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in result.get("per_layer", {}).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "lapreal", "__init__.py")):
        print(f"no lapreal sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(args, name)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        if not res["correct"]:
            print(f"error: {name} output is wrong: {res['problem']}", file=sys.stderr)
        print(f"{name} attempted={res['attempted']} failed={res['failed']} rounds={res['rounds']}")
        shown = end_to_end(res)
        shown["setup_s_raw"] = {"value": res["setup_s_raw"], "unit": "s"}
        shown["ops_per_s_raw"] = {"value": res["ops_per_s_raw"], "unit": "1/s"}
        shown.update({k: {"value": v, "unit": u} for k, (v, u) in res["named"].items()})
        if args.trace:
            shown.update(per_layer(res))
        for metric, m in shown.items():
            print(f"{name} {metric}={m['value']:.6g} {m['unit']}")
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(OUTDIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)

    pick = per_layer if args.trace else end_to_end
    if len(names) == 1:
        metrics = pick(results[names[0]])
    else:
        metrics = {f"{n}.{k}": v for n in names for k, v in pick(results[n]).items()}
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
