"""The four workloads: seeded inputs, one timed round, and its checks.

A workload builds its inputs once from the seed, and every round feeds
it exactly those inputs, so rounds are interchangeable and a run's
metrics are medians over rounds.  ``run_round`` holds only the timed
calls into lapreal.  ``fingerprint`` turns a round's output into a value
that must be equal for every round; ``check`` verifies one round's
output apart from the program (see ``checks``) and returns how many of
the round's operations failed.

Library functions are imported by name, so that the tracer can wrap the
benchmark's own calls into each module.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import io
import os
import statistics
import time

import numpy as np

import checks
from lapreal import forward_spectrum
from lapreal.cli import main as cli_main
from lapreal.cubic import reduced_cubic_batch, solve_cubic_real_batch
from lapreal.graphs import CYCLE4, KITE, PATH4, STAR, build_laplacians, complete
from lapreal.inverse import (
    INVERTERS,
    NotRealizable,
    invert_cycle,
    invert_kite,
    invert_path,
    invert_star,
)
from lapreal.jacobi import jacobi_spectra
from lapreal.oracle import SamplerConfig, roundtrip_suite
from lapreal.realizability import MASKS, check_cycle, check_kite, check_path, check_star
from lapreal.region import render_region

FOUR = (STAR, CYCLE4, PATH4, KITE)
KINDS = tuple(t.kind for t in FOUR)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _median_rate(count: int, round_times) -> float:
    return count / statistics.median(round_times)


class Forward:
    """Seeded weightings of each topology through both spectrum routes and the mask."""

    name = "forward"
    #: weightings per topology per round
    PER_TOPOLOGY = 2500

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng([seed, 1])
        self.weights = {t.kind: rng.uniform(0.0, 4.0, (self.PER_TOPOLOGY, t.edge_count)) for t in FOUR}
        self.ops_per_round = self.PER_TOPOLOGY * len(FOUR)

    def run_round(self):
        out = {}
        for topo in FOUR:
            w = self.weights[topo.kind]
            p2, p1, p0 = reduced_cubic_batch(topo, w)
            roots = solve_cubic_real_batch(p2, p1, p0)
            spectra = jacobi_spectra(build_laplacians(topo, w))
            mask = MASKS[topo.kind]
            out[topo.kind] = (
                roots,
                spectra,
                mask(roots[:, 0], roots[:, 1], roots[:, 2]),
                mask(spectra[:, 1], spectra[:, 2], spectra[:, 3]),
            )
        return out

    def fingerprint(self, out):
        return _digest(*(a for kind in KINDS for a in out[kind]))

    def check(self, out) -> int:
        for kind in KINDS:
            checks.check_forward(kind, self.weights[kind], *out[kind])
        return 0

    def metrics(self, round_times):
        return {"weightings_per_s": (_median_rate(self.ops_per_round, round_times), "1/s")}


class Roundtrip:
    """``roundtrip_suite`` on each four-vertex topology at the run's seed."""

    name = "roundtrip"
    #: targets per topology per round
    SAMPLES = 1000
    #: every how many-th target the check re-inverts
    RECHECK_EVERY = 25

    def __init__(self, seed: int, outdir: str):
        self.cfg = SamplerConfig(seed=seed, samples=self.SAMPLES)
        self.ops_per_round = self.SAMPLES * len(FOUR)

    def run_round(self):
        return [roundtrip_suite(topo, self.cfg) for topo in FOUR]

    def fingerprint(self, out):
        return tuple(out)

    def check(self, out) -> int:
        for report in out:
            checks.check_roundtrip_report(report, self.SAMPLES)
        # one more round with the targets recorded, to re-invert a subsample
        recorded = {kind: [] for kind in KINDS}
        originals = dict(INVERTERS)

        def recording(kind, fn):
            def invert(target):
                sol = fn(target)
                recorded[kind].append((tuple(target), sol.weights))
                return sol

            return invert

        try:
            for kind in KINDS:
                INVERTERS[kind] = recording(kind, originals[kind])
            again = self.run_round()
        finally:
            INVERTERS.update(originals)
        checks.require(again == out, "roundtrip reports differ between rounds")
        for kind in KINDS:
            pairs = recorded[kind]
            checks.require(len(pairs) == self.SAMPLES, f"{kind}: {len(pairs)} targets inverted")
            for target, weights in pairs[:: self.RECHECK_EVERY]:
                checks.require(
                    originals[kind](target).weights == weights, f"{kind}: re-inversion of {target} differs"
                )
                checks.check_realized(kind, target, weights)
        return 0

    def metrics(self, round_times):
        return {"targets_per_s": (_median_rate(self.ops_per_round, round_times), "1/s")}


class Region:
    """``render_region`` with CSV and SVG at a fixed resolution, as ``lapreal region`` runs it."""

    name = "region"
    RESOLUTION = 300

    def __init__(self, seed: int, outdir: str):
        self.csv_path = os.path.join(outdir, "region.csv")
        self.svg_path = os.path.join(outdir, "region.svg")
        self.ops_per_round = 1

    def run_round(self):
        return render_region(self.RESOLUTION, csv_path=self.csv_path, svg_path=self.svg_path)

    def _files(self):
        with open(self.csv_path, encoding="utf-8") as fh_csv, open(self.svg_path, encoding="utf-8") as fh_svg:
            return fh_csv.read(), fh_svg.read()

    def fingerprint(self, grid):
        csv_text, svg_text = self._files()
        return _digest(grid.bary, grid.masks) + hashlib.sha256((csv_text + svg_text).encode()).hexdigest()

    def check(self, grid) -> int:
        checks.check_region(self.RESOLUTION, grid.bary, grid.masks, *self._files())
        return 0

    def metrics(self, round_times):
        return {"figure_s": (statistics.median(round_times), "s")}


#: star targets on which check_star and invert_star disagree (invert_star
#: returns weights with a residual near 1e-2 where check_star says no).
#: They run in every round and fail every time.
STAR_CUSP = (
    (0.1666961228748206, 0.6674384912086027, 0.16586538591657674),
    (0.6665767737105264, 0.1654722754676594, 0.16795095082181422),
    (0.6660769155059063, 0.16406022903301953, 0.16986285546107416),
    (0.17262117898674245, 0.6683029172709266, 0.15907590374233094),
)

#: seeded star targets are drawn outside this band about the star
#: boundary, |f1 f2 f3| / sum^6 < STAR_BAND, where the disagreement above
#: lives (seen up to 4.3e-7 on 2e6 uniform targets); the band holds
#: about 0.4% of the simplex
STAR_BAND = 1e-5


def star_product(x, y, z):
    """The star criterion's product f1 f2 f3, realizable where <= 0."""
    f1 = 6 * x * x - 2 * x * y - 2 * x * z + y * z
    f2 = 6 * y * y - 2 * x * y - 2 * y * z + x * z
    f3 = 6 * z * z - 2 * x * z - 2 * y * z + x * y
    return f1 * f2 * f3


class Queries:
    """Single calls as an interactive user makes them, each timed on its own."""

    name = "queries"
    #: seeded queries per round, cycling over star, cycle, path, kite
    SEEDED = 1000
    #: every EXTRA_EVERY-th query also runs one K_n spectrum and one CLI call
    EXTRA_EVERY = 100
    KN_ORDERS = (4, 5, 6, 7, 8)

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng([seed, 4])
        queries = []
        for q in range(self.SEEDED):
            kind = KINDS[q % len(KINDS)]
            while True:
                u = np.sort(rng.random(2))
                triple = (float(u[0]), float(u[1] - u[0]), float(1.0 - u[1]))
                if kind != "star" or abs(star_product(*triple)) >= STAR_BAND:
                    break
            extra = None
            if q % self.EXTRA_EVERY == self.EXTRA_EVERY - 1:
                n = self.KN_ORDERS[(q // self.EXTRA_EVERY) % len(self.KN_ORDERS)]
                weights = rng.uniform(0.0, 4.0, n * (n - 1) // 2)
                argv = ["invert", "--graph", kind, "--triple", ",".join(repr(v) for v in triple)]
                extra = (complete(n), weights, argv)
            queries.append((kind, triple, extra))
        self.cusp_start = len(queries)
        queries.extend(("star", t, None) for t in STAR_CUSP)
        self.queries = queries
        self.ops_per_round = len(queries)
        self.latency_ns = {op: array.array("q") for op in ("check", "invert", "kn_eigs", "cli")}
        # the worker turns this on for the untraced timed rounds only
        self.record_latency = False

    def run_round(self):
        clock = time.perf_counter_ns
        lat = self.latency_ns
        check_ns, invert_ns, kn_ns, cli_ns = lat["check"], lat["invert"], lat["kn_eigs"], lat["cli"]
        keep = self.record_latency
        # looked up each round, so that a traced round sees the wrapped functions
        calls = {
            "star": (check_star, invert_star),
            "cycle": (check_cycle, invert_cycle),
            "path": (check_path, invert_path),
            "kite": (check_kite, invert_kite),
        }
        records = []
        for kind, triple, extra in self.queries:
            check, invert = calls[kind]
            t0 = clock()
            verdict = check(triple)
            t1 = clock()
            try:
                sol = invert(triple)
            except NotRealizable:
                sol = None
            t2 = clock()
            if keep:
                check_ns.append(t1 - t0)
                invert_ns.append(t2 - t1)
            record = [verdict.realizable, None if sol is None else sol.weights]
            if extra is not None:
                topo, weights, argv = extra
                t0 = clock()
                spectrum = forward_spectrum(topo, weights)
                t1 = clock()
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    t2 = clock()
                    code = cli_main(argv)
                    t3 = clock()
                if keep:
                    kn_ns.append(t1 - t0)
                    cli_ns.append(t3 - t2)
                record += [spectrum.tolist(), code, buf.getvalue()]
            records.append(record)
        return records

    def fingerprint(self, records):
        return hashlib.sha256(repr(records).encode()).hexdigest()

    def failed(self, records) -> list[int]:
        """Indices of queries whose check and invert disagree or whose weights miss."""
        bad = []
        for i, ((kind, triple, _), record) in enumerate(zip(self.queries, records)):
            realizable, weights = record[0], record[1]
            if realizable != (weights is not None):
                bad.append(i)
            elif weights is not None and checks.realization_error(kind, triple, weights) > checks.TOL:
                bad.append(i)
        return bad

    def check(self, records) -> int:
        checks.require(len(records) == len(self.queries), "a query has no record")
        bad = self.failed(records)
        unexpected = [i for i in bad if i < self.cusp_start]
        checks.require(not unexpected, f"seeded queries failed: {[self.queries[i][:2] for i in unexpected[:3]]}")
        for (kind, _, extra), record in zip(self.queries, records):
            if extra is None:
                continue
            topo, weights, _ = extra
            spectrum, code, stdout = record[2:]
            checks.check_complete_spectrum(topo.order, weights, spectrum)
            checks.check_cli_invert(kind, code, stdout, record[1])
        return len(bad)

    def metrics(self, round_times):
        out = {"queries_per_s": (_median_rate(self.ops_per_round, round_times), "1/s")}
        for op in ("check", "invert", "kn_eigs", "cli"):
            values = np.frombuffer(self.latency_ns[op], dtype=np.int64) / 1e3
            out[f"{op}_p50_us"] = (float(np.median(values)), "us")
            if op == "invert":
                # a p99 is kept only while more than 1000 calls lie beyond it
                p99 = float(np.percentile(values, 99))
                if np.count_nonzero(values > p99) > 1000:
                    out["invert_p99_us"] = (p99, "us")
            out[f"{op}_calls"] = (int(values.size), "count")
        return out


WORKLOADS = {cls.name: cls for cls in (Forward, Roundtrip, Region, Queries)}
