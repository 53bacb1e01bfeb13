"""Span tracing of the calls the benchmark makes into lapreal's modules.

The tracer wraps each public function of each lapreal module (the
layers) and records one span per call: name, start, end, parent span
and the timed round it belongs to.  Spans are kept in memory as flat
arrays and written out when the run ends; self time and counts are
aggregated as the spans close.

Only calls that cross into a module are traced: a name is replaced in
every namespace that imported it (other lapreal modules, the package,
the benchmark's own modules) and in the registry dicts that other
modules read, never in the module that defines it.  The one exception
is ``region``: ``render_region`` calls its three steps inside the
module, and the per-layer split of a figure is exactly those steps.

Self time is kept on line as the span's duration minus the durations of
its direct children, so a layer's self time is its busy time with the
time of the layers it called taken out.
"""

from __future__ import annotations

import array
import collections
import functools
import os
import sys
import time

LAYERS = ("graphs", "cubic", "jacobi", "realizability", "inverse", "oracle", "region", "cli")

# functions of region traced inside their own module (see module docstring)
_INTRA_MODULE = {"region": ("evaluate_grid", "write_csv", "write_svg")}

# registries whose values other modules call through
_REGISTRIES = (("realizability", "MASKS"), ("realizability", "CHECKS"), ("inverse", "INVERTERS"))


def _group(layer: str, func: str) -> str:
    """The per-layer metric a function's spans count towards."""
    if layer == "cubic":
        return "cubic.batch" if func.endswith("_batch") else "cubic.scalar"
    if layer == "jacobi":
        return "jacobi.batch" if func == "jacobi_spectra" else "jacobi.single"
    if layer == "realizability":
        return "realizability.mask" if func.endswith("_mask") else "realizability.check"
    if layer == "inverse" and func.startswith("invert_"):
        return "inverse.invert"
    if layer == "graphs" and func == "build_laplacians":
        return "graphs.build_laplacians"
    if layer == "oracle" and func == "roundtrip_suite":
        return "oracle.roundtrip"
    if layer == "region" and func in _INTRA_MODULE["region"]:
        return f"region.{func}"
    if layer == "cli" and func == "main":
        return "cli.main"
    return f"{layer}.other"


#: traced rounds whose spans are stored (a round of roundtrip makes ~3e4
#: spans); self time and counts cover every traced round
KEEP_ROUNDS = 4


class Tracer:
    """Records spans while installed; aggregates self time and counts per group."""

    def __init__(self, lapreal_pkg, extra_namespaces=()):
        self._pkg = lapreal_pkg
        self._extra = list(extra_namespaces)
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_round = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.round_id = -1
        self.self_ns: dict[str, int] = {}
        self.counts: collections.Counter[str] = collections.Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, layer: str, func_name: str, fn):
        group = _group(layer, func_name)
        name_id = len(self.names)
        self.names.append(f"{layer}.{func_name}")
        clock = time.perf_counter_ns
        stack = self._stack
        child_ns = self._child_ns
        self_ns = self.self_ns
        counts = self.counts
        self_ns.setdefault(group, 0)
        calls_key = group + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.round_id < KEEP_ROUNDS:
                idx = len(self.span_start)
                self.span_name.append(name_id)
                self.span_parent.append(stack[-1] if stack else -1)
                self.span_round.append(self.round_id)
                self.span_start.append(0)
                self.span_end.append(0)
            else:
                idx = -1
            stack.append(idx)
            child_ns.append(0)
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[group] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                if idx >= 0:
                    self.span_start[idx] = start
                    self.span_end[idx] = end
                counts[calls_key] += 1
                self._count_work(group, func_name, args, kwargs, result, failed)

        return traced

    def _count_work(self, group, func_name, args, kwargs, result, failed) -> None:
        counts = self.counts
        if func_name in ("solve_cubic_real_batch", "jacobi_spectra"):
            counts[group + ".rows"] += len(args[0])
        elif group == "realizability.mask" and failed is None:
            counts["realizability.mask.points"] += int(getattr(result, "size", 1))
        elif group == "inverse.invert" and type(failed).__name__ == "NotRealizable":
            counts["inverse.not_realizable"] += 1
        elif group in ("region.write_csv", "region.write_svg") and failed is None:
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts[group + ".bytes"] += os.path.getsize(path)

    def _build_patches(self) -> None:
        pkg = self._pkg
        modules = {layer: sys.modules[f"{pkg.__name__}.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                originals[id(value)] = (layer, attr, value)
        wrappers = {key: self._wrapper(layer, attr, fn) for key, (layer, attr, fn) in originals.items()}
        namespaces = [pkg] + list(modules.values()) + self._extra
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is None:
                    continue
                layer, _, fn = hit
                if ns is modules[layer] and attr not in _INTRA_MODULE.get(layer, ()):
                    continue
                self._patches.append((ns, attr, fn, wrappers[id(value)]))
        for layer, dict_name in _REGISTRIES:
            registry = getattr(modules[layer], dict_name)
            for key, fn in list(registry.items()):
                if id(fn) in wrappers:
                    self._patches.append((registry, key, fn, wrappers[id(fn)]))

    def install(self) -> None:
        for target, key, _, wrapped in self._patches:
            if isinstance(target, dict):
                target[key] = wrapped
            else:
                setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original, _ in self._patches:
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- output -----------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def write(self, path: str) -> int:
        """Write every span as ``round,span,parent,name,start_ns,end_ns`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round,span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_round[i]},{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
        return len(self.span_start)
