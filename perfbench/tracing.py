"""Span tracing of the library from outside it.

``Tracer.install`` wraps every public function of every public
``dbexplain`` module (the names in each module's ``__all__``) plus
``Instance.restrict``, and rebinds the wrapper under every module
attribute that held the original, since modules call each other through
names they imported (``oracle.enumerate_witnesses``,
``fastpath.kernels.participation_masks``, ...).  ``uninstall`` puts the
originals back.  The library source is not touched.

A span is ``(name, start, end, parent, request, counts)``; ``name`` is
``<layer>.<function>`` with the layer taken from the module name.  Spans
are kept in memory; ``summarize`` turns them into per-layer self times
and counts.  A layer's self time is its spans' durations minus the part
their child spans cover, so the self times of all layers plus the
harness's own share add up to the traced request time.  A span's
counters are read after it ends; that time is a ``harness.trace_counters``
span under the caller, so it is charged to the harness rather than to
the caller's layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "model", "query", "oracle", "explanations", "kernels",
          "fastpath", "repairs", "lineage")
# The metric that carries each layer's self time; with harness.self_ms
# they add up to trace.request_ms.
SELF_TIME = {layer: f"{layer}.self_ms" for layer in LAYERS} | {
    "cli": "cli.run_self_ms", "kernels": "kernels.scan_ms",
    "lineage": "lineage.build_ms"}

# Layers each workload is built to drive; a traced run that records no
# span in one of them means a wrapper no longer sits on the call path.
EXPECTED_LAYERS = {
    "desk-oracle": ("cli", "model", "query", "oracle", "explanations"),
    "scale-fastpath": ("model", "query", "explanations", "kernels", "fastpath",
                       "lineage"),
    "wide-transversal": ("query", "repairs"),
}

ROOT = "harness.request"
COUNTING = "harness.trace_counters"


def _oracle_counts(args, kwargs, result):
    return {"endo_n": len(args[0].endogenous_part())}


def _family_counts(args, kwargs, result):
    return {"endo_n": len(args[0].endogenous_part()), "family": len(result)}


COUNTERS = {
    "query.enumerate_witnesses": lambda a, k, r: {"witnesses": len(r)},
    "repairs.minimal_hitting_sets": lambda a, k, r: {"edges": len(a[0]),
                                                     "transversals": len(r)},
    "kernels.participation_masks": lambda a, k, r: {
        "rows": sum(len(rows) for rows in a[0]),
        "hits": sum(sum(mask) for mask in r)},
    "oracle.enumerate_mss": _family_counts,
    "oracle.enumerate_mns": _family_counts,
    "oracle.degrees": _oracle_counts,
    "oracle.actual_causes": _oracle_counts,
    "oracle.check_duality": _oracle_counts,
    "oracle.cause_repair_correspondence": _oracle_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, spans, stack = self, self.spans, self.stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.request, None)
            if counter is not None:
                begin = clock()
                spans[idx] = spans[idx][:5] + (counter(args, kwargs, result),)
                spans.append((COUNTING, begin, clock(), parent, tracer.request, None))
            return result

        return wrapper

    def install(self) -> None:
        from dbexplain.model import Instance

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dbexplain" or n.startswith("dbexplain.")]
        wrapped = {}
        for module in modules:
            parts = module.__name__.split(".")
            if len(parts) != 2 or parts[1].startswith("_"):
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(f"{parts[1]}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        restrict = Instance.__dict__["restrict"]
        self._patches.append((Instance, "restrict", restrict))
        Instance.restrict = self._wrap("model.Instance.restrict", restrict)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- request boundaries --------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.stack.append(len(self.spans))
        self.spans.append((ROOT, time.perf_counter(), None, -1, request, None))
        self.active = True

    def end(self) -> None:
        end = time.perf_counter()
        self.active = False
        idx = self.stack.pop()
        self.spans[idx] = self.spans[idx][:2] + (end,) + self.spans[idx][3:]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list) -> dict:
    """Self time, span count and counters per span name, plus the layer
    totals and the core_fast calls made under chase_mss."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    core_in_chase = 0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls[name] += 1
        if extra:
            counts[name].update(extra)
        if name == "fastpath.core_fast" and parent >= 0 and \
                spans[parent][0] == "fastpath.chase_mss":
            core_in_chase += 1
    layer_self: dict[str, float] = defaultdict(float)
    layer_spans: Counter = Counter()
    for name, value in self_s.items():
        layer_self[layer_of(name)] += value
        layer_spans[layer_of(name)] += calls[name]
    requests = calls[ROOT]
    request_s = sum(end - start for name, start, end, *_ in spans if name == ROOT)
    return {"self_s": dict(self_s), "calls": dict(calls),
            "counts": {k: dict(v) for k, v in counts.items()},
            "layer_self_s": dict(layer_self), "layer_spans": dict(layer_spans),
            "core_in_chase": core_in_chase, "requests": requests,
            "request_s": request_s}


def per_layer_metrics(summary: dict, overhead_share: float,
                      workload: str) -> tuple[dict, list[str]]:
    """The per-layer metrics, each per traced request unless it is a ratio
    or a mean per call, and the expected layers that recorded no span."""
    n = max(summary["requests"], 1)
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    layer_self, layer_spans = summary["layer_self_s"], summary["layer_spans"]

    def ms(*names):
        return sum(self_s.get(x, 0.0) for x in names) * 1e3 / n

    def per_call(name_prefix, key):
        total = sum(c.get(key, 0) for nm, c in counts.items() if nm.startswith(name_prefix))
        num = sum(v for nm, v in calls.items()
                  if nm.startswith(name_prefix) and key in counts.get(nm, {}))
        return total / num if num else 0.0

    kernel = counts.get("kernels.participation_masks", {})
    rows = kernel.get("rows", 0)
    verify = ("explanations.verify_explanation", "explanations.is_sufficient",
              "explanations.is_necessary")
    attributed = sum(v for k, v in layer_self.items() if k != "harness")
    gaps = [layer for layer in EXPECTED_LAYERS.get(workload, ())
            if not layer_spans.get(layer)]
    out = {SELF_TIME[layer]: layer_self.get(layer, 0.0) * 1e3 / n for layer in LAYERS}
    out.update({f"{layer}.spans": layer_spans.get(layer, 0) / n for layer in LAYERS})
    out.update({
        "model.load_ms": ms("model.load_instance", "model.load_instance_csv"),
        "query.parse_ms": ms("query.parse_query"),
        "oracle.endo_n": per_call("oracle.", "endo_n"),
        "oracle.family_size": per_call("oracle.", "family"),
        "explanations.verify_ms": ms(*verify),
        "explanations.verify_calls": sum(calls.get(x, 0) for x in verify) / n,
        "query.evaluate_calls": calls.get("query.evaluate", 0) / n,
        "query.evaluate_ms": ms("query.evaluate"),
        "model.restrict_calls": calls.get("model.Instance.restrict", 0) / n,
        "query.witnesses_ms": ms("query.enumerate_witnesses"),
        "query.witness_count": per_call("query.enumerate_witnesses", "witnesses"),
        "kernels.rows_in": rows / max(calls.get("kernels.participation_masks", 0), 1),
        "kernels.rows_hit_ratio": kernel.get("hits", 0) / rows if rows else 0.0,
        "fastpath.core_ms": ms("fastpath.core_fast", "fastpath.participating_sets"),
        "fastpath.chase_self_ms": ms("fastpath.chase_mss"),
        "fastpath.core_calls_per_chase":
            summary["core_in_chase"] / max(calls.get("fastpath.chase_mss", 0), 1),
        "repairs.transversal_ms": ms("repairs.minimal_hitting_sets"),
        "repairs.edges": per_call("repairs.minimal_hitting_sets", "edges"),
        "repairs.transversal_count": per_call("repairs.minimal_hitting_sets", "transversals"),
        "harness.self_ms": layer_self.get("harness", 0.0) * 1e3 / n,
        "trace.request_ms": summary["request_s"] * 1e3 / n,
        "trace.overhead_share": overhead_share,
        "trace.self_sum_share":
            attributed / summary["request_s"] if summary["request_s"] else 0.0,
        "trace.coverage_gaps": len(gaps),
    })
    return out, gaps
