"""Spans and call aggregates around the public functions of each toricnccr layer.

The tracer lives in the benchmark's own process: ``Tracer.install`` rebinds
the traced functions in every loaded ``toricnccr`` module (and
``GradedContext.member`` on its class), so nothing under ``src/`` knows about
it.  A span records name, start, end, parent and job id.  Hot functions get
no span per call; each is aggregated into a call count, a distinct-argument
count (per job) and total and self time.  Spans stay in memory until
``dump``.

A span's self time is its duration minus the durations of its child spans and
of the aggregated calls made directly under it.  ``groups`` has no call
boundary seen from outside; its cost shows in the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

# one span per call
SPANNED = {
    "cli": ("main",),
    "weights": ("validate",),
    "poset": ("grading_context",),
    "uppersets": (
        "translation_classes",
        "exchange_graph",
        "normalize",
        "minimal_elements",
        "mutate",
        "rim_status",
    ),
    "nccr": ("preimage_summands", "is_nccr", "is_modifying", "mutate_nccr", "rim_of"),
    "quivers": ("endomorphism_quiver", "emit_dot"),
    "oracle": ("crosscheck_mcm", "local_cohomology_window"),
}

# aggregated; the key gives the identity of a call's arguments
HOT = {
    "poset.GradedContext.member": lambda ctx, h: (id(ctx), h),
    "nccr.is_mcm": lambda ctx, g: (id(ctx), g),
    "oracle.sign_pattern_witness": lambda ws, g, window: (id(ws), g, window),
    "oracle.support_complex": lambda ws, a: (id(ws), tuple(a)),
    "oracle.betti_numbers": lambda complex_: complex_,
    "oracle.classify_sign_vector": lambda ws, a: (id(ws), tuple(a)),
}

LAYERS = ("bench", "cli", "weights", "poset", "uppersets", "nccr", "quivers", "oracle")

# (metric, unit, what it measures); "total" is inclusive time, "self" excludes
# traced callees, "calls" counts calls, "count" sums a result counter
PER_LAYER = (
    ("cli.jobs", "count", ("calls", "cli.main")),
    ("weights.validate_s", "s", ("total", "weights.validate")),
    ("poset.grading_context_s", "s", ("total", "poset.grading_context")),
    ("poset.member_calls", "count", ("calls", "poset.GradedContext.member")),
    ("poset.member_distinct", "count", ("distinct", "poset.GradedContext.member")),
    ("poset.member_s", "s", ("total", "poset.GradedContext.member")),
    ("uppersets.translation_classes_s", "s", ("total", "uppersets.translation_classes")),
    ("uppersets.translation_classes_calls", "count", ("calls", "uppersets.translation_classes")),
    ("uppersets.classes_found", "count", ("count", "uppersets.classes_found")),
    ("uppersets.exchange_graph_self_s", "s", ("self", "uppersets.exchange_graph")),
    ("uppersets.edges", "count", ("count", "uppersets.edges")),
    ("nccr.preimage_summands_s", "s", ("total", "nccr.preimage_summands")),
    ("nccr.is_nccr_s", "s", ("total", "nccr.is_nccr")),
    ("nccr.is_modifying_s", "s", ("total", "nccr.is_modifying")),
    ("nccr.mutate_nccr_s", "s", ("total", "nccr.mutate_nccr")),
    ("nccr.is_mcm_calls", "count", ("calls", "nccr.is_mcm")),
    ("nccr.is_mcm_s", "s", ("total", "nccr.is_mcm")),
    ("quivers.endomorphism_quiver_s", "s", ("total", "quivers.endomorphism_quiver")),
    ("quivers.endomorphism_quiver_calls", "count", ("calls", "quivers.endomorphism_quiver")),
    ("quivers.arrows", "count", ("count", "quivers.arrows")),
    ("quivers.vertices", "count", ("count", "quivers.vertices")),
    ("quivers.search_bound", "count", ("count", "quivers.search_bound")),
    ("quivers.emit_dot_s", "s", ("total", "quivers.emit_dot")),
    ("oracle.crosscheck_mcm_self_s", "s", ("self", "oracle.crosscheck_mcm")),
    ("oracle.degrees_checked", "count", ("count", "oracle.degrees_checked")),
    ("oracle.sign_pattern_witness_calls", "count", ("calls", "oracle.sign_pattern_witness")),
    ("oracle.sign_pattern_witness_s", "s", ("total", "oracle.sign_pattern_witness")),
    ("oracle.support_complex_s", "s", ("total", "oracle.support_complex")),
    ("oracle.betti_numbers_s", "s", ("total", "oracle.betti_numbers")),
    ("oracle.local_cohomology_window_s", "s", ("total", "oracle.local_cohomology_window")),
) + tuple((f"{layer}.self_s", "s", ("layer", layer)) for layer in LAYERS)


def _quiver_counts(quiver, ctx, summands, search_bound=None):
    from toricnccr.quivers import default_search_bound

    bound = search_bound if search_bound is not None else default_search_bound(ctx)
    return {
        "quivers.arrows": len(quiver.arrows),
        "quivers.vertices": len(quiver.vertices),
        "quivers.search_bound": bound,
    }


# counters read off a traced function's result (and arguments)
RESULT_COUNTS = {
    "uppersets.translation_classes": lambda classes, *_, **__: {"uppersets.classes_found": len(classes)},
    "uppersets.exchange_graph": lambda graph, *_, **__: {"uppersets.edges": len(graph.edges)},
    "quivers.endomorphism_quiver": _quiver_counts,
    "oracle.crosscheck_mcm": lambda report, *_, **__: {"oracle.degrees_checked": report.checked},
}


@dataclass
class Span:
    job: str
    name: str
    start: float
    end: float
    parent: int | None
    hot_s: float = 0.0  # time of aggregated calls made directly under this span


@dataclass
class HotStat:
    calls: int = 0
    distinct: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    seen: set = field(default_factory=set)  # argument keys of the current job


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans and its aggregated calls."""
    covered = [s.hot_s for s in spans]
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, HotStat] = {name: HotStat() for name in HOT}
        self.counts: dict[str, int] = {}
        # open calls: [span index, or -1 for an aggregated call; time of its traced callees]
        self._stack: list[list] = []
        self._job = ""

    # -- recording -------------------------------------------------------

    def run_job(self, job_id: str, fn, *args):
        """Call ``fn`` inside a root span ``bench.job`` carrying the job id."""
        self._job = job_id
        try:
            return self._span("bench.job", fn)(*args)
        finally:
            for stat in self.hot.values():
                stat.distinct += len(stat.seen)
                stat.seen.clear()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] < 0:  # inside an aggregated call
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(Span(self._job, name, 0.0, 0.0, stack[-1][0] if stack else None))
            stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def _aggregate(self, name: str, fn):
        stat, key, spans, stack = self.hot[name], HOT[name], self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args):
            frame = [-1, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                stat.seen.add(key(*args))
                if stack:
                    top = stack[-1]
                    if top[0] < 0:
                        top[1] += duration
                    else:
                        spans[top[0]].hot_s += duration

        return traced

    def install(self) -> None:
        """Rebind the traced functions in every loaded toricnccr module."""
        wrappers = {}
        for layer, names in SPANNED.items():
            module = importlib.import_module(f"toricnccr.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._span(f"{layer}.{name}", fn)
        for qualified in HOT:
            layer, name = qualified.split(".", 1)
            owner = importlib.import_module(f"toricnccr.{layer}")
            if "." in name:  # a method, rebound on its class
                cls_name, name = name.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, name, self._aggregate(qualified, getattr(owner, name)))
            else:
                fn = getattr(owner, name)
                wrappers[id(fn)] = self._aggregate(qualified, fn)
        for modname, module in list(sys.modules.items()):
            if modname == "toricnccr" or modname.startswith("toricnccr."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``, by name."""
        total, selfs, calls = {}, {}, {}
        for span, own in zip(self.spans, self_times(self.spans)):
            total[span.name] = total.get(span.name, 0.0) + span.end - span.start
            selfs[span.name] = selfs.get(span.name, 0.0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
        for name, stat in self.hot.items():
            total[name], selfs[name], calls[name] = stat.total_s, stat.self_s, stat.calls
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, own in selfs.items():
            layer_self[name.split(".", 1)[0]] += own
        sources = {
            "total": total,
            "self": selfs,
            "calls": calls,
            "count": self.counts,
            "distinct": {name: stat.distinct for name, stat in self.hot.items()},
            "layer": layer_self,
        }
        return {
            metric: sources[kind].get(name, 0)
            for metric, _, (kind, name) in PER_LAYER
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines: job, name, start, end, parent, hot_s."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.job, s.name, s.start, s.end, s.parent, s.hot_s]) + "\n")
