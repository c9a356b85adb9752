"""The traced run: per-layer times from spans, per-layer counts from cProfile.

Spans are recorded from the benchmark's side, around each public call
into a layer that `catnorm.cli.run_pipeline` makes: the layer functions
are swapped in `catnorm.cli`'s namespace for wrappers for the length of a
pass, and nothing under src/ changes.  Each span holds its document, its
name, start, end and parent; spans stay in memory and are written out when
the run ends.  The closure is timed by one extra call per document, the
same call `catnorm closure` makes; closure passes inside `first_reduced`
and `second_reduced` show only in the counts.

The traced run alternates untraced passes with span passes, so the
difference of their medians is the tracing overhead, then makes one
cProfile pass whose times are not used, only its call counts.
"""

from __future__ import annotations

import cProfile
import gc
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import importlib

import catnorm.cli as cli
from catnorm import fd_closure_graph, fd_mvd_closure_graph, parse_schema

from pipeline import R0_S, plain_pass, run_doc

# catnorm.cli name -> span name
LAYER_CALLS = {
    "parse_schema": "core.parse",
    "validate": "core.validate",
    "first_reduced": "reduce.first",
    "second_reduced": "reduce.second",
    "emit_relational": "emit.relational",
    "render_sql": "emit.relational",
    "emit_dtd": "emit.dtd",
    "render_dtd": "emit.dtd",
    "emit_property_graph": "emit.pg",
    "render_property_graph": "emit.pg",
    "check_bcnf": "nf.bcnf",
    "check_improved_bcnf": "nf.improved_bcnf",
    "check_4nf": "nf.4nf",
    "derive_xml_fds": "nf.xmlnf",
    "check_xml_nf": "nf.xmlnf",
}
ROOT_SPAN = "cli.run_pipeline"

# per-layer time metric -> span name whose self time it sums
TIME_METRICS = {
    "core.parse_ms": "core.parse",
    "core.validate_ms": "core.validate",
    "fdclosure.closure_ms": "fdclosure.closure",
    "mvdclosure.closure_ms": "mvdclosure.closure",
    "reduce.first_ms": "reduce.first",
    "reduce.second_ms": "reduce.second",
    "emit.relational_ms": "emit.relational",
    "emit.dtd_ms": "emit.dtd",
    "emit.pg_ms": "emit.pg",
    "nf.bcnf_ms": "nf.bcnf",
    "nf.improved_bcnf_ms": "nf.improved_bcnf",
    "nf.4nf_ms": "nf.4nf",
    "nf.xmlnf_ms": "nf.xmlnf",
    "cli.overhead_ms": ROOT_SPAN,
}


class Recorder:
    """Spans in memory: [doc, name, start, end, parent index].  A span's
    end is moved back by the time the clock's reference samples took
    inside it, so that span passes and untraced passes, both sampled, can
    be compared."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc = 0
        self.relations: dict[int, int] = {}

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        stolen = self.clock.stolen
        record = [self.doc, name, time.perf_counter(), 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter() - (self.clock.stolen - stolen)
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hasattr(result, "relations"):
                # a document's schema is emitted once for output and once
                # more for the checks; count its relations once
                self.relations[self.doc] = len(result.relations)
            return result
        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


@contextmanager
def layer_spans(recorder: Recorder):
    saved = {name: getattr(cli, name) for name in LAYER_CALLS}
    try:
        for name, fn in saved.items():
            setattr(cli, name, recorder.wrap(LAYER_CALLS[name], fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _closure(doc):
    """(span name, input graph, closure call) as `catnorm closure` makes it."""
    graph, deps = parse_schema(doc.text)
    if doc.level == 1:
        return "fdclosure.closure", graph, \
            lambda: fd_closure_graph(graph, deps.fds)
    return "mvdclosure.closure", graph, \
        lambda: fd_mvd_closure_graph(graph, deps.fds, deps.mvds)


def span_pass(docs, configs, clock) -> tuple[Recorder, float, dict]:
    """One pass with spans, sampled like an untraced pass; returns the
    spans, the pipeline's seconds and the closure's counts."""
    rec = Recorder(clock)
    root = rec.wrap(ROOT_SPAN, cli.run_pipeline)
    total = 0.0
    counts = {"fdclosure.arrows_added": 0, "mvdclosure.mvd_objects": 0}
    with layer_spans(rec), clock.ticking():
        for i, (doc, config) in enumerate(zip(docs, configs)):
            rec.doc = i
            total += run_doc(config, root, clock)[0]
            if doc.level:
                name, graph, call = _closure(doc)
                with rec.span(name):
                    closed = call()
                counts["fdclosure.arrows_added"] += \
                    len(closed.arrows) - len(graph.arrows)
                counts["mvdclosure.mvd_objects"] += len(closed.mvd_objects)
    return rec, total, counts


def _code_key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_counts(configs) -> dict[str, int]:
    """Call counts from one cProfile pass; a function that no longer
    exists counts 0."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        for config in configs:
            run_doc(config)
    finally:
        prof.disable()
    prof.create_stats()
    stats = prof.stats
    core, fdclosure, mvdclosure, reduce, nf, chase = (
        importlib.import_module(f"catnorm.{m}") for m in
        ("core", "fdclosure", "mvdclosure", "reduce", "nf", "chase"))

    def fn(module, dotted):
        obj = module
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        return obj

    def calls(target):
        entry = stats.get(_code_key(target)) if target else None
        return entry[1] if entry else 0

    def calls_from(target, caller):
        """Calls of target made by a caller function, or by any function
        of a caller module."""
        entry = stats.get(_code_key(target)) if target and caller else None
        if entry is None:
            return 0
        if callable(caller):
            keys = [_code_key(caller)]
        else:
            keys = [k for k in entry[4] if k[0] == caller.__file__]
        return sum(entry[4][k][0] for k in keys if k in entry[4])

    prune = fn(reduce, "_prune_redundant_arrows")
    closure = fn(fdclosure, "attribute_closure")
    candidates = calls_from(fn(fdclosure, "derivable_without"), prune) \
        + calls_from(fn(reduce, "_key_prunable"), prune)
    removed = calls_from(fn(core, "CategoryGraph.without_arrow"), prune)
    return {
        "core.graphs_built": calls(fn(core, "CategoryGraph.__post_init__")),
        "fdclosure.attribute_closure_calls": calls(closure),
        "mvdclosure.dependency_basis_calls":
            calls(fn(mvdclosure, "dependency_basis")),
        "reduce.prune_rounds": calls(prune),
        "reduce.prune_candidates": candidates,
        "reduce.arrows_removed": removed,
        "reduce.objects_decomposed": calls(fn(reduce, "decompose_mvd_object")),
        "nf.closure_calls": calls_from(closure, nf),
        "chase.calls": calls(fn(chase, "chase")),
    }


def slope(points) -> float | None:
    """Least-squares slope of log t against log size."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        return None
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)


def growth(docs, recorders) -> dict[str, float]:
    """Per family: slope of log reduce time against log object count,
    with each document's reduce time the median over the span passes."""
    per_doc: dict[int, list[float]] = {}
    for rec in recorders:
        sums: dict[int, float] = {}
        for d, name, start, end, _ in rec.spans:
            if name in ("reduce.first", "reduce.second"):
                sums[d] = sums.get(d, 0.0) + end - start
        for d, t in sums.items():
            per_doc.setdefault(d, []).append(t)
    families: dict[str, list] = {}
    for d, ts in per_doc.items():
        families.setdefault(docs[d].family, []).append(
            (docs[d].size, statistics.median(ts)))
    out = {}
    for family, points in sorted(families.items()):
        s = slope([p for p in points if p[1] > 0])
        if s is not None:
            out[family] = s
    return out


@dataclass
class Layers:
    metrics: dict
    first: list
    passes: int
    trace: dict


def self_ms(rec: Recorder) -> dict[str, float]:
    """Self time per span name over one pass, in ms."""
    out: dict[str, float] = {}
    for (_, name, *_), own in zip(rec.spans, rec.self_times()):
        out[name] = out.get(name, 0.0) + own * 1e3
    return dict(sorted(out.items()))


def _pass_scale(clock, mark: int) -> float:
    """R0 over the mean of the samples taken since `mark`: the overhead
    compares passes a few seconds apart, across which the speed drifts."""
    taken = clock.samples[mark:]
    return R0_S / statistics.fmean(taken) if taken else clock.scale


def layer_metrics(docs, configs, seconds: float, clock) -> Layers:
    plain, traced, recorders = [], [], []
    first = None
    start = time.perf_counter()
    while not recorders or time.perf_counter() - start < seconds:
        gc.collect()
        mark = len(clock.samples)
        times, results = plain_pass(configs, clock)
        plain.append(sum(times) * _pass_scale(clock, mark))
        first = first or results
        gc.collect()
        mark = len(clock.samples)
        rec, total, counts = span_pass(docs, configs, clock)
        traced.append(total * _pass_scale(clock, mark))
        recorders.append(rec)
    gc.collect()
    profiled = profile_counts(configs)

    per_pass = [self_ms(rec) for rec in recorders]
    metrics = {m: (statistics.median(p.get(span, 0.0) for p in per_pass)
                   * clock.scale, "ms") for m, span in TIME_METRICS.items()}
    for name, value in {**counts, **profiled}.items():
        metrics[name] = (value, "count")
    metrics["emit.relations"] = (sum(recorders[-1].relations.values()),
                                 "count")
    removed, tested = profiled["reduce.arrows_removed"], \
        profiled["reduce.prune_candidates"]
    metrics["reduce.prune_yield"] = (removed / tested if tested else 0.0,
                                     "ratio")
    fits = growth(docs, recorders)
    metrics["reduce.growth_exp"] = (max(fits.values()) if fits else 0.0,
                                    "slope")
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = (100 * (traced_s - untraced_s)
                                     / untraced_s, "%")

    last = recorders[-1]
    trace = {
        "overhead": {"untraced_pass_ms_corrected": untraced_s * 1e3,
                     "traced_pass_ms_corrected": traced_s * 1e3,
                     "passes": len(recorders)},
        "prune_yield_base": {"arrows_removed": removed,
                             "candidates_tested": tested},
        "growth_exp_by_family": fits,
        "self_ms_by_span": per_pass[-1],
        "spans": [{"doc": docs[d].name, "name": n, "start": s, "end": e,
                   "parent": p} for d, n, s, e, p in last.spans],
    }
    return Layers(metrics, first, 2 * len(recorders), trace)
