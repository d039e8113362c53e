"""The traced run: per-layer metrics from spans around public entry points.

A traced run does a fixed amount of work twice on fresh set-ups: once
untraced, then once with :mod:`tracer` installed (set-up included, so
``graph.load_s`` and ``graph.compile_s`` count).  Layer figures come from
the traced pass; the relative slowdown of the traced pass over the untraced
one is reported as ``trace.overhead_frac``.

All ``*_s`` figures are summed *self* time (span duration minus the part its
child spans cover) over the traced pass, except ``service.round_trip_s``,
which is the client's whole read round trip, and ``service.overhead_s``:
read round trips minus the inclusive time the service spent in
``SessionSnapshot.execute``.

``trace.accounted_frac`` adds, on the thread that drove the run, the self
time of every span some reported ``*_s`` metric counts to the time outside
any span (``trace.unattributed_s``), over the traced wall time.  A span no
metric counts lowers it below 1.  The service's own threads run beside the
driving thread, so they are reported apart: ``trace.server_s`` is the time
they spent inside entry points, ``trace.server_accounted_frac`` the share of
it the reported metrics count.
"""

from __future__ import annotations

import gc
import threading
from typing import Any, Dict, Sequence

import tracer as tracing
import workloads as wl
from stats import percentile

#: Every per-layer metric: name -> unit.  A layer a workload does not touch
#: reports zero.
PER_LAYER_UNITS = {
    "graph.load_s": "s", "graph.compile_s": "s", "graph.compiles": "count",
    "graph.stats_s": "s", "graph.scan_s": "s", "graph.scans": "count",
    "kernels.calls": "count", "kernels.self_s": "s", "kernels.state_bytes": "bytes",
    "kernels.out_nodes": "count",
    "storage.adapter_s": "s", "storage.sync_s": "s", "storage.syncs": "count",
    "storage.compactions": "count", "storage.overlay_edges": "count",
    "storage.pin_s": "s", "storage.pins": "count",
    "regex.nfa_s": "s", "regex.containment_calls": "count", "regex.containment_s": "s",
    "query.canonicalize_s": "s", "query.canonicalize_calls": "count",
    "query.pq_containment_s": "s",
    "matching.frontier_s": "s", "matching.rq_s": "s", "matching.grq_s": "s",
    "matching.pq_s": "s",
    "session.open_s": "s", "session.execute_s": "s", "session.plan_s": "s",
    "session.plan_memo_hit_ratio": "ratio",
    "session.cache_probe_s": "s", "session.cache_serve_s": "s",
    "session.cache_hit_ratio": "ratio", "session.cache_exact_hits": "count",
    "session.cache_containment_hits": "count", "session.cache_evictions": "count",
    "session.snapshot_execute_s": "s",
    "service.boot_s": "s", "service.round_trip_s": "s", "service.wait_s": "s",
    "service.overhead_s": "s", "service.update_s": "s", "service.wire_s": "s",
    "service.rejected": "count", "service.errors": "count",
    "service.generator_late_ms_p95": "ms",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio", "trace.server_s": "s",
    "trace.server_accounted_frac": "ratio",
}

#: Span names whose self time makes up each ``*_s`` metric.
SELF_TIME = {
    "graph.load_s": ("graph.load",),
    "graph.compile_s": ("graph.compile", "graph.compile_build"),
    "graph.stats_s": ("graph.stats",),
    "graph.scan_s": ("graph.scan",),
    "kernels.self_s": ("kernels",),
    "storage.adapter_s": ("storage.adapter",),
    "storage.sync_s": ("storage.sync",),
    "storage.pin_s": ("storage.pin",),
    "regex.nfa_s": ("regex.nfa",),
    "regex.containment_s": ("regex.containment",),
    "query.canonicalize_s": ("query.canonicalize",),
    "query.pq_containment_s": ("query.pq_containment",),
    "matching.frontier_s": ("matching.frontier",),
    "matching.rq_s": ("matching.rq",),
    "matching.grq_s": ("matching.grq",),
    "matching.pq_s": ("matching.pq",),
    "session.open_s": ("session.open",),
    "session.execute_s": ("session.execute",),
    "session.plan_s": ("session.plan",),
    "session.cache_probe_s": ("session.cache_probe",),
    "session.cache_serve_s": ("session.cache_serve",),
    "session.snapshot_execute_s": ("session.snapshot_execute",),
    "service.boot_s": ("service.boot",),
    # The client's wait for the server: round trip minus wire encode/decode.
    "service.wait_s": ("service.round_trip",),
    "service.update_s": ("service.update",),
    "service.wire_s": ("service.wire",),
}

#: Span names some ``*_s`` metric counts.
COUNTED = frozenset(name for names in SELF_TIME.values() for name in names)

CALLS = {
    "graph.compiles": "graph.compile_build",
    "graph.scans": "graph.scan",
    "kernels.calls": "kernels",
    "storage.pins": "storage.pin",
    "regex.containment_calls": "regex.containment",
    "query.canonicalize_calls": "query.canonicalize",
}


def span_metrics(tracer: tracing.Tracer, thread: int, wall: float,
                 clients: Sequence[int] = ()) -> Dict[str, float]:
    """The span-derived metrics.

    ``thread`` drove the run for ``wall`` seconds; the service's threads are
    every other thread except the client ``clients``.
    """
    table = tracing.aggregate(tracer.spans)

    def row(name: str, column: str) -> float:
        return table.get(name, {}).get(column, 0.0)

    metrics = {key: sum(row(name, "self_s") for name in names) for key, names in SELF_TIME.items()}
    metrics.update({key: row(name, "calls") for key, name in CALLS.items()})
    metrics["kernels.state_bytes"] = tracer.counters.get("kernels.state_bytes", 0)
    metrics["kernels.out_nodes"] = tracer.counters.get("kernels.out_nodes", 0)
    metrics["service.round_trip_s"] = row("service.round_trip", "total_s")
    metrics["service.overhead_s"] = (row("service.round_trip", "total_s")
                                     - row("session.snapshot_execute", "total_s"))
    counted, remainder = tracing.accounted_wall(tracer.spans, thread, wall, COUNTED)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = remainder
    metrics["trace.accounted_frac"] = (counted + remainder) / wall
    server = [span for span in tracer.spans if span.thread not in {thread, *clients}]
    own = tracing.self_times(server)
    busy = tracing.busy_time(server)
    metrics["trace.server_s"] = busy
    if busy > 0:
        metrics["trace.server_accounted_frac"] = sum(
            own[span.span_id] for span in server if span.name in COUNTED) / busy
    return metrics


def _cache_metrics(stats: Dict[str, int]) -> Dict[str, float]:
    prepared = stats["prepared_queries"]
    return {
        "session.plan_memo_hit_ratio": stats["plan_memo_hits"] / prepared if prepared else 0.0,
        "session.cache_hit_ratio": wl.hit_ratio(stats),
        "session.cache_exact_hits": stats["exact_hits"],
        "session.cache_containment_hits": stats["containment_hits"],
        "session.cache_evictions": stats["evictions"],
    }


def _store_metrics(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    return {
        "storage.syncs": after.get("syncs", 0) - before.get("syncs", 0),
        "storage.compactions": after.get("compactions", 0) - before.get("compactions", 0),
        "storage.overlay_edges": after.get("overlay_edges", 0),
    }


def _finish(metrics: Dict[str, float], overhead: float) -> Dict[str, wl.Metric]:
    metrics["trace.overhead_frac"] = overhead
    return {name: wl.Metric(metrics.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}


def trace_in_process(workload: str, seed: int, sizes: wl.Sizes, workdir: str) -> wl.Outcome:
    inputs = wl.in_process_inputs(workload, seed, sizes, workdir)
    count = sizes.trace_queries if workload == "rq_distinct" else sizes.trace_repeat_queries
    items = inputs.items[:count]

    session = wl.open_session(inputs.fixture.path, inputs.warmup)
    untraced = wl.closed_loop(session, items)
    problems = wl.check_answers(inputs.fixture.path, items, untraced.records, inputs.identity)
    del session
    gc.collect()

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        started = wl.clock()
        session = wl.open_session(inputs.fixture.path, inputs.warmup)
        store_before = session.store_stats()
        cache_before = wl.cache_counters(session.counters())
        traced = wl.closed_loop(session, items)
        wall = wl.clock() - started
    finally:
        installed.restore()
    store_after = session.store_stats()
    cache_after = wl.cache_counters(session.counters())
    problems += wl.check_answers(inputs.fixture.path, items, traced.records, inputs.identity)
    wrong = len(problems)

    metrics = span_metrics(tracer, threading.get_ident(), wall)
    metrics.update(_cache_metrics({k: cache_after[k] - cache_before[k] for k in cache_before}))
    metrics.update(_store_metrics(store_before, store_after))
    attempted = len(untraced.records) + len(traced.records)
    notes = {"spans": len(tracer.spans), "untraced_wall_s": round(untraced.wall, 4),
             "traced_loop_wall_s": round(traced.wall, 4)}
    return wl.Outcome(_finish(metrics, traced.wall / untraced.wall - 1.0), attempted, wrong,
                      wrong == 0, problems, notes)


def _mean_latency(run: wl.ServeRun) -> float:
    done = [record.latency for record in run.reads if record.outcome != "failed"]
    return sum(done) / len(done) if done else 0.0


def trace_serve(seed: int, sizes: wl.Sizes, workdir: str) -> wl.Outcome:
    seconds = sizes.trace_serve_seconds
    inputs = wl.serve_inputs(seed, seconds, sizes, workdir)
    handle = wl.boot(inputs.fixture.path, inputs.warmup)
    try:
        untraced = wl.serve_loop(handle, inputs, seconds)
    finally:
        handle.shutdown()
    wrong = wl.verify_serve(inputs, untraced)
    problems = wrong + untraced.errors
    attempted, failed = wl.serve_counts(untraced)
    failed += len(wrong)
    del handle
    gc.collect()

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        started = wl.clock()
        handle = wl.boot(inputs.fixture.path, inputs.warmup)
        try:
            traced = wl.serve_loop(handle, inputs, seconds)
            wall = wl.clock() - started
        finally:
            handle.shutdown()
    finally:
        installed.restore()
    traced_wrong = wl.verify_serve(inputs, traced)
    wrong += traced_wrong
    problems += traced_wrong + traced.errors
    counts = wl.serve_counts(traced)
    attempted += counts[0]
    failed += counts[1] + len(traced_wrong)

    metrics = span_metrics(tracer, threading.get_ident(), wall, (traced.writer_thread,))
    cache_before = wl.cache_counters(traced.stats_before["session"])
    cache_after = wl.cache_counters(traced.stats_after["session"])
    metrics.update(_cache_metrics({k: cache_after[k] - cache_before[k] for k in cache_before}))
    metrics.update(_store_metrics(traced.stats_before["store"], traced.stats_after["store"]))
    service_after = traced.stats_after["service"]
    service_before = traced.stats_before["service"]
    metrics["service.rejected"] = service_after["rejected"] - service_before["rejected"]
    metrics["service.errors"] = service_after["errors"] - service_before["errors"]
    metrics["service.generator_late_ms_p95"] = percentile(
        [record.lateness * 1e3 for record in traced.reads], 95)
    untraced_mean = _mean_latency(untraced)
    overhead = _mean_latency(traced) / untraced_mean - 1.0 if untraced_mean else 0.0
    notes = {"spans": len(tracer.spans)}
    return wl.Outcome(_finish(metrics, overhead), attempted, failed, not wrong, problems, notes)
