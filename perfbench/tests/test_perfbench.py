"""Tests of the benchmark's own arithmetic, load generator and workloads.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import types

import pytest

import layers
import queries
import run
import stats
import tracer as tracing
import workloads as wl
from repro.datasets.youtube import generate_youtube_graph
from repro.query.canonical import canonicalize_query
from repro.query.containment import pq_contained_in, rq_contained_in

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("count, level", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_is_highest_level_with_ten_samples_beyond(count, level):
    assert stats.tail_percentile(count) == level
    if level is not None:
        assert stats.samples_beyond(count, level) >= stats.MIN_BEYOND


def test_nearest_rank_percentile_leaves_the_counted_samples_beyond():
    samples = list(range(1, 201))
    assert stats.percentile(samples, 95) == 190
    assert sum(value > stats.percentile(samples, 95) for value in samples) == 10
    assert stats.percentile([3.0], 50) == 3.0


# -- self time over spans -----------------------------------------------------------

def span(name, start, end, span_id, parent=None, thread=1):
    made = tracing.Span(name, start, span_id, parent, 1, thread)
    made.end = end
    return made


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0, 1),
        span("b", 1.0, 4.0, 2, parent=1),
        span("c", 5.0, 9.0, 3, parent=1),
        span("d", 6.0, 7.0, 4, parent=3),
    ]
    assert tracing.self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    table = tracing.aggregate(spans)
    assert table["a"]["total_s"] == 10.0 and table["a"]["self_s"] == 3.0
    assert sum(tracing.self_times(spans).values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", 0.0, 10.0, 1),
        span("b", 2.0, 6.0, 2, parent=1),
        span("c", 4.0, 12.0, 3, parent=1),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(2.0)


def test_spans_of_other_threads_do_not_reduce_self_time():
    spans = [
        span("request", 0.0, 10.0, 1, thread=1),
        span("client", 1.0, 9.0, 2, parent=1, thread=1),
        span("worker", 2.0, 8.0, 3, thread=2),
        span("kernel", 3.0, 5.0, 4, parent=3, thread=2),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 2.0, 2: 8.0, 3: 4.0, 4: 2.0}
    every = {"request", "client", "worker", "kernel"}
    assert tracing.accounted_wall(spans, 1, 12.0, every) == (10.0, 2.0)
    assert tracing.accounted_wall(spans, 2, 6.0, every) == (6.0, 0.0)
    # A span left out of the count leaves its self time unaccounted.
    assert tracing.accounted_wall(spans, 1, 12.0, {"request"}) == (2.0, 2.0)
    assert tracing.busy_time(spans) == 16.0


def test_accounted_frac_counts_only_spans_a_reported_metric_counts():
    tracer = tracing.Tracer()
    tracer.spans = [
        span("session.execute", 0.0, 10.0, 1, thread=1),
        span("graph.scan", 2.0, 4.0, 2, parent=1, thread=1),
        span("not.a.layer", 5.0, 8.0, 3, parent=1, thread=1),
        span("session.snapshot_execute", 0.0, 6.0, 4, thread=2),
        span("kernels", 1.0, 3.0, 5, parent=4, thread=2),
    ]
    metrics = layers.span_metrics(tracer, 1, 12.0)
    assert metrics["session.execute_s"] == 5.0 and metrics["graph.scan_s"] == 2.0
    assert metrics["trace.unattributed_s"] == 2.0
    # 3 s of the 12 s wall ran in a span no metric reports.
    assert metrics["trace.accounted_frac"] == pytest.approx(9.0 / 12.0)
    assert metrics["trace.server_s"] == 6.0
    assert metrics["trace.server_accounted_frac"] == pytest.approx(1.0)
    # A client thread is neither the driving thread nor the server.
    assert layers.span_metrics(tracer, 1, 12.0, (2,))["trace.server_s"] == 0.0


def test_tracer_parents_come_from_each_threads_own_stack():
    tracer = tracing.Tracer()

    def work(tag):
        inner = tracer.wrap(lambda: None, f"inner-{tag}")
        outer = tracer.wrap(inner, f"outer-{tag}")
        tracer.wrap(lambda: [outer() for _ in range(50)], f"root-{tag}")()

    threads = [threading.Thread(target=work, args=(tag,)) for tag in "xyz"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    by_id = {s.span_id: s for s in tracer.spans}
    for made in tracer.spans:
        if made.parent is not None:
            parent = by_id[made.parent]
            assert parent.thread == made.thread and parent.request == made.request
            assert parent.name[-1] == made.name[-1]
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 3 and len({s.request for s in roots}) == 3
    own = tracing.self_times(tracer.spans)
    for root in roots:
        tree = [s for s in tracer.spans if s.request == root.request]
        assert sum(own[s.span_id] for s in tree) == pytest.approx(root.duration)


def test_install_wraps_every_lookup_and_restore_puts_originals_back():
    import repro.kernels
    import repro.matching.csr_engine
    import repro.session.session

    original = repro.kernels.expand_frontier
    join = repro.session.session._PQ_ALGORITHMS["join"]
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert repro.matching.csr_engine.expand_frontier is repro.kernels.expand_frontier
        assert repro.kernels.expand_frontier is not original
        assert repro.session.session._PQ_ALGORITHMS["join"] is not join
    finally:
        installed.restore()
    assert repro.kernels.expand_frontier is original
    assert repro.matching.csr_engine.expand_frontier is original
    assert repro.session.session._PQ_ALGORITHMS["join"] is join


# -- open-loop timing ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_counts_latency_from_due_time_through_a_stall():
    clock = FakeClock()

    def operation(index):
        clock.now += 0.5 if index == 3 else 0.01
        return index

    records = stats.run_open_loop(operation, [0.0] + [0.1] * 9,
                                  clock=clock, sleep=clock.sleep)
    assert [r.outcome for r in records] == list(range(10))
    assert [round(r.due - 100.0, 6) for r in records] == [i / 10 for i in range(10)]
    # The stall itself: due at 0.3, sent on time, done 0.5 s later.
    assert records[3].latency == pytest.approx(0.5)
    # The next request was due at 0.4 but could only go out at 0.8.
    assert records[4].lateness == pytest.approx(0.4)
    assert records[4].latency == pytest.approx(0.41)
    assert records[4].done - records[4].sent == pytest.approx(0.01)
    # The backlog drains: by 0.9 the loop is back on schedule.
    assert records[9].lateness == pytest.approx(0.0, abs=1e-9)
    assert records[0].latency == pytest.approx(0.01)


def test_open_loop_pace_stretches_the_schedule():
    clock = FakeClock()
    records = stats.run_open_loop(lambda index: clock.sleep(0.01), [0.0, 0.1, 0.1, 0.1],
                                  clock=clock, sleep=clock.sleep, pace=lambda: 2.0)
    assert [round(r.due - 100.0, 6) for r in records] == [0.0, 0.2, 0.4, 0.6]


# -- the closed loop ---------------------------------------------------------------

class FakeSession:
    def execute(self, query):
        time.sleep(0.001)
        return types.SimpleNamespace(answer=types.SimpleNamespace(pairs=[(query, query)]))


def test_closed_loop_refills_a_short_stream_outside_the_timed_phase():
    items = [("rq", 0), ("rq", 1)]

    def refill():
        time.sleep(0.05)
        items.extend(("rq", len(items) + offset) for offset in range(2))

    loop = wl.closed_loop(FakeSession(), items, 0.05, refill=refill)
    assert len(loop.records) > 2 and len(loop.pauses) >= 1
    assert [record.index for record in loop.records] == list(range(len(loop.records)))
    paused = sum(end - start for start, end in loop.pauses)
    assert paused >= 0.05 * len(loop.pauses)
    assert loop.wall == pytest.approx(loop.ended - loop.started - paused)
    # The refills' sleeps did not use up the timed phase.
    assert loop.wall >= 0.05
    with pytest.raises(wl.BenchmarkFailure):
        wl.closed_loop(FakeSession(), [("rq", 0)], 0.05)


# -- the query streams --------------------------------------------------------------

@pytest.fixture(scope="module")
def maker():
    return queries.QueryMaker(generate_youtube_graph(300, 1100, seed=3), seed=3)


def test_repeat_pool_respellings_share_keys_and_tightenings_are_contained(maker):
    pool = queries.repeat_pool(maker, 12)
    assert {kind for variants in pool for kind, _ in variants} == {"rq", "general_rq", "pq"}
    for (kind, base), (_, respelt), (_, tight) in pool:
        assert canonicalize_query(respelt).key == canonicalize_query(base).key
        assert canonicalize_query(tight).key != canonicalize_query(base).key
        if kind == "rq":
            assert str(respelt.regex) != str(base.regex)
            assert rq_contained_in(tight, base)
        elif kind == "pq":
            assert pq_contained_in(tight, base)
        else:
            assert tight.target_predicate.implies(base.target_predicate)


def test_distinct_stream_has_no_repeated_identity(maker):
    stream = queries.distinct_stream(maker, 300)
    keys = [canonicalize_query(query).key for _, query in stream]
    assert len(set(keys)) == len(keys)


def test_zipf_draws_favour_low_ranks():
    import random

    draws = queries.zipf_draws(random.Random(1), 64, 1.1, 20000)
    counts = [0] * 64
    for rank, variant in draws:
        counts[rank] += 1
        assert 0 <= variant < 3
    assert counts[0] > counts[1] > counts[10] > counts[63] > 0


# -- tiny smoke runs of every workload ----------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload, tmp_path, capsys):
    sizes = wl.Sizes.tiny()
    if workload == "serve_rw":
        outcome = wl.run_serve(5, 2.0, sizes, str(tmp_path))
    else:
        outcome = wl.run_in_process(workload, 5, 1.0, sizes, str(tmp_path))
    assert outcome.correct and not outcome.problems, outcome.problems
    assert outcome.failed == 0 and outcome.attempted > 0
    assert len(report_lines(outcome, 0, capsys)) >= 2 + len(outcome.metrics)
    names = [metric["name"] for metric in benchmark_spec()["end_to_end"]]
    assert sorted(outcome.metrics) == sorted(names)
    for name, metric in outcome.metrics.items():
        assert metric.value > 0, name


def test_reference_workers_answer_in_order_and_are_all_waited_for(tmp_path):
    from repro.service.loadgen import _evaluate_plain, _normalise
    from repro.service.wire import encode_query

    fixture = wl.Fixture(str(tmp_path), 120, 450, seed=3)
    maker = queries.QueryMaker(fixture.graph, seed=3)
    stream = queries.distinct_stream(maker, 5)
    forms = wl.reference_forms(fixture.path, [(kind, encode_query(q)) for kind, q in stream])
    assert forms == [_normalise(kind, _evaluate_plain(kind, q, fixture.graph))
                     for kind, q in stream]
    with pytest.raises(wl.BenchmarkFailure):
        wl.reference_forms(str(tmp_path / "missing.json"), [("rq", encode_query(stream[0][1]))])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_lines(outcome, trace, capsys):
    args = argparse.Namespace(workload="tiny", seed=5, seconds=1.0, trace=trace)
    run._report(args, outcome, "numpy")
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path, capsys):
    sizes = wl.Sizes.tiny()
    if workload == "serve_rw":
        outcome = layers.trace_serve(5, sizes, str(tmp_path))
    else:
        outcome = layers.trace_in_process(workload, 5, sizes, str(tmp_path))
    assert outcome.correct and not outcome.problems, outcome.problems
    assert len(report_lines(outcome, 1, capsys)) >= 2 + len(outcome.metrics)
    names = [metric["name"] for metric in benchmark_spec()["per_layer"]]
    assert sorted(outcome.metrics) == sorted(names)
    metrics = {name: metric.value for name, metric in outcome.metrics.items()}
    # Every entry point on the driving thread maps to a reported metric.
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-6)
    assert metrics["graph.load_s"] > 0 and metrics["graph.compiles"] > 0
    assert metrics["session.open_s"] > 0
    if workload == "serve_rw":
        assert metrics["session.snapshot_execute_s"] > 0 and metrics["storage.pins"] > 0
        assert metrics["service.round_trip_s"] > metrics["service.overhead_s"] > 0
        assert metrics["service.wait_s"] > 0 and metrics["service.update_s"] > 0
        assert metrics["service.boot_s"] > 0
        assert metrics["trace.server_s"] > metrics["session.snapshot_execute_s"]
        assert metrics["trace.server_accounted_frac"] == pytest.approx(1.0, abs=1e-6)
    else:
        assert metrics["query.canonicalize_calls"] > 0 and metrics["session.plan_s"] > 0
        assert metrics["kernels.calls"] > 0 and metrics["kernels.state_bytes"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rq_distinct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
