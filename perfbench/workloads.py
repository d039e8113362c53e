"""The benchmark's three workloads, their answer checks and self-checks.

``rq_distinct``
    Paper-size YouTube-like graph; one caller runs a closed loop over a
    stream of distinct queries (70% RQ, 15% general RQ, 15% PQ), so the
    evaluation path does the work and the result caches serve nothing.
``rq_repeat``
    Same graph; Zipf-skewed draws from 64 base queries, each emitted as-is,
    as an equivalent respelling or as a contained tightening, so
    canonicalisation, the plan memo and the semantic cache do the work.
``serve_rw``
    A smaller graph behind the HTTP service; one reader connection in an
    open loop at a fixed rate (75% single queries, 25% 3-query batches)
    beside one writer connection sending 4-edge update batches, so reads
    pin snapshots while writes bump versions and force compactions.

Every answer is compared with a cache-free from-scratch evaluation after the
timed phase; a workload that stops exercising what it was chosen for fails
its self-check.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.datasets.youtube import DEFAULT_NUM_EDGES, DEFAULT_NUM_NODES, generate_youtube_graph
from repro.exceptions import ReproError
from repro.graph import io as graph_io
from repro.query.canonical import canonicalize_query
from repro.service import GraphService, ServiceClient
from repro.service.service import ServiceHandle
from repro.service.client import ServiceCallError
from repro.service.wire import encode_query
# The verifier's own normal form, so both answer checks compare one shape
# (``reference.py`` evaluates with the verifier's cache-free reference).
from repro.service.loadgen import _normalise as normalise
from repro.service.loadgen import build_update_plan, verify_observations
from repro.session.defaults import DEFAULT_SEMANTIC_CACHE_CAPACITY
from repro.session.session import GraphSession

import queries
from hostspeed import HostSpeed
from stats import percentile, run_open_loop

WORKLOADS = ("rq_distinct", "rq_repeat", "serve_rw")

#: Query streams and update plans come from this fixed seed, drawn against
#: the graph that ``--seed`` generated.  The streams set most of the cost: on one graph,
#: three stream seeds moved the RQ median latency by up to 30% (18-24 ms on
#: 250 queries), while three graph seeds under one stream moved it by 6%.
#: A seed therefore changes the graph (topology and attribute values), and
#: every run measures the same query shapes.
STREAM_SEED = 2011

clock = time.perf_counter

#: rq_repeat draws base queries with weight ``1 / rank ** ZIPF_EXPONENT``.
ZIPF_EXPONENT = 1.1
#: Edges per update batch, in-process and served.
UPDATE_BATCH_EDGES = 4
#: serve_rw's read mix: the share of requests that are batches of
#: BATCH_QUERIES queries, and the share of queries repeated from the hot set.
BATCH_FRACTION = 0.25
BATCH_QUERIES = 3
HOT_FRACTION = 0.5
#: serve_rw's offered read rate, per reference second (see hostspeed).
READ_RATE = 20.0
#: Overlay size, as a share of base edges, at which the served graph
#: compacts: low enough that the store's 16-edge floor decides, so the
#: writer forces several compactions per run.
COMPACTION_FRACTION = 0.005


@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates; :meth:`tiny` shrinks them for smoke tests."""

    nodes: int = DEFAULT_NUM_NODES
    edges: int = DEFAULT_NUM_EDGES
    #: The served graph is smaller: a pinned-snapshot read evaluates on the
    #: dict engine and computes graph statistics per pin, so reads cost
    #: several times more than session reads.  At this size a read takes
    #: ~14 ms, so one connection offers READ_RATE reads at about a quarter
    #: utilisation and a run gets 360 reads, 18 of them beyond the p95.
    #: With 500 nodes at 11.5 reads/s (207 reads, 10 beyond the p95), the
    #: read_ms_p95 spread over ten seeds was 0.16-0.25; with this size, 0.04.
    serve_nodes: int = 300
    serve_edges: int = 1125
    #: Set-ups per run; setup_s is their median.  A served set-up takes
    #: ~25 ms with thread-scheduling jitter of the same order, so serve_rw
    #: repeats it more: with 25, the median's quartile spread over ten seeds
    #: was 0.25.
    setup_repeats: int = 9
    serve_setup_repeats: int = 60
    #: Distinct queries generated before the timed phase, and again each
    #: time a run uses them up: at least four semantic-cache capacities,
    #: and about five times what a run used when this was written.
    distinct_length: int = 3000
    repeat_bases: int = 64
    #: Zipf draws generated for rq_repeat at a time: about seven times what a
    #: run used when this was written.
    repeat_length: int = 200000
    #: Update batches of the in-process workloads (see Writer).
    write_batches: int = 400
    #: serve_rw's offered write rate, per reference second (see hostspeed).
    write_rate: float = 5.0
    hot_queries: int = 24
    #: Fixed work of the traced run (untraced once, then traced).
    trace_queries: int = 150
    trace_repeat_queries: int = 3000
    trace_serve_seconds: float = 6.0

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(nodes=300, edges=1100, serve_nodes=200, serve_edges=750,
                   setup_repeats=2, serve_setup_repeats=2,
                   distinct_length=4 * DEFAULT_SEMANTIC_CACHE_CAPACITY, repeat_bases=12,
                   repeat_length=5000, write_batches=10, write_rate=10.0, hot_queries=6,
                   trace_queries=20, trace_repeat_queries=60, trace_serve_seconds=1.5)


class BenchmarkFailure(Exception):
    """The run cannot produce its metrics (a stream ran out, a phase has no samples)."""


@dataclass
class Metric:
    """One reported figure; ``raw`` is the timing before host-speed scaling."""

    value: float
    unit: str
    samples: Optional[int] = None
    raw: Optional[float] = None


@dataclass
class Outcome:
    """What one run reports."""

    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    correct: bool
    problems: List[str]
    notes: Dict[str, Any]


# -- shared pieces -----------------------------------------------------------------

def digest(kind: str, answer: Any) -> Tuple[int, int]:
    """Size and hash of the order-free form of one answer."""
    form = normalise(kind, answer)
    return len(form), hash(form)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


Timing = Tuple[float, float]  # (raw, host-speed normalised), same unit


def summary(timings: Sequence[Timing], level: float, unit: str) -> Metric:
    """The ``level``-th percentile of normalised timings, raw alongside."""
    if not timings:
        raise BenchmarkFailure(f"no samples for a {unit} metric")
    raw, normalised = zip(*timings)
    if level == 50:
        return Metric(median(normalised), unit, len(timings), median(raw))
    return Metric(percentile(normalised, level), unit, len(timings), percentile(raw, level))


def timed(host: HostSpeed, started: float, seconds: float, scale: float = 1e3) -> Timing:
    return seconds * scale, host.normalise(started, seconds) * scale


def latency_metrics(reads: Sequence[Timing], by_kind: Dict[str, List[Timing]]) -> Dict[str, Metric]:
    """The read-latency metrics in ms: all reads, then per query kind."""
    metrics = {"read_ms_p50": summary(reads, 50, "ms"), "read_ms_p95": summary(reads, 95, "ms")}
    for kind, name in (("rq", "rq_ms_p50"), ("general_rq", "grq_ms_p50"), ("pq", "pq_ms_p50")):
        metrics[name] = summary(by_kind.get(kind, []), 50, "ms")
    return metrics


class Fixture:
    """A generated graph written to JSON inside the checkout."""

    def __init__(self, workdir: str, nodes: int, edges: int, seed: int):
        self.graph = generate_youtube_graph(nodes, edges, seed=seed)
        self.path = os.path.join(workdir, f"youtube-{nodes}-{seed}.json")
        graph_io.save_json(self.graph, self.path)


def open_session(path: str, warmup: Any, **session_options) -> GraphSession:
    """The set-up users pay: load the graph, open a session, first query."""
    # Through the module attribute, so a traced run sees the call.
    graph = graph_io.load_json(path)
    session = GraphSession(graph, **session_options)
    session.execute(warmup)
    return session


#: Host-speed probes taken right before each timed set-up.
SETUP_PROBES = 5


def timed_setups(repeats: int, build, host: HostSpeed) -> Tuple[List[Timing], Any]:
    """Run ``build()`` ``repeats`` times; keep the last result."""
    times: List[Timing] = []
    kept = None
    for _ in range(repeats):
        if kept is not None:
            _dispose(kept)
            kept = None
        gc.collect()
        for _ in range(SETUP_PROBES):
            host.sample()
        started = clock()
        kept = build()
        times.append(timed(host, started, clock() - started, scale=1.0))
    return times, kept


def _dispose(built: Any) -> None:
    """Stop a booted service; a plain session needs nothing."""
    shutdown = getattr(built, "shutdown", None)
    if shutdown is not None:
        shutdown()


# -- in-process closed loop --------------------------------------------------------

#: A closed loop on a slow host runs at most this many times ``--seconds``.
MAX_STRETCH = 3.0


class Executed(NamedTuple):
    index: int
    kind: str
    started: float
    elapsed: float
    digest: Tuple[int, int]


@dataclass
class LoopResult:
    records: List[Executed]
    started: float
    ended: float
    #: (start, end) of each stream refill; the timed phase leaves them out.
    pauses: List[Tuple[float, float]]

    @property
    def wall(self) -> float:
        return self.ended - self.started - sum(end - start for start, end in self.pauses)

    def normalised_wall(self, host: HostSpeed) -> float:
        return host.normalise_span(self.started, self.ended) - sum(
            host.normalise_span(start, end) for start, end in self.pauses)


def closed_loop(session: GraphSession, items: List[Tuple[str, Any]],
                seconds: Optional[float] = None, host: Optional[HostSpeed] = None,
                refill: Optional[Callable[[], None]] = None,
                writer: Optional["Writer"] = None) -> LoopResult:
    """Execute ``items`` one after another until ``seconds`` run out (or all).

    When the items run out first, ``refill()`` appends more of the stream;
    the time it takes counts neither towards ``seconds`` nor towards the
    loop's wall time.  With a ``host``, the seconds are reference-host
    seconds (see :mod:`hostspeed`), capped at :data:`MAX_STRETCH` times the
    wall clock.  A ``writer`` gets the chance to write between queries.
    """
    records = []
    pauses: List[Tuple[float, float]] = []
    started = last = clock()
    spent = 0.0
    for index in itertools.count():
        if seconds is None:
            if index == len(items):
                break
        else:
            now = clock()
            spent += (now - last) * (1.0 if host is None else host.recent_scale())
            last = now
            stretch = now - started - sum(end - start for start, end in pauses)
            if spent >= seconds or stretch >= MAX_STRETCH * seconds:
                break
            if index == len(items):
                if refill is None:
                    raise BenchmarkFailure("the query stream ran out before the timed phase ended")
                refill()
                last = clock()
                pauses.append((now, last))
        if host is not None:
            host.maybe_sample()
        if writer is not None:
            writer.maybe_write()
        kind, query = items[index]
        begun = clock()
        result = session.execute(query)
        elapsed = clock() - begun
        records.append(Executed(index, kind, begun, elapsed, digest(kind, result.answer)))
    return LoopResult(records, started, clock(), pauses)


#: Worker processes evaluating reference answers after a timed phase.
CHECK_WORKERS = 2
REFERENCE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")


def reference_forms(path: str, jobs: List[Tuple[str, Dict[str, Any]]]) -> List[Any]:
    """Evaluate ``jobs`` in :data:`CHECK_WORKERS` ``reference.py`` processes.

    Job and answer files sit beside the graph file.  Every worker is waited
    for on every way out, and killed first if this process gives up early.
    """
    directory = os.path.dirname(path)
    shares = [jobs[worker::CHECK_WORKERS] for worker in range(CHECK_WORKERS)]
    workers = []
    try:
        for worker, share in enumerate(shares):
            jobs_path = os.path.join(directory, f"reference-jobs-{worker}.pickle")
            forms_path = os.path.join(directory, f"reference-forms-{worker}.pickle")
            with open(jobs_path, "wb") as handle:
                pickle.dump(share, handle)
            workers.append((subprocess.Popen(
                [sys.executable, REFERENCE_SCRIPT, path, jobs_path, forms_path],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL), forms_path))
        for process, _forms_path in workers:
            if process.wait() != 0:
                raise BenchmarkFailure(f"reference worker exited with code {process.returncode}")
    finally:
        for process, _forms_path in workers:
            if process.poll() is None:
                process.kill()
            process.wait()
    forms: List[Any] = [None] * len(jobs)
    for worker, (_process, forms_path) in enumerate(workers):
        with open(forms_path, "rb") as handle:
            forms[worker::CHECK_WORKERS] = pickle.load(handle)
    return forms


def check_answers(path: str, items: Sequence[Tuple[str, Any]], records,
                  identity=None) -> List[str]:
    """Compare each recorded answer with a from-scratch evaluation.

    The references are evaluated in worker processes on the graph loaded
    from ``path`` (queries travel in their wire form); ``identity(index)``
    maps a stream index to the query object it ran, so repeated objects are
    evaluated once.
    """
    identity = identity or (lambda index: index)
    first: Dict[Any, int] = {}
    for record in records:
        first.setdefault(identity(record.index), record.index)
    jobs = [(items[index][0], encode_query(items[index][1])) for index in first.values()]
    forms = reference_forms(path, jobs)
    expected = {key: (len(form), hash(form)) for key, form in zip(first, forms)}
    problems = []
    for record in records:
        want = expected[identity(record.index)]
        if record.digest != want:
            problems.append(f"stream item {record.index} ({record.kind}): answer differs from "
                            f"from-scratch evaluation ({record.digest[0]} vs {want[0]} entries)")
    return problems


#: The in-process workloads apply their update batches to a second session
#: of the same graph, WRITE_BLOCK batches every WRITE_INTERVAL seconds of the
#: read loop, so the writes sample the host across the timed phase as the
#: reads do: one 10 ms write phase after the reads met a slow spell of the
#: host in some runs and read 1.6x slower.  The read session never sees them.
WRITE_BLOCK = 10
WRITE_INTERVAL = 0.4


class Writer:
    """Update batches applied a block at a time while the read loop runs."""

    def __init__(self, session: GraphSession, batches: int, host: HostSpeed):
        self.session = session
        self.plan = build_update_plan(session.graph, batches=batches,
                                      batch_size=UPDATE_BATCH_EDGES, seed=STREAM_SEED)
        self.host = host
        #: Ack latency (ms) of each batch applied so far.
        self.times: List[Timing] = []
        self.due = 0.0

    def maybe_write(self) -> None:
        """Apply the next block if one is due."""
        now = clock()
        if now < self.due or not self.plan:
            return
        self.due = now + WRITE_INTERVAL
        block, self.plan = self.plan[:WRITE_BLOCK], self.plan[WRITE_BLOCK:]
        for batch in block:
            begun = clock()
            self.session.apply_updates(batch)
            self.times.append(timed(self.host, begun, clock() - begun))


CACHE_COUNTERS = ("exact_hits", "containment_hits", "misses", "insertions", "evictions")


def cache_counters(counters: Dict[str, Any]) -> Dict[str, int]:
    """The cache and plan-memo counts out of ``GraphSession.counters()``."""
    stats = {key: counters["semantic_cache"][key] for key in CACHE_COUNTERS}
    stats["prepared_queries"] = counters["prepared_queries"]
    stats["plan_memo_hits"] = counters["plan_memo_hits"]
    return stats


def hit_ratio(stats: Dict[str, int]) -> float:
    hits = stats["exact_hits"] + stats["containment_hits"]
    total = hits + stats["misses"]
    return hits / total if total else 0.0


@dataclass
class InProcessInputs:
    fixture: Fixture
    warmup: Any
    items: List[Tuple[str, Any]]
    identity: Any
    #: Appends the next part of the same seeded stream to ``items``.
    refill: Callable[[], None]


def in_process_inputs(workload: str, seed: int, sizes: Sizes, workdir: str) -> InProcessInputs:
    fixture = Fixture(workdir, sizes.nodes, sizes.edges, seed)
    maker = queries.QueryMaker(fixture.graph, STREAM_SEED)
    warmup = maker.rq()
    items: List[Tuple[str, Any]] = []
    if workload == "rq_distinct":
        stream = queries.iter_distinct(maker, exclude={queries.query_key("rq", warmup)})

        def refill() -> None:
            items.extend(itertools.islice(stream, sizes.distinct_length))

        refill()
        return InProcessInputs(fixture, warmup, items, None, refill)
    pool = queries.repeat_pool(maker, sizes.repeat_bases)
    draws: List[Tuple[int, int]] = []

    def refill() -> None:
        more = queries.zipf_draws(maker.rng, len(pool), ZIPF_EXPONENT, sizes.repeat_length)
        draws.extend(more)
        items.extend(pool[base][variant] for base, variant in more)

    refill()
    return InProcessInputs(fixture, warmup, items, draws.__getitem__, refill)


def self_check_in_process(workload: str, stats: Dict[str, int], items, records) -> List[str]:
    problems = []
    ratio = hit_ratio(stats)
    if workload == "rq_distinct":
        if ratio > 0.01:
            problems.append(f"rq_distinct: semantic-cache hit ratio {ratio:.3f} > 0.01")
        keys = [canonicalize_query(items[record.index][1]).key for record in records]
        if len(set(keys)) != len(keys):
            problems.append(f"rq_distinct: {len(keys) - len(set(keys))} duplicate canonical keys")
    else:
        if ratio <= 0.5:
            problems.append(f"rq_repeat: semantic-cache hit ratio {ratio:.3f} is not a majority")
        if stats["exact_hits"] <= 0 or stats["containment_hits"] <= 0:
            problems.append(
                f"rq_repeat: needs exact and containment hits, got "
                f"{stats['exact_hits']} exact / {stats['containment_hits']} containment")
    return problems


def run_in_process(workload: str, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
    inputs = in_process_inputs(workload, seed, sizes, workdir)
    host = HostSpeed()
    setups, session = timed_setups(
        sizes.setup_repeats, lambda: open_session(inputs.fixture.path, inputs.warmup), host)
    writer = Writer(open_session(inputs.fixture.path, inputs.warmup), sizes.write_batches, host)
    before = cache_counters(session.counters())
    host.sample()
    loop = closed_loop(session, inputs.items, seconds, host, inputs.refill, writer)
    rss = peak_rss_mb()
    after = cache_counters(session.counters())
    stats = {key: after[key] - before[key] for key in before}
    writes = writer.times
    checking = clock()
    problems = check_answers(inputs.fixture.path, inputs.items, loop.records, inputs.identity)
    wrong = len(problems)
    problems += self_check_in_process(workload, stats, inputs.items, loop.records)
    check_s = clock() - checking

    reads = [timed(host, record.started, record.elapsed) for record in loop.records]
    by_kind: Dict[str, List[Timing]] = {}
    for record, timing in zip(loop.records, reads):
        by_kind.setdefault(record.kind, []).append(timing)
    count = len(loop.records)
    normalised_wall = loop.normalised_wall(host)
    attempted = count + len(writes)
    metrics = {"setup_s": summary(setups, 50, "s")}
    metrics.update(latency_metrics(reads, by_kind))
    metrics.update({
        "write_ms_p50": summary(writes, 50, "ms"),
        "queries_per_s": Metric(count / normalised_wall, "1/s", count, count / loop.wall),
        "ok_frac": Metric((attempted - wrong) / attempted, "ratio", attempted),
        "peak_rss_mb": Metric(rss, "MB"),
    })
    notes = {"cache": stats, "cache_hit_ratio": round(hit_ratio(stats), 4),
             "stream_generated": len(inputs.items), "stream_used": count,
             "stream_refills": len(loop.pauses), "check_s": round(check_s, 2),
             "host_probe_ms_p50": round(host.median_probe() * 1e3, 4)}
    return Outcome(metrics, attempted, wrong, wrong == 0, problems, notes)


# -- served reads beside writes ----------------------------------------------------

@dataclass
class Observation:
    """One served answer, in the shape ``verify_observations`` reads."""

    version: int
    probe_index: int
    normalised: Any


@dataclass
class ServeInputs:
    fixture: Fixture
    warmup: Any
    probes: List[Tuple[str, Any]]
    requests: List[List[int]]
    updates: List[List[Tuple[str, Any, Any, str]]]
    #: Seconds between due times: reads evenly spaced, writes exponential
    #: (a fixed write period would meet the read period in a fixed phase
    #: pattern, so how often writes wait behind a read would jump with the
    #: read cost instead of following it).
    read_gaps: List[float]
    write_gaps: List[float]


def serve_inputs(seed: int, seconds: float, sizes: Sizes, workdir: str) -> ServeInputs:
    """The probe pool, the read schedule and the update plan."""
    fixture = Fixture(workdir, sizes.serve_nodes, sizes.serve_edges, seed)
    maker = queries.QueryMaker(fixture.graph, STREAM_SEED)
    warmup_query = maker.rq()
    reads = round(READ_RATE * seconds)
    fresh_needed = reads * BATCH_QUERIES
    pool = queries.distinct_stream(maker, sizes.hot_queries + fresh_needed,
                                   exclude={queries.query_key("rq", warmup_query)})
    probes = pool[:sizes.hot_queries]
    fresh = iter(range(sizes.hot_queries, len(pool)))
    rng = random.Random(STREAM_SEED)
    used: Dict[int, int] = {}

    def draw() -> int:
        index = rng.randrange(sizes.hot_queries) if rng.random() < HOT_FRACTION else next(fresh)
        if index not in used:
            used[index] = len(probes) if index >= sizes.hot_queries else index
            if index >= sizes.hot_queries:
                probes.append(pool[index])
        return used[index]

    requests = []
    for _ in range(reads):
        count = BATCH_QUERIES if rng.random() < BATCH_FRACTION else 1
        requests.append([draw() for _ in range(count)])
    writes = round(sizes.write_rate * seconds)
    updates = build_update_plan(fixture.graph, batches=writes,
                                batch_size=UPDATE_BATCH_EDGES, seed=STREAM_SEED)
    read_gaps = [0.0] + [1.0 / READ_RATE] * (reads - 1)
    write_gaps = [rng.expovariate(sizes.write_rate) for _ in range(writes)]
    return ServeInputs(fixture, warmup_query, probes, requests, updates, read_gaps, write_gaps)


def boot(path: str, warmup: Any) -> ServiceHandle:
    """Load, open a session, boot the service and send the first query.

    The first query goes over HTTP, as a client's would: it pins the first
    snapshot, which compiles the CSR base.
    """
    session = GraphSession(graph_io.load_json(path), compaction_fraction=COMPACTION_FRACTION)
    handle = GraphService(session).run_in_thread()
    with ServiceClient(*handle.address) as client:
        client.query(warmup)
    return handle


@dataclass
class ServeRun:
    reads: list
    writes: list
    observations: List[Observation]
    update_log: List[Tuple[int, list]]
    initial_version: int
    errors: List[str]
    rejected: int
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    started: float
    wall: float
    writer_thread: int


def serve_loop(handle: ServiceHandle, inputs: ServeInputs, seconds: float,
               host: Optional[HostSpeed] = None) -> ServeRun:
    """One reader (this thread) and one writer thread, both open loops.

    With a ``host``, both offer their rates per reference second.
    """
    address = handle.address
    pace = (lambda: 1.0) if host is None else host.pace
    with ServiceClient(*address) as control:
        stats_before = control.stats()
    errors: List[str] = []
    rejected = [0]
    update_log: List[Tuple[int, list]] = []
    writes: list = []
    lock = threading.Lock()

    def failed(error: Exception) -> str:
        with lock:
            if isinstance(error, ServiceCallError) and error.retryable:
                rejected[0] += 1
            else:
                errors.append(str(error))
        return "failed"

    def writer() -> None:
        with ServiceClient(*address) as client:
            def update(index: int):
                batch = inputs.updates[index]
                try:
                    version, _net = client.update(batch)
                except (ReproError, OSError) as error:
                    return failed(error)
                update_log.append((version, batch))
                return version
            writes.extend(run_open_loop(update, inputs.write_gaps, pace=pace))

    def read(index: int):
        probe_ids = inputs.requests[index]
        try:
            return _read(client, inputs, probe_ids)
        except (ReproError, OSError) as error:
            return failed(error)

    thread = threading.Thread(target=writer, name="perfbench-writer")
    started = clock()
    thread.start()
    try:
        with ServiceClient(*address) as client:
            reads = run_open_loop(read, inputs.read_gaps, pace=pace,
                                  sleep=time.sleep if host is None else host.probing_sleep)
    finally:
        thread.join(seconds + 60.0)
    if thread.is_alive():
        raise BenchmarkFailure("writer thread did not finish")
    wall = clock() - started
    with ServiceClient(*address) as control:
        stats_after = control.stats()
    observations = [
        Observation(record.outcome[0], probe_index,
                    normalise(inputs.probes[probe_index][0], answer))
        for record in reads if record.outcome != "failed"
        for probe_index, answer in zip(record.outcome[2], record.outcome[1])
    ]
    return ServeRun(reads, writes, observations, update_log, int(stats_before["version"]),
                    errors, rejected[0], stats_before, stats_after, started, wall, thread.ident)


def _read(client: ServiceClient, inputs: ServeInputs, probe_ids: List[int]):
    if len(probe_ids) == 1:
        version, answer = client.query(inputs.probes[probe_ids[0]][1])
        return version, [answer], probe_ids
    version, answers = client.batch([inputs.probes[index][1] for index in probe_ids])
    return version, answers, probe_ids


def verify_serve(inputs: ServeInputs, run: ServeRun) -> List[str]:
    """Replay the update log onto the graph as the service loaded it."""
    return verify_observations(graph_io.load_json(inputs.fixture.path), run.initial_version,
                               run.update_log, inputs.probes, run.observations)


def serve_counts(run: ServeRun) -> Tuple[int, int]:
    """(attempted, failed) operations: every read query and update batch."""
    attempted = sum(
        len(record.outcome[2]) if record.outcome != "failed" else 1 for record in run.reads
    ) + len(run.writes)
    failed = sum(record.outcome == "failed" for record in run.reads + run.writes)
    return attempted, failed


def self_check_serve(run: ServeRun) -> List[str]:
    problems = []
    compactions = (run.stats_after["store"]["compactions"]
                   - run.stats_before["store"]["compactions"])
    if compactions < 2:
        problems.append(f"serve_rw: {compactions} compactions during the run, need >= 2")
    versions = {observation.version for observation in run.observations}
    if len(versions) <= 1:
        problems.append(f"serve_rw: {len(versions)} distinct versions observed, need > 1")
    if not run.reads:
        problems.append("serve_rw: no reads, so no generator lateness to report")
    return problems


def run_serve(seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
    inputs = serve_inputs(seed, seconds, sizes, workdir)
    host = HostSpeed()
    setups, handle = timed_setups(
        sizes.serve_setup_repeats, lambda: boot(inputs.fixture.path, inputs.warmup), host)
    try:
        run = serve_loop(handle, inputs, seconds, host)
        rss = peak_rss_mb()
    finally:
        handle.shutdown()
    wrong = verify_serve(inputs, run)
    problems = wrong + run.errors + self_check_serve(run)
    attempted, failed = serve_counts(run)
    failed += len(wrong)

    done = [record for record in run.reads if record.outcome != "failed"]
    reads = [timed(host, record.due, record.latency) for record in done]
    by_kind: Dict[str, List[Timing]] = {}
    for record, timing in zip(done, reads):
        probe_ids = record.outcome[2]
        if len(probe_ids) == 1:
            by_kind.setdefault(inputs.probes[probe_ids[0]][0], []).append(timing)
    # Update acks are reported unscaled: an HTTP update is mostly socket and
    # thread hand-off, which does not follow the pure-Python probe (probes
    # that differed by 1.7x between runs went with acks that differed by
    # 1.2x).  Over ten seeds the scaled median spread by 0.24-0.31, the raw
    # one by 0.08-0.09.
    write_ms = [(record.done - record.sent) * 1e3
                for record in run.writes if record.outcome != "failed"]
    writes = list(zip(write_ms, write_ms))
    late = [record.lateness * 1e3 for record in run.reads]
    queries = sum(len(record.outcome[2]) for record in done)
    metrics = {"setup_s": summary(setups, 50, "s")}
    metrics.update(latency_metrics(reads, by_kind))
    normalised_wall = host.normalise_span(run.started, run.started + run.wall)
    metrics.update({
        "queries_per_s": Metric(queries / normalised_wall, "1/s", len(done), queries / run.wall),
        "write_ms_p50": summary(writes, 50, "ms"),
        "ok_frac": Metric((attempted - failed) / attempted, "ratio", attempted),
        "peak_rss_mb": Metric(rss, "MB"),
    })
    notes = {
        "generator_late_ms_p50": round(median(late), 3),
        "generator_late_ms_p95": round(percentile(late, 95), 3),
        "generator_late_ms_max": round(max(late), 3),
        "compactions": run.stats_after["store"]["compactions"]
        - run.stats_before["store"]["compactions"],
        "versions_observed": len({o.version for o in run.observations}),
        "rejected": run.rejected,
        "offered_reads_per_reference_s": READ_RATE,
        "reads_per_s": round(len(done) / run.wall, 3),
        "host_probe_ms_p50": round(host.median_probe() * 1e3, 4),
    }
    return Outcome(metrics, attempted, failed, not wrong, problems, notes)
