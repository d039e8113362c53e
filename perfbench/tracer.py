"""Span recorder for the traced benchmark run.

The recorder times the program from outside: :func:`install` replaces each
public entry point listed in :data:`ENTRY_POINTS` with a wrapper that opens
a span around the call, everywhere a caller looks the name up (the defining
module, every ``repro`` module that imported the name, and module-level
registries such as a dict of algorithms), and :meth:`Installed.restore`
puts the originals back.

Each span records its name, start, end, parent span and a request id shared
by all spans of one request.  Parents come from a per-thread stack, so a
span's children always ran on its own thread; a span opened on an empty
stack roots a request of its own (a closed-loop ``GraphSession.execute``, a
client round trip, a service worker thread running
``SessionSnapshot.execute``).  Spans stay in memory; :func:`self_times` and
:func:`aggregate` turn them into per-layer figures once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Container, Dict, List, Optional, Sequence, Tuple


class Span:
    """One timed call."""

    __slots__ = ("name", "start", "end", "span_id", "parent", "request", "thread")

    def __init__(self, name: str, start: float, span_id: int, parent: Optional[int],
                 request: int, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1].span_id, stack[-1].request
        else:
            parent, request = None, span_id
        span = Span(name, self.clock(), span_id, parent, request, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, function: Callable, name: str,
             on_result: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(opened)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced


# -- the entry points -------------------------------------------------------------

def _kernel_counts(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Kernel work from the call itself: output size and per-call state.

    The CSR kernels take ``(layer(s), num_nodes, starts, ...)`` and keep one
    num_nodes-sized visited array and one reached array per call; the generic
    set-based BFS takes no node count and is charged output only.
    """
    tracer.count("kernels.out_nodes", len(result))
    num_nodes = kwargs.get("num_nodes", args[1] if len(args) > 1 else None)
    if isinstance(num_nodes, int):
        tracer.count("kernels.state_bytes", 2 * num_nodes)


#: (span name, module, object path, attribute names).  An empty object path
#: means module-level functions; otherwise methods of that class.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("graph.load", "repro.graph.io", "", ("load_json",)),
    ("graph.compile", "repro.graph.csr", "", ("compiled_snapshot",)),
    ("graph.compile_build", "repro.graph.csr", "CompiledGraph", ("__init__",)),
    ("graph.stats", "repro.graph.stats", "", ("compute_stats",)),
    ("graph.scan", "repro.graph.csr", "CompiledGraph", ("matching_indices",)),
    ("kernels", "repro.kernels", "",
     ("expand_frontier", "closure_frontier", "neighbors_of", "bfs_block_frontier")),
    ("storage.adapter", "repro.storage.adapter", "DictEngineAdapter", ("*",)),
    ("storage.adapter", "repro.storage.adapter", "OverlayCsrAdapter", ("*",)),
    ("storage.sync", "repro.storage.overlay", "OverlayCsrStore", ("sync",)),
    ("storage.pin", "repro.storage.overlay", "OverlayCsrStore", ("pin_snapshot",)),
    ("regex.nfa", "repro.regex.nfa", "", ("build_nfa",)),
    ("regex.nfa", "repro.regex.general", "GeneralRegex", ("parse", "to_nfa")),
    ("regex.containment", "repro.regex.containment", "", ("language_contains",)),
    ("query.canonicalize", "repro.query.canonical", "", ("canonicalize_query",)),
    ("query.pq_containment", "repro.query.containment", "",
     ("pq_contained_in", "pq_containment_mapping")),
    ("matching.frontier", "repro.matching.frontiers", "", ("meet_in_the_middle", "forward_sweep")),
    ("matching.rq", "repro.matching.reachability", "", ("evaluate_rq",)),
    ("matching.grq", "repro.matching.general_rq", "", ("evaluate_general_rq",)),
    ("matching.pq", "repro.matching.join_match", "", ("join_match",)),
    ("matching.pq", "repro.matching.split_match", "", ("split_match",)),
    ("matching.pq", "repro.matching.bounded_simulation", "", ("bounded_simulation_match",)),
    ("session.open", "repro.session.session", "GraphSession", ("__init__",)),
    ("session.execute", "repro.session.session", "GraphSession", ("execute",)),
    ("session.plan", "repro.session.planner", "", ("plan_query",)),
    ("session.cache_probe", "repro.session.semantic_cache", "SemanticCache", ("probe",)),
    ("session.cache_serve", "repro.session.semantic_cache", "SemanticCache", ("serve",)),
    ("session.snapshot_execute", "repro.session.session", "SessionSnapshot", ("execute",)),
    ("service.boot", "repro.service.service", "GraphService", ("run_in_thread",)),
    ("service.round_trip", "repro.service.client", "ServiceClient", ("query", "batch")),
    ("service.update", "repro.service.client", "ServiceClient", ("update",)),
    ("service.wire", "repro.service.wire", "",
     ("encode_query", "decode_query", "decode_result")),
)

_ON_RESULT = {"kernels": _kernel_counts}


class Installed:
    """The wrappers currently in place; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Callable[[Any], None], Any]] = []

    def record(self, setter: Callable[[Any], None], original: Any) -> None:
        self._undo.append((setter, original))

    def restore(self) -> None:
        while self._undo:
            setter, original = self._undo.pop()
            setter(original)


def _replace_everywhere(original: Callable, wrapper: Callable, installed: Installed) -> int:
    """Rebind ``original`` to ``wrapper`` wherever a ``repro`` module holds it."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                installed.record(functools.partial(setattr, module, attr), value)
                setattr(module, attr, wrapper)
                replaced += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        installed.record(functools.partial(value.__setitem__, key), item)
                        value[key] = wrapper
                        replaced += 1
    return replaced


def _public_methods(cls: type) -> List[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    ]


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point; returns the handle that restores them."""
    installed = Installed()
    try:
        for name, module_name, owner, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            on_result = _ON_RESULT.get(name)
            if not owner:
                for attr in attrs:
                    original = getattr(module, attr)
                    if _replace_everywhere(original, tracer.wrap(original, name, on_result),
                                           installed) == 0:
                        raise RuntimeError(f"entry point {module_name}.{attr} not found")
                continue
            cls = getattr(module, owner)
            for attr in (_public_methods(cls) if attrs == ("*",) else attrs):
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(raw.__func__, name, on_result))
                elif isinstance(raw, staticmethod):
                    replacement = staticmethod(tracer.wrap(raw.__func__, name, on_result))
                else:
                    replacement = tracer.wrap(raw, name, on_result)
                installed.record(functools.partial(setattr, cls, attr), raw)
                setattr(cls, attr, replacement)
    except BaseException:
        installed.restore()
        raise
    return installed


# -- arithmetic over finished spans -----------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Span name -> ``{"calls", "self_s", "total_s"}`` over all threads."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[span.span_id]
        row["total_s"] += span.duration
    return table


def accounted_wall(spans: Sequence[Span], thread: int, wall: float,
                   counted: Container[str]) -> Tuple[float, float]:
    """``(self time of counted spans, untraced remainder)`` on one thread.

    The remainder is the part of ``wall`` no root span of that thread covers.
    The two add up to ``wall`` only when every span on the thread is counted:
    the self time of a span whose name is not in ``counted`` is left out.
    """
    mine = [span for span in spans if span.thread == thread]
    own = self_times(mine)
    roots = [(span.start, span.end) for span in mine if span.parent is None]
    return (sum(own[span.span_id] for span in mine if span.name in counted),
            wall - _covered(roots))


def busy_time(spans: Sequence[Span]) -> float:
    """Summed over threads: the time each spent inside its root spans."""
    by_thread: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is None:
            by_thread.setdefault(span.thread, []).append((span.start, span.end))
    return sum(_covered(intervals) for intervals in by_thread.values())
