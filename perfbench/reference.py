"""Evaluate reference answers from scratch in a worker process.

Usage::

    python3 perfbench/reference.py GRAPH.json JOBS.pickle FORMS.pickle

``JOBS.pickle`` holds a list of ``(kind, wire_query)`` pairs; the worker
loads the graph from ``GRAPH.json``, evaluates each query cache-free on the
dict engine (``repro.service.loadgen._evaluate_plain``) and writes the list
of order-free answer forms to ``FORMS.pickle``.  ``workloads.check_answers``
starts these workers and waits for each to end.
"""

from __future__ import annotations

import os
import pickle
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    graph_path, jobs_path, forms_path = argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.graph import io as graph_io
    from repro.service.loadgen import _evaluate_plain, _normalise
    from repro.service.wire import decode_query

    graph = graph_io.load_json(graph_path)
    with open(jobs_path, "rb") as handle:
        jobs = pickle.load(handle)
    forms = []
    for kind, wire in jobs:
        _kind, query = decode_query(wire)
        forms.append(_normalise(kind, _evaluate_plain(kind, query, graph)))
    with open(forms_path, "wb") as handle:
        pickle.dump(forms, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
