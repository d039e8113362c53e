"""Reachability queries with *general* regular expressions (extension).

The paper restricts edge constraints to the subclass ``F``; Section 7 names
general regular expressions as future work and warns that static analyses
become PSPACE-complete.  Evaluation, however, stays polynomial: a single
product construction over (graph node, NFA state) pairs answers "which nodes
are reachable from ``v`` along a path whose colour string is accepted by the
expression".  This module implements that evaluation so the library can run
queries such as ``(fa|sa)+ fn`` that the F class cannot express.

The entry point mirrors :func:`repro.matching.reachability.evaluate_rq` but
takes a :class:`~repro.regex.general.GeneralRegex` (or a parseable string).
Paths are still required to be non-empty, matching the paper's semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, Set, Tuple, Union

from repro.exceptions import EvaluationError
from repro.graph.data_graph import DataGraph
from repro.matching.paths import PathMatcher
from repro.query.predicates import Predicate
from repro.query.rq import PredicateLike, coerce_predicate
from repro.regex.general import GeneralRegex
from repro.session.defaults import DEFAULT_ENGINE, ENGINES

NodeId = Hashable
NodePair = Tuple[NodeId, NodeId]

RegexLike = Union[GeneralRegex, str]


@dataclass(frozen=True)
class GeneralReachabilityQuery:
    """A reachability query whose edge constraint is a general regex."""

    source_predicate: Predicate
    target_predicate: Predicate
    regex: GeneralRegex

    def __init__(
        self,
        source_predicate: PredicateLike = None,
        target_predicate: PredicateLike = None,
        regex: RegexLike = "_",
    ):
        object.__setattr__(self, "source_predicate", coerce_predicate(source_predicate))
        object.__setattr__(self, "target_predicate", coerce_predicate(target_predicate))
        compiled = regex if isinstance(regex, GeneralRegex) else GeneralRegex.parse(regex)
        object.__setattr__(self, "regex", compiled)


@dataclass
class GeneralReachabilityResult:
    """Node pairs matching a general-regex reachability query."""

    pairs: Set[NodePair] = field(default_factory=set)
    elapsed_seconds: float = 0.0

    @property
    def size(self) -> int:
        return len(self.pairs)

    def sources(self) -> Set[NodeId]:
        return {source for source, _ in self.pairs}

    def targets(self) -> Set[NodeId]:
        return {target for _, target in self.pairs}

    def __contains__(self, pair: NodePair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        """True when at least one pair matched."""
        return bool(self.pairs)

    def __iter__(self) -> Iterator[NodePair]:
        """Iterate the matching ``(source, target)`` pairs."""
        return iter(self.pairs)

    def copy(self) -> "GeneralReachabilityResult":
        """An independent copy (mutating it never affects the original)."""
        return GeneralReachabilityResult(
            pairs=set(self.pairs), elapsed_seconds=self.elapsed_seconds
        )

    def to_dict(self) -> Dict[str, object]:
        """A plain-container view that :meth:`from_dict` round-trips."""
        from repro.session.result import stamped

        return stamped(
            {
                "pairs": sorted((list(pair) for pair in self.pairs), key=repr),
                "elapsed_seconds": self.elapsed_seconds,
            }
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GeneralReachabilityResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.session.result import check_schema_version

        check_schema_version(data, "GeneralReachabilityResult")
        return cls(
            pairs={(pair[0], pair[1]) for pair in data.get("pairs", [])},
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


def evaluate_general_rq(
    query: GeneralReachabilityQuery,
    graph: DataGraph,
    engine: str = DEFAULT_ENGINE,
) -> GeneralReachabilityResult:
    """Evaluate a general-regex reachability query on a data graph.

    Engine-free like :func:`~repro.matching.reachability.evaluate_rq`: a
    private :class:`~repro.matching.paths.PathMatcher` for ``engine``
    (``"dict"``, ``"csr"`` — the resolution of ``"auto"`` — or
    ``"partitioned"``) scans the endpoint predicates and runs the
    (node × automaton state) product search through its storage adapter.
    All engines return identical pair sets.
    """
    if engine not in ENGINES:
        raise EvaluationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    started = time.perf_counter()
    matcher = PathMatcher(graph, engine=engine)
    sources = matcher.matching_nodes(query.source_predicate)
    targets = matcher.matching_nodes(query.target_predicate)
    pairs: Set[NodePair] = set()
    if sources and targets:
        pairs = matcher.product_pairs(query.regex.to_nfa(), sources, targets)
    return GeneralReachabilityResult(
        pairs=pairs, elapsed_seconds=time.perf_counter() - started
    )
