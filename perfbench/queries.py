"""Seeded query streams for the benchmark workloads.

Every stream derives from the workload seed and the generated graph; the
program under test only ever receives the finished query objects.

* :func:`distinct_stream` — queries with pairwise distinct identities, so a
  result cache can serve none of them.
* :func:`repeat_pool` / :func:`zipf_draws` — a small set of base queries,
  each with an equivalent respelling and a contained tightening, drawn with
  Zipf-skewed popularity.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator, List, Optional, Set, Tuple

from repro.datasets.youtube import CATEGORIES, UPLOADERS
from repro.matching.general_rq import GeneralReachabilityQuery
from repro.query.generator import QueryGenerator
from repro.query.pq import PatternQuery
from repro.query.predicates import AtomicCondition, Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom

#: Share of each query kind in every stream (kind names as on the wire).
KIND_MIX = (("rq", 0.70), ("general_rq", 0.15), ("pq", 0.15))

#: RQ shape: 1-2 predicate conditions per endpoint, per-colour bound 2-5,
#: at most two colours.
RQ_CONDITIONS = (1, 2)
RQ_BOUNDS = (2, 5)
MAX_COLORS = 2

#: PQ shape: |Vp| = 5, |Ep| = 6, bound 3.
PQ_NODES, PQ_EDGES, PQ_BOUND = 5, 6, 3

#: Conditions conjoined to tighten a predicate; the first whose attribute the
#: predicate does not constrain yet is used.
TIGHTENINGS = (
    AtomicCondition("view", ">=", 300000),
    AtomicCondition("len", "<=", 10),
    AtomicCondition("com", "<=", 1500),
    AtomicCondition("age", "<=", 1500),
)

Item = Tuple[str, Any]


def _predicate_key(predicate: Predicate) -> Tuple:
    return tuple(sorted((c.attribute, c.op, repr(c.value)) for c in predicate.conditions))


def _regex_key(regex: FRegex) -> Tuple:
    """Per maximal colour run: (colour, atom count, summed bound)."""
    runs = []
    for color, group in itertools.groupby(regex.atoms, key=lambda atom: atom.color):
        atoms = list(group)
        bounds = [atom.max_count for atom in atoms]
        runs.append((color, len(atoms), None if None in bounds else sum(bounds)))
    return tuple(runs)


def query_key(kind: str, query: Any) -> Tuple:
    """A cheap identity that equivalent respellings of our generators share."""
    if kind == "rq":
        return ("rq", _predicate_key(query.source_predicate),
                _predicate_key(query.target_predicate), _regex_key(query.regex))
    if kind == "general_rq":
        return ("general_rq", _predicate_key(query.source_predicate),
                _predicate_key(query.target_predicate), str(query.regex))
    return (
        "pq",
        tuple(sorted((node, _predicate_key(query.predicate(node))) for node in query.nodes())),
        tuple(sorted((e.source, e.target, _regex_key(e.regex)) for e in query.edges())),
    )


class QueryMaker:
    """Draws RQs, general-regex RQs and PQs for one graph and seed."""

    def __init__(self, graph, seed: int):
        self.rng = random.Random(seed)
        self.generator = QueryGenerator(graph, seed=self.rng.randrange(2 ** 31))
        self.colors = sorted(graph.colors)
        uploaders = {graph.get_attribute(node, "uid") for node in graph.nodes()}
        categories = {graph.get_attribute(node, "cat") for node in graph.nodes()}
        self.uploaders = [value for value in UPLOADERS if value in uploaders]
        self.categories = [value for value in CATEGORIES if value in categories]

    def kind(self) -> str:
        kinds, weights = zip(*KIND_MIX)
        return self.rng.choices(kinds, weights)[0]

    def rq(self) -> ReachabilityQuery:
        return self.generator.reachability_query(
            num_predicates=self.rng.randint(*RQ_CONDITIONS),
            bound=self.rng.randint(*RQ_BOUNDS),
            max_colors=MAX_COLORS,
        )

    def rq_with_run(self) -> ReachabilityQuery:
        """An RQ whose regex ends in a two-atom colour run, e.g. ``a^3.b^2.b``."""
        first, second = self.rng.choice(self.colors), self.rng.choice(self.colors)
        regex = FRegex([
            RegexAtom(first, self.rng.randint(*RQ_BOUNDS)),
            RegexAtom(second, self.rng.randint(2, 3)),
            RegexAtom(second, 1),
        ])
        return ReachabilityQuery(
            self.generator.random_predicate(self.rng.randint(*RQ_CONDITIONS)),
            self.generator.random_predicate(self.rng.randint(*RQ_CONDITIONS)),
            regex,
        )

    def general_rq(self) -> GeneralReachabilityQuery:
        """A bounded general regex from a selective two-condition source.

        Unbounded expressions (``(a|b)*.b``) from unselective sources run
        for seconds per query; they are a separate problem, not this mix.
        """
        a, b = self.rng.sample(self.colors, 2)
        k = self.rng.randint(2, 3)
        regex = self.rng.choice([
            f"({a}|{b}){{{k}}}",
            f"{a}.{b}?.{a}",
            f"{a}{{2}}.({a}|{b})",
            f"({a}.{b})|({b}.{a})",
            f"{a}.({a}|{b}).{b}",
        ])
        source = Predicate([
            AtomicCondition("uid", "=", self.rng.choice(self.uploaders)),
            AtomicCondition("cat", "=", self.rng.choice(self.categories)),
        ])
        target = self.generator.random_predicate(self.rng.randint(*RQ_CONDITIONS))
        return GeneralReachabilityQuery(source, target, regex)

    def pq(self) -> PatternQuery:
        return self.generator.pattern_query(
            PQ_NODES, PQ_EDGES,
            num_predicates=self.rng.randint(*RQ_CONDITIONS),
            bound=PQ_BOUND, max_colors=MAX_COLORS,
        )

    def make(self, kind: str) -> Any:
        if kind == "rq":
            return self.rq()
        if kind == "general_rq":
            return self.general_rq()
        return self.pq()


def iter_distinct(maker: QueryMaker, exclude: Optional[Set[Tuple]] = None) -> Iterator[Item]:
    """Endless queries of the kind mix, no two sharing :func:`query_key`."""
    seen = set(exclude or ())
    while True:
        kind = maker.kind()
        query = maker.make(kind)
        key = query_key(kind, query)
        if key not in seen:
            seen.add(key)
            yield kind, query


def distinct_stream(maker: QueryMaker, length: int,
                    exclude: Optional[Set[Tuple]] = None) -> List[Item]:
    """The first ``length`` queries of :func:`iter_distinct`."""
    return list(itertools.islice(iter_distinct(maker, exclude), length))


# -- respellings and tightenings ----------------------------------------------------

def _tighter(predicate: Predicate) -> Predicate:
    used = predicate.attributes
    extra = next(c for c in TIGHTENINGS if c.attribute not in used)
    return Predicate(tuple(predicate.conditions) + (extra,))


def _reverse_runs(regex: FRegex) -> FRegex:
    atoms: List[RegexAtom] = []
    for _, group in itertools.groupby(regex.atoms, key=lambda atom: atom.color):
        atoms.extend(reversed(list(group)))
    return FRegex(atoms)


def _rename(pattern: PatternQuery, rng: random.Random) -> PatternQuery:
    nodes = list(pattern.nodes())
    names = [f"n{index}" for index in range(len(nodes))]
    rng.shuffle(names)
    mapping = dict(zip(nodes, names))
    renamed = PatternQuery(name=pattern.name + "-renamed")
    for node in nodes:
        renamed.add_node(mapping[node], pattern.predicate(node))
    for edge in pattern.edges():
        renamed.add_edge(mapping[edge.source], mapping[edge.target], edge.regex)
    return renamed


def respell(kind: str, query: Any, rng: random.Random) -> Any:
    """An equivalent query spelt differently (same canonical identity)."""
    if kind == "rq":
        return ReachabilityQuery(query.source_predicate, query.target_predicate,
                                 _reverse_runs(query.regex))
    if kind == "general_rq":
        return GeneralReachabilityQuery(
            Predicate(tuple(reversed(query.source_predicate.conditions))),
            query.target_predicate, query.regex)
    return _rename(query, rng)


def tighten(kind: str, query: Any, lower_bound: bool) -> Any:
    """A query contained in ``query``: a lower first bound or a narrower predicate."""
    if kind == "rq":
        if lower_bound:
            atoms = list(query.regex.atoms)
            atoms[0] = RegexAtom(atoms[0].color, atoms[0].max_count - 1)
            return ReachabilityQuery(query.source_predicate, query.target_predicate,
                                     FRegex(atoms))
        return ReachabilityQuery(query.source_predicate, _tighter(query.target_predicate),
                                 query.regex)
    if kind == "general_rq":
        return GeneralReachabilityQuery(query.source_predicate,
                                        _tighter(query.target_predicate), query.regex)
    tightened = query.copy()
    node = sorted(tightened.nodes())[0]
    tightened.set_predicate(node, _tighter(tightened.predicate(node)))
    return tightened


def repeat_pool(maker: QueryMaker, bases: int) -> List[List[Item]]:
    """``bases`` base queries, each as ``[as-is, respelling, tightening]``."""
    counts = {kind: round(bases * share) for kind, share in KIND_MIX}
    counts["pq"] = bases - counts["rq"] - counts["general_rq"]
    pool: List[List[Item]] = []
    seen: Set[Tuple] = set()
    for kind in ("rq", "general_rq", "pq"):
        made = 0
        while made < counts[kind]:
            base = maker.rq_with_run() if kind == "rq" else maker.make(kind)
            key = query_key(kind, base)
            if key in seen:
                continue
            seen.add(key)
            pool.append([
                (kind, base),
                (kind, respell(kind, base, maker.rng)),
                (kind, tighten(kind, base, lower_bound=made % 2 == 0)),
            ])
            made += 1
    maker.rng.shuffle(pool)
    return pool


def zipf_draws(rng: random.Random, bases: int, exponent: float, count: int,
               variants: int = 3) -> List[Tuple[int, int]]:
    """``count`` (base rank, variant) draws; rank r has weight ``1 / r**exponent``."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, bases + 1)]
    ranks = rng.choices(range(bases), weights, k=count)
    return [(rank, rng.randrange(variants)) for rank in ranks]

