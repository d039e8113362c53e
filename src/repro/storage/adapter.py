"""Storage adapters: the one place that branches on the evaluation backend.

:class:`~repro.matching.paths.PathMatcher` exposes the expansion surface the
RQ/PQ fixpoints and the general-regex evaluator drive (``atom_targets`` …
``product_pairs``) and delegates all of it to one adapter.  Every question
bottoms out in one primitive — the frontier of a regex atom — so there is
one generic adapter plus one fast path:

* :class:`DictEngineAdapter` — generic over the
  :class:`~repro.storage.base.GraphStore` protocol.  It memoises
  ``store.frontier`` per (node, colour, bound) under per-colour version
  tags, answers set frontiers with one multi-source ``store.frontier``,
  folds whole expressions atom by atom (memoising backward folds), drives
  :func:`~repro.matching.frontiers.forward_sweep` /
  :func:`~repro.matching.frontiers.meet_in_the_middle`, and evaluates
  general expressions with a :class:`~repro.regex.nfa.LazyDfa` product
  search over store successors.  It runs the ``dict`` engine over the
  graph's own store (the authoritative
  :class:`~repro.storage.dict_store.DictStore`, or a pinned
  :class:`~repro.storage.snapshot.StoreSnapshot` behind its graph facade)
  and the ``partitioned`` engine over the graph's
  :class:`~repro.storage.partition.PartitionedStore`.  With a distance
  matrix, matrix rows replace the store as the frontier source; closures
  still read the store;
* :class:`OverlayCsrAdapter` — the generic adapter over the graph's
  :class:`~repro.storage.overlay.OverlayCsrStore`, overriding only the
  clean-colour paths: colours untouched since the base snapshot run on the
  memoised flat-array :class:`~repro.matching.csr_engine.CsrEngine`
  (rebuilt, with donor cache promotion, only when the store compacts), and
  anything dirty falls back to the generic merged read-through path.

The fixpoint bodies above the adapters are engine-free (reprolint R006).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.regex.fclass import WILDCARD
from repro.regex.nfa import LazyDfa
from repro.storage.base import scan_nodes

NodeId = Hashable


def make_adapter(matcher):
    """The storage adapter for one resolved :class:`PathMatcher`."""
    if matcher.engine == "csr":
        return OverlayCsrAdapter(matcher)
    return DictEngineAdapter(matcher)


class DictEngineAdapter:
    """Expansion over any :class:`~repro.storage.base.GraphStore`.

    This is the parity reference: the CSR fast path must return exactly
    these answers.  Single-node frontiers are memoised per ``(node, colour,
    bound)`` in the matcher's LRU caches, tagged with the graph's
    per-colour edge versions, so a mutated graph never serves stale
    frontiers while memos of untouched colours stay warm.
    """

    #: Predicate scans walk the live attribute table per call (no snapshot
    #: to memoise scans on); callers restrict scans to their affected area.
    memoises_scans = False
    csr_entries_carried = 0

    def __init__(self, matcher):
        self.matcher = matcher
        graph = matcher.graph
        self.store = (
            graph.partitioned_store() if matcher.engine == "partitioned" else graph.store
        )

    def _version(self, color: Optional[str]) -> int:
        """The version tag of a memo over one colour (``None`` = any colour)."""
        graph = self.matcher.graph
        return graph.edges_version if color is None else graph.color_version(color)

    # -- frontiers ---------------------------------------------------------------

    def _matrix_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        """One atom's frontier read off the caller's distance matrix."""
        matrix = self.matcher.matrix
        key = WILDCARD if item.is_wildcard else item.color
        bound = item.max_count

        def within(dist: int) -> bool:
            return dist >= 1 and (bound is None or dist <= bound)

        result: Set[NodeId] = set()
        if not reverse:
            for node in nodes:
                result.update(t for t, dist in matrix._row(node, key).items() if within(dist))
            return result
        # No reverse index: one sweep over every node's forward row.
        for node in self.matcher.graph.nodes():
            row = matrix._row(node, key)
            if len(row) <= len(nodes):
                hits = (dist for target, dist in row.items() if target in nodes)
            else:
                hits = (row[target] for target in nodes if target in row)
            if any(within(dist) for dist in hits):
                result.add(node)
        return result

    def _atom_frontier(self, node: NodeId, item, reverse: bool) -> Set[NodeId]:
        matcher = self.matcher
        if matcher.matrix is not None:
            return self._matrix_frontier({node}, item, reverse)
        if not matcher.graph.has_node(node):
            # A removed node fails identically on every engine, even while a
            # version-tagged memo for it is still around.
            raise GraphError(f"node {node!r} does not exist")
        color = None if item.is_wildcard else item.color
        cache = matcher._backward_cache if reverse else matcher._forward_cache
        key = (node, color, item.max_count)
        version = self._version(color)
        cached = cache.get(key)
        if cached is not None:
            cached_version, frontier = cached
            if cached_version == version:
                return set(frontier)
            matcher.stale_invalidations += 1
        frontier = frozenset(self.store.frontier((node,), color, item.max_count, reverse))
        cache.put(key, (version, frontier))
        return set(frontier)

    def _set_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        if len(nodes) == 1:
            # Singletons take the memoised path, which stays warm across
            # repeated fixpoint sweeps.
            (node,) = nodes
            return self._atom_frontier(node, item, reverse)
        matcher = self.matcher
        if matcher.matrix is not None:
            return self._matrix_frontier(nodes, item, reverse)
        graph = matcher.graph
        if not all(map(graph.has_node, nodes)):
            # The stores skip unknown starts; fail like a single node does.
            missing = next(node for node in nodes if not graph.has_node(node))
            raise GraphError(f"node {missing!r} does not exist")
        color = None if item.is_wildcard else item.color
        return self.store.frontier(nodes, color, item.max_count, reverse)

    def _fold(self, nodes: Set[NodeId], regex, reverse: bool) -> Set[NodeId]:
        """Advance ``nodes`` through every atom (right to left when reversed)."""
        frontier = set(nodes)
        for item in reversed(regex.atoms) if reverse else regex.atoms:
            frontier = self._set_frontier(frontier, item, reverse)
            if not frontier:
                break
        return frontier

    def atom_targets(self, source: NodeId, item) -> Set[NodeId]:
        return self._atom_frontier(source, item, reverse=False)

    def atom_sources(self, target: NodeId, item) -> Set[NodeId]:
        return self._atom_frontier(target, item, reverse=True)

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False) if sources else set()

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(targets, item, reverse=True) if targets else set()

    # -- closures and whole expressions ------------------------------------------

    def backward_closure(
        self, starts: Iterable[NodeId], colors: Optional[Iterable[str]] = None
    ) -> Set[NodeId]:
        graph = self.matcher.graph
        start_set = {node for node in starts if graph.has_node(node)}
        if not start_set:
            return set()
        # Never the distance matrix: the closure must reflect the *current*
        # topology.
        return self.store.closure(start_set, colors, reverse=True)

    def backward_reachable(self, targets: Set[NodeId], regex) -> Set[NodeId]:
        # Memoised per (regex, target set) under the regex's version vector:
        # the refinement fixpoints keep asking for stabilised sets.
        if not targets:
            return set()
        matcher = self.matcher
        target_set = frozenset(targets)
        key = ("bwd", regex, target_set)
        if regex.has_wildcard:
            version = self._version(None)
        else:
            version = tuple(self._version(color) for color in sorted(regex.colors))
        cached = matcher._backward_cache.get(key)
        if cached is not None:
            cached_version, frontier = cached
            if cached_version == version:
                return set(frontier)
            matcher.stale_invalidations += 1
        result = frozenset(self._fold(target_set, regex, reverse=True))
        matcher._backward_cache.put(key, (version, result))
        return set(result)

    def _expression(self, node: NodeId, regex, reverse: bool) -> Set[NodeId]:
        return self._fold({node}, regex, reverse)

    def targets_from(self, source: NodeId, regex) -> Set[NodeId]:
        return self._expression(source, regex, reverse=False)

    def sources_to(self, target: NodeId, regex) -> Set[NodeId]:
        return self._expression(target, regex, reverse=True)

    def edge_pairs(
        self, sources: Set[NodeId], targets: Set[NodeId], regex
    ) -> Set[Tuple[NodeId, NodeId]]:
        from repro.matching.frontiers import forward_sweep

        return forward_sweep(self.matcher, regex, list(sources), targets)

    def query_pairs(
        self, regex, sources, targets, method: str
    ) -> Set[Tuple[NodeId, NodeId]]:
        from repro.matching.frontiers import forward_sweep, meet_in_the_middle

        if method == "bidirectional":
            return meet_in_the_middle(self.matcher, regex, sources, targets)
        # With a distance matrix each expansion is a sequence of row walks
        # (the paper's nested-loop matrix method); without one this is the
        # plain forward BFS baseline of Exp-3.
        return forward_sweep(self.matcher, regex, sources, targets)

    def product_pairs(self, nfa, sources, targets) -> Set[Tuple[NodeId, NodeId]]:
        """Pairs joined by a non-empty path the automaton ``nfa`` accepts.

        Breadth-first search over (node, automaton state) from every source,
        the automaton determinised lazily over the graph's colour alphabet
        and each state advanced along the store's per-colour successors.
        """
        colors = sorted(self.matcher.graph.colors)
        dfa = LazyDfa(nfa, colors)
        dead = LazyDfa.DEAD
        successors = self.store.successors
        target_set = set(targets)
        pairs: Set[Tuple[NodeId, NodeId]] = set()
        for source in sources:
            seen = {(source, dfa.start)}
            frontier = [(source, dfa.start)]
            while frontier:
                advanced = []
                for node, state in frontier:
                    for color_index, color in enumerate(colors):
                        next_state = dfa.step(state, color_index)
                        if next_state == dead:
                            continue
                        accepting = dfa.is_accepting(next_state)
                        for nxt in successors(node, color):
                            key = (nxt, next_state)
                            if key in seen:
                                continue
                            seen.add(key)
                            advanced.append(key)
                            if accepting and nxt in target_set:
                                pairs.add((source, nxt))
                frontier = advanced
        return pairs

    # -- predicate scans ---------------------------------------------------------

    def matching_nodes(self, predicate):
        graph = self.matcher.graph
        return scan_nodes(predicate, graph.nodes(), graph.attributes)


class OverlayCsrAdapter(DictEngineAdapter):
    """The generic adapter over the overlay store, plus the clean-CSR fast path.

    Colours whose overlay is empty ("clean") run on the per-matcher
    :class:`~repro.matching.csr_engine.CsrEngine` over the store's base
    snapshot — full flat-array speed with memoised expansions that stay warm
    across mutations of *other* colours, because the engine is rebuilt only
    when the store compacts (old caches then serve as a validate-on-lookup
    donor, counted in ``csr_entries_carried``).  Everything else — dirty
    colours, nodes the base has not seen — falls back to the generic
    adapter over the store's merged read-through frontiers.
    """

    #: Predicate scans run on the base snapshot's memo (plus a live sweep of
    #: the few nodes created since) — repeated scans are effectively free.
    memoises_scans = True

    def __init__(self, matcher):
        self.matcher = matcher
        self.store = matcher.graph.overlay_store()
        self._engine = None
        self._engine_base = None
        self._promoted_base = 0

    # -- engine lifecycle --------------------------------------------------------

    def engine_handle(self):
        """This matcher's CSR engine over the store's current base.

        The base only changes when the store compacts; the retiring engine's
        caches then serve as a validate-on-lookup donor, so memoised
        expansions of colours the compaction did not rebuild stay warm
        (promotions are counted in :attr:`csr_entries_carried`).
        """
        from repro.matching.csr_engine import CsrEngine

        base = self.store.base()
        engine = self._engine
        if engine is not None and self._engine_base is base:
            return engine
        if engine is not None:
            self._promoted_base += engine.promoted
        fresh = CsrEngine(base, self.matcher._cache_capacity, donor=engine)
        self._engine = fresh
        self._engine_base = base
        return fresh

    @property
    def csr_entries_carried(self) -> int:
        engine = self._engine
        current = engine.promoted if engine is not None else 0
        return self._promoted_base + current

    # -- cleanliness -------------------------------------------------------------

    def _clean(self, colors: Optional[Iterable[str]], *node_sets) -> bool:
        """True when ``colors`` (``None`` = all) read from the base and every
        node of ``node_sets`` has a base index.  Syncs the store first."""
        store = self.store
        store.sync()
        if not all(map(store.is_clean, (None,) if colors is None else colors)):
            return False
        new_nodes = store._new_nodes
        return not new_nodes or all(new_nodes.isdisjoint(nodes) for nodes in node_sets)

    def _regex_clean(self, regex, *node_sets) -> bool:
        return self._clean(None if regex.has_wildcard else regex.colors, *node_sets)

    def _on_base(self, evaluate, *node_sets):
        """Run ``evaluate(engine, *index_sets)`` in dense index space; the
        returned index pairs are translated back to node ids."""
        engine = self.engine_handle()
        compiled = engine.compiled
        index_pairs = evaluate(engine, *map(compiled.node_indices, node_sets))
        ids = compiled.ids
        return {(ids[a], ids[b]) for a, b in index_pairs}

    # -- frontiers ---------------------------------------------------------------

    def _atom_frontier(self, node: NodeId, item, reverse: bool) -> Set[NodeId]:
        color = None if item.is_wildcard else item.color
        if self._clean(None if color is None else (color,)) and self.store.in_base(node):
            engine = self.engine_handle()
            compiled = engine.compiled
            expand = engine.atom_sources if reverse else engine.atom_targets
            ids = compiled.ids
            return {ids[j] for j in expand(compiled.node_index(node), item)}
        return super()._atom_frontier(node, item, reverse)

    def _set_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        color = None if item.is_wildcard else item.color
        if len(nodes) > 1 and self._clean(None if color is None else (color,), nodes):
            engine = self.engine_handle()
            compiled = engine.compiled
            expand = engine.set_sources_indices if reverse else engine.set_targets_indices
            ids = compiled.ids
            return {ids[j] for j in expand(compiled.node_indices(nodes), item)}
        return super()._set_frontier(nodes, item, reverse)

    # -- closures and whole expressions ------------------------------------------

    def backward_closure(
        self, starts: Iterable[NodeId], colors: Optional[Iterable[str]] = None
    ) -> Set[NodeId]:
        graph = self.matcher.graph
        start_set = {node for node in starts if graph.has_node(node)}
        color_list = None if colors is None else list(colors)
        if not start_set or not self._clean(color_list, start_set):
            return super().backward_closure(start_set, color_list)
        engine = self.engine_handle()
        compiled = engine.compiled
        color_ids = None
        if color_list is not None:
            color_ids = [
                color_id
                for color_id in (compiled.color_id(color) for color in color_list)
                if color_id is not None
            ]
        indices = engine.backward_closure_indices(compiled.node_indices(start_set), color_ids)
        ids = compiled.ids
        return start_set | {ids[j] for j in indices}

    def backward_reachable(self, targets: Set[NodeId], regex) -> Set[NodeId]:
        if not targets or not self._regex_clean(regex, targets):
            return super().backward_reachable(targets, regex)
        engine = self.engine_handle()
        compiled = engine.compiled
        indices = engine.backward_reachable_indices(compiled.node_indices(targets), regex)
        ids = compiled.ids
        return {ids[j] for j in indices}

    def _expression(self, node: NodeId, regex, reverse: bool) -> Set[NodeId]:
        if self._regex_clean(regex) and self.store.in_base(node):
            engine = self.engine_handle()
            compiled = engine.compiled
            index = compiled.node_index(node)
            indices = engine.sources_to(index, regex) if reverse else engine.targets_from(index, regex)
            ids = compiled.ids
            return {ids[j] for j in indices}
        return super()._expression(node, regex, reverse)

    def edge_pairs(
        self, sources: Set[NodeId], targets: Set[NodeId], regex
    ) -> Set[Tuple[NodeId, NodeId]]:
        if self._regex_clean(regex, sources, targets):
            return self._on_base(
                lambda engine, s, t: engine.matching_pairs(regex, s, t), sources, targets
            )
        return super().edge_pairs(sources, targets, regex)

    def query_pairs(
        self, regex, sources, targets, method: str
    ) -> Set[Tuple[NodeId, NodeId]]:
        if self._regex_clean(regex, sources, targets):
            # Entirely in dense index space, translating once at the end;
            # the engine memoises the whole query per candidate sets, so an
            # unchanged clean query is one frozenset hash on re-execution.
            return self._on_base(
                lambda engine, s, t: engine.query_pairs(regex, s, t, method), sources, targets
            )
        return super().query_pairs(regex, sources, targets, method)

    def product_pairs(self, nfa, sources, targets) -> Set[Tuple[NodeId, NodeId]]:
        # The flat-array product loop needs every colour clean: the
        # automaton may read any of them.
        if self._clean(None, sources, targets):
            return self._on_base(
                lambda engine, s, t: engine.nfa_product_pairs(nfa, s, t), sources, targets
            )
        return super().product_pairs(nfa, sources, targets)

    # -- predicate scans ---------------------------------------------------------

    def matching_nodes(self, predicate):
        return self.store.matching_nodes(predicate)
