"""Behavioural tests for the GraphSession facade.

Covers the prepared-query lifecycle (planning, execution, the version-keyed
result memo), the unified QueryResult envelope, watch/apply_updates
propagation to multiple watchers, and the default-session registry the free
functions delegate their warm state to.
"""

import pytest

from repro import (
    GeneralReachabilityQuery,
    GraphSession,
    PatternQuery,
    ReachabilityQuery,
    default_session,
    evaluate_general_rq,
    evaluate_rq,
    join_match,
)
from repro.datasets.synthetic import generate_synthetic_graph
from repro.exceptions import QueryError
from repro.graph.data_graph import DataGraph
from repro.matching.incremental import coalesce_update_stream


@pytest.fixture
def graph():
    g = DataGraph(name="session-test")
    for node, attrs in [
        ("a", {"role": "x"}),
        ("b", {"role": "y"}),
        ("c", {"role": "y"}),
        ("d", {"role": "x"}),
    ]:
        g.add_node(node, **attrs)
    g.add_edges_from(
        [
            ("a", "b", "fa"),
            ("b", "c", "fn"),
            ("a", "c", "fa"),
            ("d", "a", "fn"),
            ("c", "d", "fa"),
        ]
    )
    return g


@pytest.fixture
def rq():
    return ReachabilityQuery("role = 'x'", "role = 'y'", "fa")


@pytest.fixture
def pq():
    pattern = PatternQuery(name="session-pq")
    pattern.add_node("X", {"role": "x"})
    pattern.add_node("Y", {"role": "y"})
    pattern.add_edge("X", "Y", "fa")
    return pattern


class TestPrepareExecute:
    def test_rq_matches_free_function(self, graph, rq):
        session = GraphSession(graph)
        result = session.prepare(rq).execute()
        assert result.answer.pairs == evaluate_rq(rq, graph).pairs
        assert result.plan.kind == "rq"
        assert not result.from_result_cache

    def test_pq_matches_free_function(self, graph, pq):
        session = GraphSession(graph)
        result = session.prepare(pq).execute()
        assert result.answer.same_matches(join_match(pq, graph))

    def test_general_rq_matches_free_function(self, graph):
        query = GeneralReachabilityQuery("role = 'x'", "role = 'y'", "(fa|fn)+")
        session = GraphSession(graph)
        result = session.prepare(query).execute()
        assert result.answer.pairs == evaluate_general_rq(query, graph).pairs

    def test_every_pq_algorithm_override_runs(self, graph, pq):
        session = GraphSession(graph)
        reference = join_match(pq, graph)
        for algorithm in ("join", "split", "naive"):
            result = session.prepare(pq, algorithm=algorithm).execute()
            assert result.answer.same_matches(reference), algorithm

    def test_matrix_plan_executes_through_session_matrix(self, graph, rq):
        session = GraphSession(graph)
        session.build_matrix()
        prepared = session.prepare(rq)
        assert prepared.plan.use_matrix
        assert prepared.execute().answer.pairs == evaluate_rq(rq, graph).pairs

    def test_unsatisfiable_plan_short_circuits(self, graph):
        query = ReachabilityQuery(None, None, "zz")
        session = GraphSession(graph)
        result = session.prepare(query).execute()
        assert result.plan.unsatisfiable
        assert result.answer.pairs == set()
        assert result.answer.pairs == evaluate_rq(query, graph).pairs

    def test_explain_delegates_to_plan(self, graph, rq):
        prepared = GraphSession(graph).prepare(rq)
        assert prepared.explain() == prepared.plan.explain()

    def test_session_engine_preference_forces_plans(self, graph, rq):
        session = GraphSession(graph, engine="csr")
        assert session.prepare(rq).plan.engine == "csr"
        # Per-prepare override beats the session preference.
        assert session.prepare(rq, engine="dict").plan.engine == "dict"

    def test_invalid_engine_rejected(self, graph):
        with pytest.raises(QueryError):
            GraphSession(graph, engine="gpu")
        with pytest.raises(QueryError):
            GraphSession(graph).matcher("gpu")

    def test_execute_many_shares_warm_state(self, graph, rq, pq):
        session = GraphSession(graph)
        results = session.execute_many([rq, pq])
        assert len(results) == 2
        assert results[0].plan.kind == "rq"
        assert results[1].plan.kind == "pq"


class TestResultMemo:
    def test_second_execute_hits_the_memo(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        first = prepared.execute()
        second = prepared.execute()
        assert not first.from_result_cache
        assert second.from_result_cache
        assert second.answer.pairs == first.answer.pairs
        assert prepared.result_cache_hits == 1
        assert session.result_cache_hits == 1

    def test_mutation_invalidates_the_memo(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        before = prepared.execute().answer.pairs
        session.apply_updates([("add", "d", "b", "fa")])
        after = prepared.execute()
        assert not after.from_result_cache
        assert ("d", "b") in after.answer.pairs
        assert after.answer.pairs == before | {("d", "b")}
        assert after.answer.pairs == evaluate_rq(rq, graph).pairs

    def test_memo_hits_are_mutation_safe(self, graph, rq):
        prepared = GraphSession(graph).prepare(rq)
        first = prepared.execute()
        first.answer.pairs.add(("poison", "poison"))
        assert ("poison", "poison") not in prepared.execute().answer.pairs

    def test_attribute_change_invalidates_the_memo(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        prepared.execute()
        session.add_node("b", role="x")  # b no longer matches the target
        refreshed = prepared.execute()
        assert not refreshed.from_result_cache
        assert refreshed.answer.pairs == evaluate_rq(rq, graph).pairs

    def test_matrix_plan_never_serves_stale_distances(self, graph, rq):
        # Regression: edge mutations must invalidate matrix-based plans —
        # the attached matrix describes the pre-mutation topology.
        session = GraphSession(graph)
        session.build_matrix()
        prepared = session.prepare(rq)
        assert prepared.plan.use_matrix
        prepared.execute()
        session.apply_updates([("add", "d", "b", "fa")])
        refreshed = prepared.execute()
        assert not refreshed.plan.use_matrix  # auto-replanned off the stale matrix
        assert ("d", "b") in refreshed.answer.pairs
        assert refreshed.answer.pairs == evaluate_rq(rq, graph).pairs
        # Newly prepared queries also avoid the stale matrix...
        assert not session.prepare(rq).plan.use_matrix
        # ...until it is rebuilt for the current topology.
        session.build_matrix()
        rebuilt = session.prepare(rq)
        assert rebuilt.plan.use_matrix
        assert rebuilt.execute().answer.pairs == evaluate_rq(rq, graph).pairs

    def test_unsatisfiable_plan_revives_when_colour_appears(self, graph):
        # Regression: the pruning decision must not outlive the statistics
        # it was computed from.
        query = ReachabilityQuery(None, None, "zz")
        session = GraphSession(graph)
        prepared = session.prepare(query)
        assert prepared.plan.unsatisfiable
        assert prepared.execute().answer.pairs == set()
        session.apply_updates([("add", "a", "b", "zz")])
        revived = prepared.execute()
        assert not revived.plan.unsatisfiable
        assert revived.answer.pairs == evaluate_rq(query, graph).pairs == {("a", "b")}

    def test_replan_follows_graph_growth(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        assert prepared.plan.engine == "dict"  # tiny graph
        for index in range(80):
            graph.add_node(f"n{index}", role="z")
        assert prepared.replan().engine == "csr"

    def test_execute_many_applies_update_streams(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        results = prepared.execute_many(
            [[], [("add", "d", "c", "fa")], [("remove", "d", "c", "fa")]]
        )
        assert [("d", "c") in result.answer.pairs for result in results] == [
            False, True, False,
        ]


class TestQueryResultEnvelope:
    def test_envelope_delegates_ergonomics(self, graph, rq):
        result = GraphSession(graph).execute(rq)
        assert bool(result) is bool(result.answer)
        assert len(result) == len(result.answer)
        assert set(iter(result)) == result.answer.pairs
        assert next(iter(result.answer.pairs)) in result

    def test_envelope_to_dict_round_trips_answer(self, graph, rq):
        result = GraphSession(graph).execute(rq)
        data = result.to_dict()
        assert data["plan"]["kind"] == "rq"
        assert data["engine"] == result.engine
        rebuilt = type(result.answer).from_dict(data["answer"])
        assert rebuilt.pairs == result.answer.pairs


class TestWatchAndUpdates:
    def test_rq_watch_tracks_free_function(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        assert watch.pairs == evaluate_rq(rq, graph).pairs
        session.apply_updates([("add", "d", "b", "fa"), ("add", "e", "b", "fa")])
        assert watch.pairs == evaluate_rq(rq, graph).pairs
        assert watch.answer().pairs == watch.pairs

    def test_pq_watch_tracks_free_function(self, graph, pq):
        session = GraphSession(graph)
        watch = session.watch(pq)
        session.apply_updates(
            [("add", "d", "c", "fa"), ("remove", "a", "b", "fa")]
        )
        assert watch.result.same_matches(join_match(pq, graph))

    def test_one_stream_propagates_to_every_watcher_once(self, graph, rq, pq):
        session = GraphSession(graph)
        rq_watch = session.watch(rq)
        pq_watch = session.watch(pq)
        delta = session.apply_updates(
            [
                ("add", "d", "b", "fa"),
                ("remove", "d", "b", "fa"),  # coalesces away
                ("add", "a", "d", "fn"),
            ]
        )
        assert delta.net_changes == 1
        assert delta.coalesced == 2
        # Each watcher ran exactly one maintenance batch for the stream.
        assert rq_watch.maintainer.batch_updates == 1
        assert pq_watch.maintainer.batch_updates == 1
        assert rq_watch.pairs == evaluate_rq(rq, graph).pairs
        assert pq_watch.result.same_matches(join_match(pq, graph))

    def test_stopped_watch_no_longer_maintained(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        watch.stop()
        assert session.watches == ()
        batches = watch.maintainer.batch_updates
        session.apply_updates([("add", "d", "b", "fa")])
        assert watch.maintainer.batch_updates == batches

    def test_attribute_mutation_forces_watch_recompute(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        session.add_node("b", role="x")  # shrinks the candidate set
        assert watch.pairs == evaluate_rq(rq, graph).pairs

    def test_session_edge_helpers_propagate(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        session.add_edge("d", "b", "fa")
        assert ("d", "b") in watch.pairs
        session.remove_edge("d", "b", "fa")
        assert ("d", "b") not in watch.pairs

    def test_general_rq_watch_rejected(self, graph):
        session = GraphSession(graph)
        with pytest.raises(QueryError):
            session.watch(GeneralReachabilityQuery(None, None, "(fa)+"))

    def test_rq_watch_with_shared_node_name_rejected(self, graph):
        session = GraphSession(graph)
        with pytest.raises(QueryError):
            session.watch(ReachabilityQuery(None, None, "fa", source="u", target="u"))

    def test_counters_report_session_activity(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        prepared.execute()
        prepared.execute()
        session.watch(rq)
        session.apply_updates([("add", "d", "b", "fa")])
        counters = session.counters()
        assert counters["prepared_queries"] >= 1
        assert counters["executed_queries"] == 2
        assert counters["result_cache_hits"] == 1
        assert counters["updates_applied"] == 1
        assert counters["watches"] == 1
        assert f"rq/{prepared.plan.algorithm}" in counters["plans_chosen"]


class TestReprsAndAccessors:
    def test_reprs_are_informative(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        result = prepared.execute()
        watch = session.watch(rq)
        assert "GraphSession" in repr(session) and "session-test" in repr(session)
        assert "PreparedQuery" in repr(prepared) and "rq" in repr(prepared)
        assert "QueryResult" in repr(result)
        assert "SessionWatch" in repr(watch)

    def test_pq_watch_answer_and_statistics(self, graph, pq):
        session = GraphSession(graph)
        watch = session.watch(pq)
        answer = watch.answer()
        assert answer.same_matches(join_match(pq, graph))
        # The answer is a copy: mutating it never corrupts the watcher.
        answer.node_matches.clear()
        assert watch.result.node_matches
        assert watch.statistics()["full_recomputations"] >= 1
        assert watch.pairs  # union of per-edge pairs for PQ watches

    def test_attach_matrix_requires_one_for_matrix_matcher(self, graph):
        session = GraphSession(graph)
        with pytest.raises(QueryError):
            session._matrix_path_matcher()

    def test_stats_cached_per_version(self, graph):
        session = GraphSession(graph)
        first = session.stats
        assert session.stats is first
        graph.add_edge("a", "d", "fa")
        assert session.stats is not first


class TestCoalesceUpdateStream:
    def test_net_effect_applied_once(self, graph):
        delta = coalesce_update_stream(
            graph,
            [
                ("add", "p", "q", "fa"),
                ("remove", "p", "q", "fa"),
                ("add", "p", "q", "fa"),
                ("add", "a", "b", "fa"),  # duplicate of an existing edge
            ],
        )
        assert graph.has_edge("p", "q", "fa")
        assert delta.inserted == (("p", "q", "fa"),)
        assert delta.deleted == ()
        assert set(delta.new_nodes) == {"p", "q"}
        assert delta.skipped == 1
        assert delta.coalesced == 2

    def test_unknown_operation_rejected(self, graph):
        with pytest.raises(ValueError):
            coalesce_update_stream(graph, [("upsert", "a", "b", "fa")])


class TestDefaultSessionRegistry:
    def test_same_graph_same_session(self, graph):
        assert default_session(graph) is default_session(graph)

    def test_distinct_graphs_distinct_sessions(self, graph):
        other = graph.copy()
        assert default_session(graph) is not default_session(other)

    def test_free_functions_share_the_default_dict_matcher(self, graph, rq):
        session = default_session(graph)
        matcher = session.matcher("dict")
        before = matcher.cache_stats["forward_entries"] + matcher.cache_stats["backward_entries"]
        evaluate_rq(rq, graph, engine="dict")
        after = matcher.cache_stats["forward_entries"] + matcher.cache_stats["backward_entries"]
        assert after > before

    def test_registry_is_bounded_and_evicted_graphs_are_collectable(self):
        # Regression: the registry must not retain every graph it ever saw.
        import gc
        import weakref

        from repro.session.defaults import DEFAULT_SESSION_REGISTRY_CAPACITY

        first = DataGraph(name="evictee")
        first.add_node("a")
        reference = weakref.ref(first)
        default_session(first)
        for index in range(DEFAULT_SESSION_REGISTRY_CAPACITY):
            filler = DataGraph(name=f"filler-{index}")
            filler.add_node("a")
            default_session(filler)
        del first, filler
        gc.collect()
        assert reference() is None, "evicted graph (and its session) must be collectable"


class TestSessionStoreIntegration:
    def test_store_stats_dict_until_csr_runs(self, graph, rq):
        session = GraphSession(graph, engine="dict")
        assert session.store_stats() == {"store": "dict"}
        session.execute(rq)
        assert session.store_stats() == {"store": "dict"}

    def test_csr_execution_activates_overlay_store(self):
        graph = generate_synthetic_graph(100, 400, seed=3)
        session = GraphSession(graph, engine="csr")
        query = ReachabilityQuery(None, None, sorted(graph.colors)[0])
        session.execute(query)
        stats = session.store_stats()
        assert stats["store"] == "overlay-csr"
        assert stats["base_edges"] == graph.num_edges

    def test_compaction_fraction_configures_the_store(self):
        graph = generate_synthetic_graph(100, 400, seed=3)
        session = GraphSession(graph, compaction_fraction=0.5)
        assert graph.overlay_store().compaction_fraction == 0.5

    def test_negative_compaction_fraction_rejected(self, graph):
        with pytest.raises(QueryError):
            GraphSession(graph, compaction_fraction=-0.1)

    def test_replanned_query_surfaces_overlay_occupancy(self):
        graph = generate_synthetic_graph(100, 400, seed=3)
        colors = sorted(graph.colors)
        session = GraphSession(graph, engine="csr")
        prepared = session.prepare(ReachabilityQuery(None, None, colors[0]))
        prepared.execute()
        nodes = list(graph.nodes())
        session.apply_updates([("add", nodes[0], nodes[1], colors[1])])
        prepared.execute()  # auto-replans against the mutated graph
        assert prepared.plan.store == "overlay-csr"
        assert "overlay occupancy" in prepared.explain()
        assert prepared.plan.features["overlay_edges"] >= 1

    def test_session_rq_on_csr_keeps_answers_identical_under_updates(self):
        graph = generate_synthetic_graph(120, 500, seed=5)
        colors = sorted(graph.colors)
        session = GraphSession(graph, engine="csr")
        query = ReachabilityQuery(None, None, f"{colors[0]}^2")
        nodes = list(graph.nodes())
        for step in range(6):
            session.apply_updates([("add", nodes[step], nodes[-1 - step], colors[0])])
            got = session.execute(query).answer.pairs
            expected = evaluate_rq(query, graph.copy(), engine="dict").pairs
            assert got == expected, step
