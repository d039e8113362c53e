"""Tests for the general-regular-expression extension (union, star, etc.)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import RegexSyntaxError
from repro.matching.general_rq import GeneralReachabilityQuery, evaluate_general_rq
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.general import GeneralRegex


class TestParsingAndMatching:
    def test_single_symbol(self):
        expr = GeneralRegex.parse("fa")
        assert expr.matches(["fa"])
        assert not expr.matches(["fn"])
        assert not expr.matches([])

    def test_concatenation(self):
        expr = GeneralRegex.parse("fa fn")
        assert expr.matches(["fa", "fn"])
        assert not expr.matches(["fa"])
        assert GeneralRegex.parse("fa.fn").matches(["fa", "fn"])

    def test_union(self):
        expr = GeneralRegex.parse("fa|fn")
        assert expr.matches(["fa"])
        assert expr.matches(["fn"])
        assert not expr.matches(["sa"])
        assert not expr.matches(["fa", "fn"])

    def test_star(self):
        expr = GeneralRegex.parse("fa*")
        assert expr.accepts_empty
        assert expr.matches(["fa"] * 5)
        assert not expr.matches(["fn"])

    def test_plus(self):
        expr = GeneralRegex.parse("fa+")
        assert not expr.accepts_empty
        assert expr.matches(["fa"])
        assert expr.matches(["fa"] * 7)

    def test_optional(self):
        expr = GeneralRegex.parse("fa? fn")
        assert expr.matches(["fn"])
        assert expr.matches(["fa", "fn"])
        assert not expr.matches(["fa", "fa", "fn"])

    def test_grouping_with_star(self):
        expr = GeneralRegex.parse("(fa|sa)+ fn")
        assert expr.matches(["fa", "fn"])
        assert expr.matches(["sa", "fa", "sa", "fn"])
        assert not expr.matches(["fn"])
        assert not expr.matches(["fa", "sn", "fn"])

    def test_bounded_repetition(self):
        expr = GeneralRegex.parse("fa{3}")
        assert expr.matches(["fa"] * 3)
        assert not expr.matches(["fa"] * 2)
        assert not expr.matches(["fa"] * 4)

    def test_wildcard(self):
        expr = GeneralRegex.parse("_ fn")
        assert expr.matches(["whatever", "fn"])
        assert not expr.matches(["fn"])

    def test_nested_groups(self):
        expr = GeneralRegex.parse("(fa (sa|sn))* fn")
        assert expr.matches(["fn"])
        assert expr.matches(["fa", "sa", "fn"])
        assert expr.matches(["fa", "sn", "fa", "sa", "fn"])
        assert not expr.matches(["fa", "fn"])

    @pytest.mark.parametrize("text", ["", "   ", "(fa", "fa)", "|fa", "fa{0}", "fa{x}", "fa{2"])
    def test_invalid_syntax(self, text):
        with pytest.raises(RegexSyntaxError):
            GeneralRegex.parse(text)

    def test_str_and_repr(self):
        expr = GeneralRegex.parse("fa|fn")
        assert str(expr) == "fa|fn"
        assert "fa|fn" in repr(expr)


class TestFRegexConversion:
    CASES = ["fa", "fa^3", "fa^+", "fa^2.fn", "_^2.sa^+", "fa.fa^2"]
    WORDS = [
        [],
        ["fa"],
        ["fa", "fa"],
        ["fa", "fa", "fa"],
        ["fa", "fn"],
        ["fa", "fa", "fn"],
        ["x", "y", "sa"],
        ["sa", "sa", "sa", "sa"],
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_conversion_preserves_language(self, text):
        from repro.regex.parser import parse_fregex

        f_expr = parse_fregex(text)
        general = GeneralRegex.from_fregex(f_expr)
        for word in self.WORDS:
            assert general.matches(word) == f_expr.matches(word), (text, word)


color_strategy = st.sampled_from(["a", "b"])
atom_strategy = st.builds(
    RegexAtom,
    color=color_strategy,
    max_count=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)


@pytest.mark.slow
@given(
    atoms=st.lists(atom_strategy, min_size=1, max_size=3),
    word=st.lists(color_strategy, min_size=0, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_from_fregex_agrees_with_fclass_matcher(atoms, word):
    f_expr = FRegex(atoms)
    assert GeneralRegex.from_fregex(f_expr).matches(word) == f_expr.matches(word)


class TestGeneralRqEvaluation:
    @pytest.fixture
    def graph(self, essembly_graph):
        return essembly_graph

    def test_union_constraint(self, graph):
        """Biologists connected to Alice via a chain of fa or sa edges."""
        query = GeneralReachabilityQuery(
            {"job": "biologist"}, {"uid": "Alice001"}, "(fa|sa)+"
        )
        result = evaluate_general_rq(query, graph)
        assert result.pairs == {("C1", "D1"), ("C2", "D1"), ("C3", "D1")}
        assert result.sources() == {"C1", "C2", "C3"}
        assert result.targets() == {"D1"}
        assert ("C1", "D1") in result

    def test_equivalent_to_fclass_on_expressible_query(self, graph, essembly_matrix, q1):
        """On constraints the F class can express, both engines agree."""
        from repro.matching.reachability import evaluate_rq

        general = GeneralReachabilityQuery(
            {"job": "biologist", "sp": "cloning"}, {"job": "doctor"}, "(fa|fa fa) fn"
        )
        general_result = evaluate_general_rq(general, graph)
        fclass_result = evaluate_rq(q1, graph, distance_matrix=essembly_matrix)
        assert general_result.pairs == fclass_result.pairs

    def test_non_empty_path_required(self):
        from repro.graph.data_graph import DataGraph

        graph = DataGraph()
        graph.add_node("x", kind="t")
        graph.add_node("y", kind="t")
        graph.add_edge("x", "y", "c")
        query = GeneralReachabilityQuery({"kind": "t"}, {"kind": "t"}, "c*")
        result = evaluate_general_rq(query, graph)
        # c* accepts the empty string, but reachability still needs >= 1 edge.
        assert ("x", "x") not in result.pairs
        assert ("x", "y") in result.pairs

    def test_reachable_from_star_over_cycle(self, graph):
        query = GeneralReachabilityQuery({"job": "biologist"}, None, "fa*")
        result = evaluate_general_rq(query, graph, engine="dict")
        reachable = {target for source, target in result.pairs if source == "C3"}
        # C3 -fa-> C1 -fa-> C2 -fa-> C3: all biologists, including C3 itself.
        assert reachable == {"C1", "C2", "C3"}

    def test_empty_when_predicates_unsatisfied(self, graph):
        query = GeneralReachabilityQuery({"job": "astronaut"}, None, "fa+")
        assert evaluate_general_rq(query, graph).size == 0


class TestStoreBackedEvaluation:
    """General RQs read through the storage layer instead of recompiling."""

    QUERY = GeneralReachabilityQuery("cat = 'Comedy'", None, "(fc|sr)+")

    @pytest.fixture
    def graph(self):
        from repro.datasets.youtube import generate_youtube_graph

        return generate_youtube_graph(num_nodes=120, num_edges=400, seed=3)

    @staticmethod
    def _new_edge(graph, color):
        nodes = sorted(graph.nodes(), key=repr)
        return next(
            (a, b, color)
            for a in nodes
            for b in nodes
            if a != b and not graph.has_edge(a, b, color)
        )

    def test_dirty_overlay_answers_without_recompiling(self, graph, monkeypatch):
        from repro.graph.csr import CompiledGraph

        evaluate_general_rq(self.QUERY, graph)  # compiles the overlay base
        graph.add_edge(*self._new_edge(graph, "fc"))
        store = graph.overlay_store()
        store.sync()
        assert store.dirty_colors() == {"fc"}
        expected = evaluate_general_rq(self.QUERY, graph.copy(), engine="dict").pairs
        builds = []
        original = CompiledGraph.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledGraph, "__init__", counting_init)
        assert evaluate_general_rq(self.QUERY, graph).pairs == expected
        assert builds == []

    def test_pinned_snapshot_keeps_its_pin_time_answer(self, graph):
        from repro.session.session import GraphSession

        session = GraphSession(graph)
        at_pin = evaluate_general_rq(self.QUERY, graph.copy(), engine="dict").pairs
        with session.pin() as snapshot:
            comedy = next(n for n in graph.nodes() if graph.attributes(n)["cat"] == "Comedy")
            loner = next(n for n in graph.nodes() if (comedy, n) not in at_pin and n != comedy)
            session.apply_updates([("add", comedy, loner, "fc")])
            after = evaluate_general_rq(self.QUERY, graph.copy(), engine="dict").pairs
            assert after != at_pin
            assert snapshot.execute(self.QUERY).answer.pairs == at_pin
        assert session.execute(self.QUERY).answer.pairs == after
