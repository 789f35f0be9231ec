"""Tests for the cost-based planner: candidate enumeration, the
cost model, session integration (selection, explain,
caching, the stats surface) and the CLI surface."""

from __future__ import annotations

import pytest

from repro.core.rewriter import enumerate_rewrites
from repro.engine import GraphSession
from repro.engine.options import DEFAULT_BACKEND, ExecOptions
from repro.engine.telemetry import q_error
from repro.exec.executor import ExecutionStats
from repro.graph.model import yago_example_graph
from repro.planner import (
    cost_term,
    enumerate_plan_candidates,
    plan_query,
    rank_candidates,
    validate_planner,
)
from repro.query.parser import parse_query
from repro.ra.translate import TranslationContext, ucqt_to_ra
from repro.schema.builder import yago_example_schema

RECURSIVE_QUERY = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"
# Both closures are independently enrichable: their alternatives'
# product is what trips a small ``max_disjuncts``.
TWO_RELATION_QUERY = (
    "x1, x3 <- (x1, isLocatedIn+, x2) && (x2, isLocatedIn+, x3)"
)
COST = ExecOptions(planner="cost")
GREEDY = ExecOptions(planner="greedy")


@pytest.fixture(scope="module")
def example_session():
    with GraphSession(
        yago_example_graph(), yago_example_schema(), exec_options=COST
    ) as session:
        yield session


# -- candidate enumeration ---------------------------------------------------
class TestCandidates:
    def test_single_relation_has_no_partials(self, example_session):
        query = parse_query(RECURSIVE_QUERY)
        labelled = enumerate_rewrites(query, example_session.schema)
        assert [label for label, _ in labelled] == ["rewritten"]

    def test_partials_survive_full_rewrite_revert(self, example_session):
        """The full rewrite trips the blow-up guard (product of both
        relations' alternatives) and reverts, so the original is the
        only candidate."""
        from repro.core.rewriter import RewriteOptions, rewrite_query

        query = parse_query(TWO_RELATION_QUERY)
        options = RewriteOptions(max_disjuncts=3)
        assert rewrite_query(query, example_session.schema, options).reverted
        assert enumerate_rewrites(query, example_session.schema, options) == []
        candidates = enumerate_plan_candidates(
            query, example_session.schema, example_session.store,
            options=options,
        )
        assert [c.label for c in candidates] == ["original"]

    def test_enumerate_plan_candidates_sources(self, example_session):
        query = parse_query(TWO_RELATION_QUERY)
        candidates = enumerate_plan_candidates(
            query, example_session.schema, example_session.store
        )
        assert [c.label for c in candidates] == ["original", "rewritten"]
        # Every candidate carries either a term or a provably-empty query.
        for candidate in candidates:
            assert candidate.term is not None or candidate.query.is_empty
        # The explain wire shape keeps its ``source`` key: the label.
        choice = rank_candidates(candidates, example_session.store)
        for entry in choice.to_dict()["candidates"]:
            assert entry["source"] == entry["label"]

    def test_rewrite_false_keeps_only_original(self, example_session):
        query = parse_query(RECURSIVE_QUERY)
        candidates = enumerate_plan_candidates(
            query, example_session.schema, example_session.store,
            rewrite=False,
        )
        assert [c.label for c in candidates] == ["original"]


# -- the cost model ----------------------------------------------------------
class TestCostModel:
    def test_cost_positive_and_monotone_in_rows(self, example_session):
        store = example_session.store
        term = ucqt_to_ra(parse_query(RECURSIVE_QUERY), TranslationContext())
        cost = cost_term(term, store)
        assert cost.total > 0.0
        assert cost.rows >= 0.0

    def test_rank_marks_exactly_one_winner(self, example_session):
        query = parse_query(RECURSIVE_QUERY)
        candidates = enumerate_plan_candidates(
            query, example_session.schema, example_session.store
        )
        choice = rank_candidates(candidates, example_session.store)
        assert sum(1 for entry in choice.ranked if entry.chosen) == 1
        costs = [entry.cost for entry in choice.ranked]
        assert costs == sorted(costs)
        assert choice.winner.cost == costs[0]

    def test_render_marks_winner(self, example_session):
        choice = plan_query(
            parse_query(RECURSIVE_QUERY),
            example_session.schema,
            example_session.store,
        )
        table = choice.render()
        assert "planner candidates" in table
        assert " * " in table
        assert "est. cost" in table and "est. rows" in table


# -- session integration -----------------------------------------------------
class TestSessionIntegration:
    def test_validate_planner(self):
        assert validate_planner("cost") == "cost"
        with pytest.raises(ValueError, match="unknown planner"):
            validate_planner("quantum")
        with pytest.raises(ValueError, match="unknown planner"):
            GraphSession(
                yago_example_graph(),
                yago_example_schema(),
                exec_options=ExecOptions(planner="bogus"),
            )

    @pytest.mark.parametrize("query", [RECURSIVE_QUERY, TWO_RELATION_QUERY])
    def test_cost_agrees_with_greedy_everywhere(self, example_session, query):
        for backend in example_session.backends:
            greedy = example_session.execute(query, backend, exec_options=GREEDY)
            cost = example_session.execute(query, backend, exec_options=COST)
            assert cost == greedy, backend

    def test_explain_includes_candidates(self, example_session):
        text = example_session.explain(RECURSIVE_QUERY, "vec", exec_options=COST)
        assert "-- planner candidates --" in text
        assert " * " in text
        greedy = example_session.explain(
            RECURSIVE_QUERY, "vec", exec_options=GREEDY
        )
        assert "planner candidates" not in greedy

    def test_plan_cache_round_trip(self):
        with GraphSession(
            yago_example_graph(), yago_example_schema(), exec_options=COST
        ) as session:
            first = session.prepare(RECURSIVE_QUERY, "vec")
            second = session.prepare(RECURSIVE_QUERY, "vec")
            assert second.plan is first.plan
            assert second.choice is first.choice
            # The greedy and cost entries are distinct cache entries.
            greedy = session.prepare(RECURSIVE_QUERY, "vec", exec_options=GREEDY)
            assert greedy.choice is None

    def test_execution_stats_surface_cardinality_error(self):
        with GraphSession(
            yago_example_graph(), yago_example_schema(), exec_options=COST
        ) as session:
            prepared = session.prepare(RECURSIVE_QUERY, "vec")
            rows = prepared.execute()
            assert prepared.last_execution_stats is not None
            record = session.telemetry.records[-1]
            assert record.actual_rows == len(rows)
            assert record.estimated_rows > 0.0
            assert q_error(record.estimated_rows, record.actual_rows) >= 1.0

    def test_planner_stats_key_set(self, example_session):
        assert set(example_session.planner_stats) == {
            "mode",
            "candidates_enumerated",
            "plan_seconds",
            "rewrites_gated",
            "instance_conforming",
            "resilience",
            "calibration",
        }

    def test_the_replan_threshold_option_is_gone(self):
        # Executions never move a plan, so no threshold decides when.
        with pytest.raises(TypeError, match="unexpected keyword"):
            GraphSession(
                yago_example_graph(),
                yago_example_schema(),
                replan_error_threshold=8.0,
            )

    def test_batch_planner_threading(self, example_session):
        queries = [RECURSIVE_QUERY, TWO_RELATION_QUERY, RECURSIVE_QUERY]
        batched = example_session.execute_batch(
            queries, "vec", exec_options=COST
        )
        singles = [
            example_session.execute(q, "vec", exec_options=GREEDY)
            for q in queries
        ]
        assert batched == singles


# -- one planning pass per cold query ----------------------------------------
TWO_DISTINCT_RELATIONS = "x1, x3 <- (x1, livesIn, x2) && (x2, isLocatedIn+, x3)"


def _count_calls(monkeypatch, module, name) -> list:
    """Swap ``module.name`` for a pass-through that logs each call."""
    original = getattr(module, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPlanOnce:
    @pytest.mark.parametrize(
        "query, distinct_relations",
        [
            (RECURSIVE_QUERY, 1),
            (TWO_RELATION_QUERY, 1),  # the same closure twice
            (TWO_DISTINCT_RELATIONS, 2),
        ],
    )
    def test_cold_auto_execute_plans_once(
        self, monkeypatch, query, distinct_relations
    ):
        import repro.core.rewriter as rewriter
        import repro.planner.candidates as candidates

        enumerations = _count_calls(
            monkeypatch, candidates, "enumerate_plan_candidates"
        )
        rewrites = _count_calls(monkeypatch, rewriter, "rewrite_query")
        inferences = _count_calls(monkeypatch, rewriter, "InferenceEngine")
        auto = ExecOptions(backend="auto")
        with GraphSession(
            yago_example_graph(), yago_example_schema()
        ) as session:
            first = session.execute(query, exec_options=auto)
            assert len(enumerations) == len(rewrites) == 1
            assert len(inferences) == distinct_relations
            cold = session.cache_stats["plan"]
            assert (cold.hits, cold.misses, cold.size) == (0, 1, 1)
            assert session.execute(query, exec_options=auto) == first
            warm = session.cache_stats["plan"]
            assert (warm.hits, warm.misses) == (1, 1)
            assert len(enumerations) == len(rewrites) == 1
            assert len(inferences) == distinct_relations
            stats = session.planner_stats
            assert stats["candidates_enumerated"] == len(
                session.prepare(query, exec_options=auto).choice.ranked
            )
            assert stats["plan_seconds"] > 0.0

    def test_auto_compiles_the_choice_it_ranked(self):
        with GraphSession(
            yago_example_graph(), yago_example_schema()
        ) as session:
            handle = session.prepare(
                TWO_RELATION_QUERY, exec_options=ExecOptions(backend="auto")
            )
            ranking = handle.planned.planning.ranking
            assert handle.choice.ranked == ranking.ranked
            assert handle.backend_name == DEFAULT_BACKEND
            # The estimator (and with it the store) is not cached.
            assert handle.planned.planning.estimator is None


# -- closure growth: a constant, never an option ------------------------------
class TestGrowthOption:
    @pytest.mark.parametrize("backend", ["ra", "vec"])
    def test_accepted(self, example_session, backend):
        # The constant growth steers the estimates, never the rows, and
        # executing a plan leaves the estimates where they were.
        expected = example_session.execute(RECURSIVE_QUERY, backend)
        with GraphSession(
            yago_example_graph(), yago_example_schema(), exec_options=COST
        ) as session:
            handle = session.prepare(RECURSIVE_QUERY, backend)
            rows = handle.choice.winner.rows
            assert handle.execute() == expected
            session.clear_caches()
            again = session.prepare(RECURSIVE_QUERY, backend)
            assert again.choice.winner.rows == rows

    @pytest.mark.parametrize("backend", ["ra", "vec"])
    @pytest.mark.parametrize("bad", ["high", 0.0, -1, float("nan")])
    def test_rejected(self, example_session, backend, bad):
        # Any value, well formed or not: the knob is gone.
        with pytest.raises(
            ValueError, match="unknown exec option.*'fixpoint_growth'"
        ):
            example_session.prepare(
                RECURSIVE_QUERY,
                backend,
                exec_options=ExecOptions.from_mapping(
                    {"fixpoint_growth": bad}
                ),
            )

    def test_unknown_ra_option_rejected(self, example_session):
        with pytest.raises(ValueError, match="unknown exec option"):
            example_session.prepare(
                RECURSIVE_QUERY,
                "ra",
                exec_options=ExecOptions.from_mapping({"growth": 2}),
            )


# -- CLI ---------------------------------------------------------------------
class TestCli:
    def test_query_candidates_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "query",
                RECURSIVE_QUERY,
                "--dataset",
                "yago-example",
                "--backend",
                "vec",
                "--candidates",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-- planner candidates --" in out
        assert " * " in out

    def test_query_planner_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "query",
                RECURSIVE_QUERY,
                "--dataset",
                "yago-example",
                "--planner",
                "cost",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "planner candidates" in out

    def test_batch_planner_flag(self, capsys, tmp_path):
        from repro.cli import main

        workload = tmp_path / "queries.txt"
        workload.write_text(f"{RECURSIVE_QUERY}\n{RECURSIVE_QUERY}\n")
        code = main(
            [
                "batch",
                str(workload),
                "--dataset",
                "yago-example",
                "--planner",
                "cost",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 quer(ies)" in out
