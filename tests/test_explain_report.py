"""Tests for the structured :class:`ExplainReport`: render() joins the
backend's plan text and the sections that apply in a fixed order and
format, to_dict() exposes the same pieces as data, and the plan tree a
cost-planned µ-RA explain prints is the one its candidate table ranked."""

from __future__ import annotations

import json

import pytest

from repro.datasets.ldbc import ldbc_session
from repro.datasets.yago import yago_session
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.engine.report import UNSATISFIABLE_TEXT, ExplainReport
from repro.graph.model import yago_example_graph
from repro.planner.cost import cost_term
from repro.schema.builder import yago_example_schema
from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

#: The pinned query for the byte-identity checks.
QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"
# 'livesIn' ends at CITY and starts at PERSON: composing it with
# itself admits no schema typing, so inference proves the empty result.
UNSAT_QUERY = "x1, x2 <- (x1, livesIn/livesIn, x2)"
COST = ExecOptions(planner="cost")


def _session(**kwargs) -> GraphSession:
    return GraphSession(
        yago_example_graph(), yago_example_schema(), **kwargs
    )


class TestByteIdentity:
    def test_plain_explain_is_exactly_the_backend_plan_text(self):
        # Pre-redesign, explain of a greedy plan with no result cache
        # was the backend's plan text and nothing else.
        with _session() as session:
            report = session.explain(QUERY, "ra")
            prepared = session.prepare(QUERY, "ra")
            expected = prepared.backend.explain(session, prepared.plan)
        assert report.render() == expected

    def test_cost_planned_explain_appends_candidate_table(self):
        with _session(exec_options=COST) as session:
            report = session.explain(QUERY, "ra")
        assert report.choice is not None
        assert report.render() == (
            f"{report.plan_text}\n\n{report.choice.render()}"
        )
        assert "-- planner candidates --" in report.render()

    def test_result_cache_footer_format(self):
        with _session(result_cache_size=8) as session:
            session.execute(QUERY, "vec")
            session.execute(QUERY, "vec")
            report = session.explain(QUERY, "vec")
        # The first execution also left one telemetry record, so the
        # q-error footer rides along after the cache footer.
        assert report.render() == (
            f"{report.plan_text}\n\n"
            "-- result cache: 1 hit(s), 1 miss(es), "
            "1 cached result set(s) --\n\n"
            "-- q-error (vec): 1 execution(s), "
            "p50 1.00, p90 1.00, max 1.00 --"
        )

    def test_unsatisfiable_section_is_fixed_text(self):
        with _session() as session:
            report = session.explain(UNSAT_QUERY, "ra")
        assert report.unsatisfiable
        assert report.plan_text is None
        assert report.render() == UNSATISFIABLE_TEXT

    def test_pinned_full_assembly(self):
        # A fully synthetic report pins every byte of the assembly:
        # section order, separators, wording and number formatting.
        report = ExplainReport(
            backend="vec",
            query=QUERY,
            plan_text="Scan(isLocatedIn)",
            q_error={"count": 3, "p50": 1.0, "p90": 2.5, "max": 4.125},
        )
        assert report.render() == (
            "Scan(isLocatedIn)\n\n"
            "-- q-error (vec): 3 execution(s), "
            "p50 1.00, p90 2.50, max 4.12 --"
        )


class TestStringCompatibility:
    def test_str_and_membership_delegate_to_render(self):
        with _session() as session:
            report = session.explain(QUERY, "ra")
        assert str(report) == report.render()
        assert "Fix" in report or "isLocatedIn" in report


class TestToDict:
    def test_json_serializable_and_mirrors_sections(self):
        with _session(exec_options=COST, result_cache_size=8) as session:
            session.execute(QUERY, "vec")
            payload = session.explain(QUERY, "vec").to_dict()
        json.dumps(payload)  # must be wire-ready as-is
        assert payload["backend"] == "vec"
        assert payload["query"] == QUERY
        assert payload["unsatisfiable"] is False
        assert any(
            entry["chosen"] for entry in payload["candidates"]["candidates"]
        )
        assert payload["result_cache"]["misses"] == 1
        assert payload["q_error"]["count"] == 1

    def test_planner_section_for_cost_planned_handles_only(self):
        with _session() as session:
            planned = session.explain(QUERY, "vec", exec_options=COST)
            greedy = session.explain(QUERY, "vec")
        payload = planned.to_dict()
        assert payload["planner"]["candidates"] == len(planned.choice.ranked)
        assert payload["planner"]["plan_seconds"] > 0.0
        assert "planner" not in greedy.to_dict()
        # Data only: the text carries no timings.
        assert planned.render() == (
            f"{planned.plan_text}\n\n{planned.choice.render()}"
        )

    def test_unsatisfiable_payload(self):
        with _session() as session:
            payload = session.explain(UNSAT_QUERY, "ra").to_dict()
        assert payload["unsatisfiable"] is True
        assert payload["plan"] is None


class TestTreeIsTheRankedPlan:
    """The µ-RA plan tree and the candidate table come from one cost
    walk: the tree's root is the winner's row, on every workload query
    at the ``adhoc_small`` sizes, rewritten and not."""

    @pytest.mark.parametrize(
        "queries, open_session",
        [
            (YAGO_QUERIES, lambda: yago_session(0.05)),
            (LDBC_QUERIES, lambda: ldbc_session(0.1)),
        ],
        ids=["yago", "ldbc"],
    )
    def test_root_is_the_winners_row(self, queries, open_session):
        options = ExecOptions(backend="vec", planner="cost")
        with open_session() as session:
            for query in queries:
                for rewrite in (True, False):
                    # Every query plans from cold, and nothing executes:
                    # the estimates are the ones the ranking saw.
                    session.clear_caches()
                    handle = session.prepare(
                        query.text, rewrite=rewrite, exec_options=options
                    )
                    winner = handle.choice.winner
                    key = (query.qid, rewrite)
                    if handle.plan is None:
                        assert winner.candidate.term is None, key
                        continue
                    root = cost_term(handle.plan.term, session.store)
                    assert (root.total, root.rows) == (
                        winner.cost, winner.rows
                    ), key
                    tree = handle.explain().plan_text.split("\n")[1]
                    assert tree.endswith(
                        f"(cost = {winner.cost:,.1f} "
                        f"rows = {int(winner.rows):,})"
                    ), key
