"""Regression tests for the instance-conformance rewrite gate.

Schema-based rewriting (Theorem 1) is only sound on instances that
conform to the schema (Definition 3). The ROADMAP bug — ``(x1,
((-e2)2..3)2..2, x2)`` answering ``[]`` rewritten but ``[(0, 0)]``
unrewritten once a non-conforming self-loop ``e2(0, 0)`` is appended —
was exactly a soundness violation on a non-conforming instance: the
rewrite is allowed to assume endpoint labels the loop edge does not
have. The session now checks conformance (full scan on first use,
append deltas incrementally after) and silently disables rewriting
while the instance does not conform.
"""

import pytest

from repro.datasets.random_graphs import random_graph, random_schema
from repro.engine.session import GraphSession
from repro.gdb.engine import PatternEngine

#: The ROADMAP reproduction: a reversed edge under nested bounded
#: repetitions, both lower bounds >= 2.
QUERY = "x1, x2 <- (x1, ((-e2)2..3)2..2, x2)"

#: The registered backends plus ``gdb``, the pattern engine, which runs
#: the query the session prepared over the session's graph.
BACKENDS = ("ra", "vec", "sqlite", "gdb", "reference")


def _nonconforming_session() -> GraphSession:
    """``random_schema(0)``/``random_graph(seed 0)`` plus the
    non-conforming self-loop ``e2(0, 0)`` from the bug report."""
    schema = random_schema(0)
    session = GraphSession(random_graph(schema, 0), schema)
    session.store.add_rows("e2", [(0, 0)])
    return session


def _answer(session: GraphSession, backend: str, rewrite: bool):
    if backend == "gdb":
        executed = session.prepare(QUERY, "reference", rewrite=rewrite).executed
        return PatternEngine(session.graph).evaluate_ucqt(executed)
    return session.execute(QUERY, backend, rewrite=rewrite)


class TestNestedRepetitionRegression:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rewritten_matches_unrewritten(self, backend):
        session = _nonconforming_session()
        with session:
            baseline = _answer(session, backend, rewrite=False)
            rewritten = _answer(session, backend, rewrite=True)
        assert (0, 0) in baseline
        assert rewritten == baseline

    def test_gate_is_observable(self):
        session = _nonconforming_session()
        with session:
            assert session.rewrite_sound() is False
            session.execute(QUERY, "ra", rewrite=True)
            stats = session.planner_stats
        assert stats["instance_conforming"] is False
        assert stats["rewrites_gated"] >= 1


class TestConformanceTracking:
    def test_generated_graph_conforms(self):
        # random_graph builds a conforming instance by construction, so
        # the gate stays open and rewriting proceeds as before.
        schema = random_schema(0)
        session = GraphSession(random_graph(schema, 0), schema)
        with session:
            assert session.rewrite_sound() is True
            session.execute(QUERY, "ra", rewrite=True)
            assert session.planner_stats["rewrites_gated"] == 0

    def test_conforming_append_keeps_gate_open(self):
        schema = random_schema(0)
        session = GraphSession(random_graph(schema, 0), schema)
        with session:
            assert session.rewrite_sound() is True
            # Copy an existing e2 edge's endpoints into a fresh row: the
            # delta check sees labels the schema already allows.
            rows = session.store.table("e2").rows
            assert rows, "seed graph should populate e2"
            session.store.add_rows("e2", [next(iter(sorted(rows)))])
            assert session.rewrite_sound() is True

    def test_nonconforming_append_closes_gate(self):
        schema = random_schema(0)
        session = GraphSession(random_graph(schema, 0), schema)
        with session:
            assert session.rewrite_sound() is True
            session.store.add_rows("e2", [(0, 0)])
            assert session.rewrite_sound() is False
            # The verdict latches: later (even conforming) appends do
            # not resurrect rewriting without a full re-check passing.
            assert session.planner_stats["instance_conforming"] is False
