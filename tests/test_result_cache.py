"""The result-set cache: whole query answers keyed on (plan, store version).

The cache is opt-in (``result_cache_size > 0``): enabled sessions answer
repeated queries without executing anything; disabled sessions (the
default — timed benchmark comparisons must measure execution) never
touch the layer. Invalidation is semantic: keys embed the schema
fingerprint and the relational store's version counter, so schema swaps
and store mutations retire entries without explicit flushes.
"""

from __future__ import annotations

import pytest

from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.schema.model import GraphSchema
from repro.serve import execute_batch

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


@pytest.fixture()
def session():
    with GraphSession(
        yago_example_graph(), yago_example_schema(), result_cache_size=64
    ) as s:
        yield s


@pytest.fixture()
def uncached_session():
    with GraphSession(yago_example_graph(), yago_example_schema()) as s:
        yield s


class TestResultCache:
    def test_disabled_by_default(self, uncached_session):
        uncached_session.execute(CLOSURE, "vec")
        uncached_session.execute(CLOSURE, "vec")
        stats = uncached_session.cache_stats["result"]
        assert stats.lookups == 0
        assert not uncached_session.result_cache_enabled

    def test_repeat_query_is_a_hit(self, session):
        first = session.execute(CLOSURE, "vec")
        second = session.execute(CLOSURE, "vec")
        assert first == second
        stats = session.cache_stats["result"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_execution_is_actually_skipped(self, session, monkeypatch):
        from repro.engine.backends import VecBackend

        session.execute(CLOSURE, "vec")

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("backend executed despite a cached result")

        monkeypatch.setattr(VecBackend, "execute", boom)
        assert session.execute(CLOSURE, "vec")  # served from the cache

    def test_backends_do_not_share_entries(self, session):
        assert session.execute(CLOSURE, "vec") == session.execute(
            CLOSURE, "ra"
        )
        stats = session.cache_stats["result"]
        assert stats.misses == 2 and stats.hits == 0

    def test_backend_options_partition_entries(self, session):
        baseline = session.execute(CLOSURE, "vec")
        configured = session.execute(
            CLOSURE, "vec", exec_options=ExecOptions(kernel="python")
        )
        assert baseline == configured
        assert session.cache_stats["result"].misses == 2

    def test_store_mutation_invalidates(self, session):
        session.execute(CLOSURE, "vec")
        session.store.add_alias("Anywhere", ("CITY", "COUNTRY"))
        session.execute(CLOSURE, "vec")
        stats = session.cache_stats["result"]
        assert stats.misses == 2 and stats.hits == 0

    def test_schema_change_invalidates(self, session):
        before = session.execute(CLOSURE, "vec")
        schema = yago_example_schema()
        pruned = GraphSchema(
            nodes=list(schema.nodes()),
            edges=[e for e in schema.edges() if e.edge_label != "dealsWith"],
            name="pruned",
        )
        session.update_schema(pruned)
        assert session.execute(CLOSURE, "vec") == before
        assert session.cache_stats["result"].hits == 0

    def test_non_store_backends_are_not_cached(self, session):
        session.execute(CLOSURE, "reference")
        session.execute(CLOSURE, "reference")
        assert session.cache_stats["result"].lookups == 0

    def test_sqlite_results_cached_by_sql_text(self, session):
        first = session.execute(CLOSURE, "sqlite")
        assert session.execute(CLOSURE, "sqlite") == first
        assert session.cache_stats["result"].hits == 1

    def test_clear_caches_resets_the_layer(self, session):
        session.execute(CLOSURE, "vec")
        session.clear_caches()
        stats = session.cache_stats["result"]
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)

    def test_explain_surfaces_the_counters(self, session):
        session.execute(CLOSURE, "vec")
        session.execute(CLOSURE, "vec")
        text = session.explain(CLOSURE, "vec")
        assert "-- result cache: 1 hit(s), 1 miss(es)" in text

    def test_explain_omits_counters_when_disabled(self, uncached_session):
        uncached_session.execute(CLOSURE, "vec")
        assert "result cache" not in uncached_session.explain(CLOSURE, "vec")


class TestBatchResultCache:
    def test_repeat_batch_skips_execution(self, session):
        cold = execute_batch(session, [CLOSURE, CHAIN], "vec")
        assert cold.report.execution.result_cache_misses == 2
        assert cold.report.execution.programs == 2
        warm = execute_batch(session, [CLOSURE, CHAIN], "vec")
        assert list(warm.results) == list(cold.results)
        execution = warm.report.execution
        assert execution.result_cache_hits == 2
        assert execution.programs == 0  # nothing reached the runner
        assert execution.ops_evaluated == 0

    def test_partial_hits_only_run_the_misses(self, session):
        execute_batch(session, [CLOSURE], "vec")
        outcome = execute_batch(session, [CLOSURE, CHAIN], "vec")
        execution = outcome.report.execution
        assert execution.result_cache_hits == 1
        assert execution.result_cache_misses == 1
        assert execution.programs == 1
        assert outcome.results[0] == session.execute(CLOSURE, "vec")

    def test_single_and_batch_paths_share_entries(self, session):
        rows = session.execute(CHAIN, "vec")
        outcome = execute_batch(session, [CHAIN], "vec")
        assert outcome.results[0] == rows
        assert outcome.report.execution.result_cache_hits == 1

    def test_disabled_cache_reports_no_counters(self, uncached_session):
        outcome = execute_batch(uncached_session, [CLOSURE, CLOSURE], "vec")
        execution = outcome.report.execution
        assert execution.result_cache_hits == 0
        assert execution.result_cache_misses == 0
        assert execution.programs == 1  # duplicates still collapse
