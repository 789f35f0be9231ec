"""The unified engine layer: GraphSession, backends, caches, prepared queries."""

from __future__ import annotations

import pytest

from repro.core.rewriter import RewriteOptions
from repro.engine import (
    GraphSession,
    available_backends,
    get_backend,
    schema_fingerprint,
)
from repro.engine.cache import LruCache
from repro.engine.options import ExecOptions
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.schema.model import GraphSchema, SchemaEdge, SchemaNode
from repro.storage.relational import RelationalStore, Table
from repro.workloads.ldbc_queries import LDBC_QUERIES
from repro.workloads.yago_queries import YAGO_QUERIES

QUERY = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


@pytest.fixture
def session():
    with GraphSession(yago_example_graph(), yago_example_schema()) as s:
        yield s


class TestBackendRegistry:
    def test_all_four_substrates_registered(self):
        assert available_backends() == ("ra", "vec", "sqlite", "reference")

    def test_unknown_backend_rejected(self, session):
        with pytest.raises(ValueError, match="unknown backend"):
            session.execute(QUERY, backend="neo4j")
        assert get_backend("ra").name == "ra"


class TestCrossBackendAgreement:
    def test_fig2_graph_all_backends(self, session):
        reference = session.execute(QUERY, "reference", rewrite=False)
        assert reference  # the Fig. 2 graph has livesIn/isLocatedIn+ pairs
        for backend in available_backends():
            assert session.execute(QUERY, backend) == reference, backend
            assert session.execute(QUERY, backend, rewrite=False) == reference

    def test_yago_workload_all_backends(self, yago_small):
        schema, graph, store = yago_small
        with GraphSession(graph, schema, store=store) as session:
            for workload_query in YAGO_QUERIES:
                expected = session.execute(
                    workload_query.query, "reference", rewrite=False
                )
                for backend in available_backends():
                    rows = session.execute(workload_query.query, backend)
                    assert rows == expected, (workload_query.qid, backend)

    def test_ldbc_workload_all_backends(self, ldbc_small):
        schema, graph, store = ldbc_small
        with GraphSession(graph, schema, store=store) as session:
            for workload_query in LDBC_QUERIES:
                expected = session.execute(
                    workload_query.query, "reference", rewrite=False
                )
                for backend in available_backends():
                    rows = session.execute(workload_query.query, backend)
                    assert rows == expected, (workload_query.qid, backend)


class TestDefaultBackend:
    """What an unconfigured call runs on: ``vec`` on the fastest kernel
    that imports."""

    def test_unset_backend_is_vec(self, session):
        assert session.prepare(QUERY).backend_name == "vec"
        assert session.execute_batch([QUERY]) == [session.execute(QUERY)]
        from repro.serve import execute_batch

        assert execute_batch(session, [QUERY]).report.backend == "vec"

    @pytest.mark.parametrize("numpy_present", [True, False])
    def test_default_runs_the_default_kernel(
        self, monkeypatch, numpy_present
    ):
        from repro.engine import backends
        from repro.exec import kernels

        if not numpy_present:
            # What a bare install sees: no numpy kernel to default to.
            monkeypatch.setattr(kernels, "_DEFAULT", kernels.kernels_python)
        ran = []
        run = backends.execute_batch_programs

        def spy(*args, **kwargs):
            ran.append(kwargs["kernel"])
            return run(*args, **kwargs)

        monkeypatch.setattr(backends, "execute_batch_programs", spy)
        with GraphSession(yago_example_graph(), yago_example_schema()) as s:
            prepared = s.prepare(QUERY)
            rows = prepared.execute()
            assert ran == [kernels.default_kernel()]
            if not numpy_present:
                assert ran == [kernels.kernels_python]
            assert f"({kernels.default_kernel().NAME} kernels" in str(
                prepared.explain()
            )
            assert rows == s.execute(QUERY, "reference", rewrite=False)

    @pytest.mark.parametrize("rewrite", [True, False])
    @pytest.mark.parametrize("dataset", ["yago_small", "ldbc_small"])
    def test_default_matches_reference_on_the_workloads(
        self, request, dataset, rewrite
    ):
        schema, graph, store = request.getfixturevalue(dataset)
        queries = YAGO_QUERIES if dataset == "yago_small" else LDBC_QUERIES
        with GraphSession(graph, schema, store=store) as session:
            for workload_query in queries:
                expected = session.execute(
                    workload_query.query, "reference", rewrite=False
                )
                rows = session.execute(workload_query.query, rewrite=rewrite)
                assert rows == expected, workload_query.qid


class TestCaching:
    def test_rewrite_cache_hit_on_repeat(self, session):
        session.execute(QUERY)
        misses = session.cache_stats["rewrite"].misses
        session.execute(QUERY)
        stats = session.cache_stats["rewrite"]
        assert stats.misses == misses  # no new miss
        assert stats.hits >= 1

    def test_plan_cache_is_per_backend(self, session):
        session.execute(QUERY, "ra")
        session.execute(QUERY, "sqlite")
        assert session.cache_stats["plan"].misses == 2
        session.execute(QUERY, "ra")
        session.execute(QUERY, "sqlite")
        assert session.cache_stats["plan"].misses == 2
        assert session.cache_stats["plan"].hits == 2

    def test_string_and_parsed_queries_share_entries(self, session):
        from repro.query.parser import parse_query

        session.execute(QUERY)
        session.execute(parse_query(QUERY))
        assert session.cache_stats["rewrite"].misses == 1
        assert session.cache_stats["plan"].hits == 1

    def test_a_text_is_parsed_once_through_the_name_in_scope(
        self, session, monkeypatch
    ):
        # The memo sits in front of the call: whoever swaps the module's
        # ``parse_query`` by name (the ledger's tracer does) sees every
        # real parse, and only those.
        from repro.engine import frontend as frontend_module
        from repro.errors import ParseError

        real, parses = frontend_module.parse_query, []

        def counting(text):
            parses.append(text)
            return real(text)

        monkeypatch.setattr(frontend_module, "parse_query", counting)
        first = session.execute(QUERY)
        assert session.execute(QUERY) == first
        session.prepare(QUERY)
        assert parses == [QUERY]
        for _ in range(2):  # a parse error is never stored
            with pytest.raises(ParseError):
                session.execute("x1 <-")
        assert parses == [QUERY, "x1 <-", "x1 <-"]
        session.clear_caches()
        session.execute(QUERY)
        assert parses[-1] == QUERY and len(parses) == 4

    def test_options_partition_the_cache(self, session):
        session.execute(QUERY)
        session.execute(QUERY, options=RewriteOptions(apply_merge=False))
        assert session.cache_stats["rewrite"].misses == 2

    def test_baseline_and_schema_plans_are_distinct(self, session):
        baseline = session.execute(QUERY, rewrite=False)
        enriched = session.execute(QUERY)
        assert baseline == enriched
        assert session.cache_stats["plan"].misses == 2

    def test_schema_change_invalidates_caches(self, session):
        session.execute(QUERY)
        fingerprint = session.schema_fingerprint
        # Same semantic schema => same fingerprint, caches keep hitting.
        session.update_schema(yago_example_schema())
        assert session.schema_fingerprint == fingerprint
        session.execute(QUERY)
        assert session.cache_stats["rewrite"].misses == 1

        # A genuinely different schema changes the fingerprint: both
        # layers miss and the query replans against the new schema.
        schema = yago_example_schema()
        pruned = GraphSchema(
            nodes=list(schema.nodes()),
            edges=[e for e in schema.edges() if e.edge_label != "dealsWith"],
            name="pruned",
        )
        session.update_schema(pruned)
        assert session.schema_fingerprint != fingerprint
        before = session.cache_stats
        session.execute(QUERY)
        after = session.cache_stats
        assert after["rewrite"].misses == before["rewrite"].misses + 1
        assert after["plan"].misses == before["plan"].misses + 1

    def test_clear_caches_resets_entries_and_counters(self, session):
        session.execute(QUERY)
        session.clear_caches()
        assert session.cache_stats["rewrite"].lookups == 0
        session.execute(QUERY)
        stats = session.cache_stats["rewrite"]
        assert (stats.hits, stats.misses) == (0, 1)


class TestPreparedQuery:
    def test_prepared_execution_skips_rewrite_and_planning(self, session):
        prepared = session.prepare(QUERY, "ra")
        stats_before = session.cache_stats
        rows_a = prepared.execute()
        rows_b = prepared.execute()
        stats_after = session.cache_stats
        assert rows_a == rows_b == session.execute(QUERY, "reference")
        # Executing a prepared query touches no cache layer at all.
        assert stats_after["rewrite"].lookups == stats_before["rewrite"].lookups
        assert stats_after["plan"].lookups == stats_before["plan"].lookups

    def test_prepare_twice_reuses_the_plan(self, session):
        first = session.prepare(QUERY, "ra")
        second = session.prepare(QUERY, "ra")
        assert first.plan is second.plan
        assert session.cache_stats["plan"].hits == 1

    def test_prepared_query_refreshes_after_schema_change(self, session):
        prepared = session.prepare(QUERY, "ra")
        rows = prepared.execute()
        schema = yago_example_schema()
        pruned = GraphSchema(
            nodes=list(schema.nodes()),
            edges=[e for e in schema.edges() if e.edge_label != "dealsWith"],
        )
        session.update_schema(pruned)
        # The held handle must not run its stale plan over the rebuilt
        # store: it re-prepares under the new fingerprint.
        assert prepared.execute() == rows
        assert prepared.fingerprint == session.schema_fingerprint

    def test_refreshed_handle_keeps_what_it_was_prepared_with(self, session):
        pinned = ExecOptions(kernel="python", max_bytes=10**9, max_rows=10**6)
        prepared = session.prepare(QUERY, "vec", exec_options=pinned)
        rows = prepared.execute()
        stale_plan = prepared.plan
        schema = yago_example_schema()
        session.update_schema(
            GraphSchema(
                nodes=list(schema.nodes()),
                edges=[
                    e for e in schema.edges() if e.edge_label != "dealsWith"
                ],
            )
        )
        assert prepared.execute() == rows
        assert prepared.plan is not stale_plan
        assert prepared.plan.kernel == "python"
        assert prepared.exec_options == ExecOptions(
            backend="vec", planner="greedy", kernel="python",
            max_bytes=10**9, max_rows=10**6,
        )

    def test_reverted_flag(self, session):
        prepared = session.prepare(QUERY)
        assert prepared.reverted is False
        baseline = session.prepare(QUERY, rewrite=False)
        assert baseline.reverted is True

    def test_unsatisfiable_query_yields_empty_plan(self, session):
        # dealsWith targets COUNTRY but livesIn starts from PERSON: the
        # composition admits no schema typing, so inference proves ∅.
        impossible = "x1, x2 <- (x1, dealsWith/livesIn, x2)"
        prepared = session.prepare(impossible)
        assert prepared.plan is None
        assert prepared.execute() == frozenset()
        assert "unsatisfiable" in prepared.explain()

    def test_conflicting_label_atoms_drop_disjuncts(self, session):
        # User-written COUNTRY(x1) conflicts with the schema's CITY-only
        # source of livesIn: every backend must agree on emptiness (the
        # relational translators would otherwise reject the query).
        conflicting = "x1, x2 <- (x1, livesIn, x2) && COUNTRY(x1)"
        for backend in available_backends():
            assert session.execute(conflicting, backend) == frozenset()


class TestExplain:
    def test_ra_explain_uses_cost_planner(self, session):
        text = session.explain(QUERY, "ra")
        assert "cost =" in text and "rows =" in text

    def test_sqlite_explain_includes_sql_and_plan(self, session):
        text = session.explain(QUERY, "sqlite")
        assert "SELECT" in text and "EXPLAIN QUERY PLAN" in text

    def test_reference_explain_prints_the_query(self, session):
        text = session.explain(QUERY, "reference", rewrite=False)
        assert "livesIn" in text


class TestSessionLifecycle:
    def test_fingerprint_ignores_names_but_not_structure(self):
        schema = yago_example_schema()
        renamed = GraphSchema(
            list(schema.nodes()), list(schema.edges()), name="other"
        )
        assert schema_fingerprint(schema) == schema_fingerprint(renamed)
        extended = GraphSchema(
            list(schema.nodes()) + [SchemaNode("EXTRA")],
            list(schema.edges()) + [SchemaEdge("EXTRA", "points", "EXTRA")],
        )
        assert schema_fingerprint(schema) != schema_fingerprint(extended)
        assert schema_fingerprint(schema) != schema_fingerprint(
            schema, aliases={"Any": ("CITY",)}
        )

    def test_injected_store_is_reused(self, yago_small):
        schema, graph, store = yago_small
        session = GraphSession(graph, schema, store=store)
        assert session.store is store

    def test_aliases_merge_into_injected_store(self, ldbc_small):
        from repro.datasets.ldbc import ldbc_store

        schema, graph, _shared = ldbc_small
        store = ldbc_store(graph, schema)  # fresh: the test mutates it
        session = GraphSession(
            graph, schema, store=store, aliases={"Msg": ("Post", "Comment")}
        )
        assert session.store.has_table("Msg")
        assert session.store.has_table("Organisation")
        with pytest.raises(ValueError, match="alias 'Organisation'"):
            GraphSession(
                graph, schema, store=store,
                aliases={"Organisation": ("Company",)},
            )

    def test_aliases_reach_the_store(self):
        session = GraphSession(
            yago_example_graph(),
            yago_example_schema(),
            aliases={"Settlement": ("CITY", "REGION")},
        )
        assert session.store.has_table("Settlement")


class TestLruCache:
    def test_eviction_at_capacity(self):
        cache = LruCache(max_size=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: 0)  # refresh a
        cache.get_or_create("c", lambda: 3)  # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_zero_capacity_disables_storage(self):
        cache = LruCache(max_size=0)
        assert cache.get_or_create("k", lambda: 1) == 1
        assert cache.get_or_create("k", lambda: 2) == 2
        assert cache.stats().misses == 2


class TestAliasMaterialisation:
    def test_alias_table_is_materialised_once(self, ldbc_small):
        _schema, _graph, store = ldbc_small
        first = store.table("Organisation")
        assert store.table("Organisation") is first

    def test_add_table_invalidates_alias_tables(self):
        store = RelationalStore()
        store.add_table(Table("Company", ("Sr",), {(1,)}), node_label=True)
        store.add_table(Table("University", ("Sr",), {(2,)}), node_label=True)
        store.add_alias("Organisation", ("Company", "University"))
        assert store.table("Organisation").rows == {(1,), (2,)}
        store.add_table(Table("City", ("Sr",), {(3,)}), node_label=True)
        rebuilt = store.table("Organisation")
        assert rebuilt.rows == {(1,), (2,)}
        assert store.table("Organisation") is rebuilt
