"""Incremental maintenance of caches under append-only store writes.

Covers the append-only dictionary encoding (code stability, O(delta)
appends, barrier rebuilds), the result-cache maintenance flow (stale
recursive results re-seeded from the write delta instead of recomputed,
with exact agreement against a cold recomputation), the non-maintainable
fallbacks (barrier writes, plans that are not columnar programs,
``REPRO_INCREMENTAL=0``),
and the SQLite mirror's delta sync.

The queries run with ``rewrite=False``: the schema rewriter's whole
point is to *eliminate* recursion, and a plan without a fixpoint has no
state to maintain — it falls back to (cheap) recomputation.
"""

from __future__ import annotations

import pytest

from repro.engine import GraphSession
from repro.exec.compile import FixOp
from repro.exec.dictionary import encoding_for
from repro.graph.model import UNLABELLED, yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.serve import execute_batch
from repro.storage.relational import Table

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


@pytest.fixture()
def session(monkeypatch):
    # Pin maintenance on: these tests exercise the incremental path
    # itself, whatever the ambient env (the REPRO_INCREMENTAL=0 CI leg
    # must not turn them into invalidation tests). The disabled-path
    # tests re-set the variable to "0" per test.
    monkeypatch.setenv("REPRO_INCREMENTAL", "1")
    with GraphSession(
        yago_example_graph(), yago_example_schema(), result_cache_size=64
    ) as s:
        yield s


def _fresh_rows(store, query, rewrite=False):
    """What a cold evaluation over the store's current contents returns."""
    with GraphSession(
        yago_example_graph(), yago_example_schema(), store=store
    ) as cold:
        return cold.execute(query, "ra", rewrite=rewrite)


def _new_edge(store, table="isLocatedIn"):
    """An edge between existing node ids the table does not hold yet."""
    ids = sorted(
        {row[0] for name in store.node_tables for row in store.table(name).rows}
    )
    present = store.table(table).rows
    for source in ids:
        for target in ids:
            if source != target and (source, target) not in present:
                return (source, target)
    raise AssertionError("example graph unexpectedly complete")


def _new_conforming_edge(session, table="isLocatedIn"):
    """A fresh edge whose endpoint labels satisfy a schema triple."""
    store = session.store
    present = store.table(table).rows
    for edge in session.schema.edges():
        if edge.edge_label != table:
            continue
        if not (
            store.has_table(edge.source_label)
            and store.has_table(edge.target_label)
        ):
            continue
        sources = sorted(row[0] for row in store.table(edge.source_label).rows)
        targets = sorted(row[0] for row in store.table(edge.target_label).rows)
        for source in sources:
            for target in targets:
                if source != target and (source, target) not in present:
                    return (source, target)
    raise AssertionError("no conforming edge available")


class TestAppendOnlyEncoding:
    def test_codes_survive_appends(self, session):
        store = session.store
        encoding = encoding_for(store)
        before = [list(column) for column in encoding.table("isLocatedIn").codes]
        edge = _new_edge(store)
        store.add_rows("isLocatedIn", [edge])
        after = encoding_for(store)
        assert after is encoding  # same snapshot, maintained in place
        assert after.version == store.version
        assert after.appended_rows == 1
        appended = after.table("isLocatedIn")
        # Old rows keep their codes; the delta row is appended at the end.
        for position, column in enumerate(before):
            assert appended.codes[position][: len(column)] == column
        decoded = encoding.dictionary.decode_row(
            tuple(column[-1] for column in appended.codes)
        )
        assert decoded == edge

    def test_lazy_tables_stay_lazy_across_appends(self, session):
        store = session.store
        encoding = encoding_for(store)
        store.add_rows("isLocatedIn", [_new_edge(store)])
        assert encoding_for(store) is encoding
        # First touch encodes the full current contents, delta included.
        assert (
            encoding.table("isLocatedIn").nrows
            == store.table("isLocatedIn").row_count
        )

    def test_barrier_write_rebuilds_the_encoding(self, session):
        store = session.store
        encoding = encoding_for(store)
        encoding.table("isLocatedIn")
        store.add_table(Table("Extra", ("Sr",), {(999,)}), node_label=True)
        rebuilt = encoding_for(store)
        assert rebuilt is not encoding
        assert rebuilt.appended_rows == 0

    def test_disabled_incremental_rebuilds(self, session, monkeypatch):
        store = session.store
        encoding = encoding_for(store)
        # The kill switch stops at the session: the encoding still folds
        # an append in. A table replacement (the barrier the env var
        # used to fake) is what rebuilds it.
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        store.add_rows("isLocatedIn", [_new_edge(store)])
        assert encoding_for(store) is encoding
        rows = set(store.table("isLocatedIn").rows)
        store.replace_table(Table("isLocatedIn", ("Sr", "Tr"), rows))
        assert encoding_for(store) is not encoding


class TestResultMaintenance:
    @pytest.mark.parametrize("backend", ["vec", "ra"])
    def test_append_maintains_cached_fixpoint(self, session, backend):
        store = session.store
        stale = session.execute(CLOSURE, backend, rewrite=False)
        edge = _new_edge(store)
        store.add_rows("isLocatedIn", [edge])
        maintained = session.execute(CLOSURE, backend, rewrite=False)
        assert maintained == _fresh_rows(store, CLOSURE)
        assert len(maintained) > len(stale)
        counters = session.cache_stats["maintenance"]
        assert counters.results_maintained == 1
        assert counters.results_invalidated == 0
        assert counters.delta_rows_applied >= 1
        assert counters.encoding_appends >= 1
        stats = session.cache_stats["result"]
        assert (stats.hits, stats.misses) == (1, 1)  # maintenance is a hit

    def test_cached_entry_captures_fixpoint_state(self, session):
        session.execute(CLOSURE, "vec", rewrite=False)
        prepared = session.prepare(CLOSURE, "vec", rewrite=False)
        entry = session._result_cache.peek(prepared.result_cache_key())
        assert entry.fix_states
        fixops = [
            op
            for op in prepared.plan.program.root.walk()
            if isinstance(op, FixOp)
        ]
        assert fixops and all(op.source in entry.fix_states for op in fixops)

    def test_maintained_entry_serves_plain_hits_afterwards(self, session):
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        store.add_rows("isLocatedIn", [_new_edge(store)])
        session.execute(CLOSURE, "vec", rewrite=False)
        session.execute(CLOSURE, "vec", rewrite=False)
        stats = session.cache_stats["result"]
        assert (stats.hits, stats.misses) == (2, 1)
        assert session.cache_stats["maintenance"].results_maintained == 1

    def test_repeated_appends_maintain_repeatedly(self, session):
        store = session.store
        session.execute(CHAIN, "vec", rewrite=False)
        for _ in range(3):
            store.add_rows("isLocatedIn", [_new_edge(store)])
            rows = session.execute(CHAIN, "vec", rewrite=False)
            assert rows == _fresh_rows(store, CHAIN)
        assert session.cache_stats["maintenance"].results_maintained == 3

    def test_append_with_new_constants_still_maintains(self, session):
        # Fresh node ids grow the dictionary, so the cached membership
        # state's packing domain is stale — maintenance must rebuild the
        # state rather than resume it, and still agree with a cold run.
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        store.add_rows("isLocatedIn", [(777_777, 888_888)])
        rows = session.execute(CLOSURE, "vec", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)
        assert (777_777, 888_888) in rows
        assert session.cache_stats["maintenance"].results_maintained == 1

    def test_unrelated_append_restamps_without_evaluation(self, session):
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        edge = _new_edge(store, "owns")
        store.add_rows("owns", [edge])
        assert session.execute(CLOSURE, "vec", rewrite=False)
        counters = session.cache_stats["maintenance"]
        assert counters.results_maintained == 1
        assert counters.delta_rows_applied == 0  # no evaluation happened

    def test_touched_sqlite_plan_invalidates(self, session):
        # No columnar program to maintain: invalidate and recompute.
        store = session.store
        session.execute(CLOSURE, "sqlite", rewrite=False)
        store.add_rows("isLocatedIn", [_new_edge(store)])
        rows = session.execute(CLOSURE, "sqlite", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)
        assert session.cache_stats["maintenance"].results_invalidated == 1

    def test_noop_write_keeps_entries_fresh(self, session):
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        existing = next(iter(store.table("isLocatedIn").rows))
        assert store.add_rows("isLocatedIn", [existing]) == 0
        session.execute(CLOSURE, "vec", rewrite=False)
        stats = session.cache_stats["result"]
        assert (stats.hits, stats.misses) == (1, 1)
        assert session.cache_stats["maintenance"].results_maintained == 0

    def test_explain_surfaces_maintenance_counters(self, session):
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        store.add_rows("isLocatedIn", [_new_edge(store)])
        session.execute(CLOSURE, "vec", rewrite=False)
        text = session.explain(CLOSURE, "vec", rewrite=False)
        assert "-- incremental maintenance: 1 maintained, 0 invalidated" in text


class TestFallbacks:
    def test_barrier_write_invalidates(self, session):
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        store.add_table(Table("Extra", ("Sr",), {(999,)}), node_label=True)
        rows = session.execute(CLOSURE, "vec", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)
        counters = session.cache_stats["maintenance"]
        assert counters.results_maintained == 0
        assert counters.results_invalidated == 1

    def test_replacement_invalidates(self, session):
        store = session.store
        before = session.execute(CLOSURE, "vec", rewrite=False)
        shrunk = set(list(store.table("isLocatedIn").rows)[:1])
        store.replace_table(Table("isLocatedIn", ("Sr", "Tr"), shrunk))
        rows = session.execute(CLOSURE, "vec", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)
        assert rows != before
        assert session.cache_stats["maintenance"].results_invalidated == 1

    def test_env_toggle_disables_maintenance(self, session, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=False)
        store.add_rows("isLocatedIn", [_new_edge(store)])
        rows = session.execute(CLOSURE, "vec", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)
        counters = session.cache_stats["maintenance"]
        assert counters.results_maintained == 0
        assert counters.results_invalidated == 1

    def test_rewritten_nonrecursive_plan_falls_back(self, session):
        # The schema rewriter eliminates the recursion, so the plan has
        # no fixpoint state to maintain — recomputation is the fallback.
        # The appended edge must conform to the schema: a non-conforming
        # edge would (correctly) disable rewriting instead.
        store = session.store
        session.execute(CLOSURE, "vec", rewrite=True)
        store.add_rows(
            "isLocatedIn", [_new_conforming_edge(session, "isLocatedIn")]
        )
        assert session.rewrite_sound()
        rows = session.execute(CLOSURE, "vec", rewrite=True)
        assert rows == _fresh_rows(store, CLOSURE, rewrite=True)
        assert session.cache_stats["maintenance"].results_invalidated == 1


class TestSqliteSync:
    def test_append_synced_into_sqlite(self, session):
        store = session.store
        before = session.execute(CLOSURE, "sqlite", rewrite=False)
        edge = _new_edge(store)
        store.add_rows("isLocatedIn", [edge])
        rows = session.execute(CLOSURE, "sqlite", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)
        assert len(rows) > len(before)
        # The append was replayed, not reloaded.
        assert session.sqlite.version == store.version

    def test_barrier_reloads_sqlite(self, session):
        store = session.store
        session.execute(CLOSURE, "sqlite", rewrite=False)
        shrunk = set(list(store.table("isLocatedIn").rows)[:1])
        store.replace_table(Table("isLocatedIn", ("Sr", "Tr"), shrunk))
        rows = session.execute(CLOSURE, "sqlite", rewrite=False)
        assert rows == _fresh_rows(store, CLOSURE)


class TestGraphModelSync:
    """Store appends replay onto the graph model, so the ``gdb`` and
    ``reference`` engines keep agreeing with the relational backends."""

    def test_append_visible_to_graph_backends(self, session):
        store = session.store
        before = session.execute(CLOSURE, "gdb", rewrite=False)
        edge = _new_edge(store)
        store.add_rows("isLocatedIn", [edge])
        fresh = _fresh_rows(store, CLOSURE)
        assert len(fresh) > len(before)
        assert session.execute(CLOSURE, "gdb", rewrite=False) == fresh
        assert session.execute(CLOSURE, "reference", rewrite=False) == fresh

    def test_dangling_endpoints_materialise_as_unlabelled_nodes(self, session):
        store = session.store
        store.add_rows("isLocatedIn", [(777_777, 888_888)])
        rows = session.execute(CLOSURE, "reference", rewrite=False)
        assert (777_777, 888_888) in rows
        assert rows == _fresh_rows(store, CLOSURE)
        assert session.graph.node_label(777_777) == UNLABELLED
        # A label-constrained query excludes the unlabelled endpoints
        # in both models (no node table holds them).
        labelled = "x1, x2 <- (x1, isLocatedIn+, x2) && CITY(x1)"
        assert session.execute(labelled, "gdb", rewrite=False) == _fresh_rows(
            store, labelled
        )

    def test_node_table_append_upgrades_sentinel_label(self, session):
        store = session.store
        store.add_rows("isLocatedIn", [(777_777, 888_888)])
        assert session.graph.node_label(777_777) == UNLABELLED
        store.add_rows("CITY", [(777_777, "Newtown")])
        assert session.graph.node_label(777_777) == "CITY"
        assert session.graph.node_properties(777_777) == {"name": "Newtown"}
        labelled = "x1, x2 <- (x1, isLocatedIn, x2) && CITY(x1)"
        assert session.execute(labelled, "gdb", rewrite=False) == _fresh_rows(
            store, labelled
        )


class TestBatchMaintenance:
    def test_batch_reserves_maintained_entries(self, session):
        store = session.store
        cold = execute_batch(
            session, [CLOSURE, CHAIN], "vec", rewrite=False
        )
        store.add_rows("isLocatedIn", [_new_edge(store)])
        warm = execute_batch(
            session, [CLOSURE, CHAIN], "vec", rewrite=False
        )
        assert warm.report.execution.result_cache_hits == 2
        assert warm.report.execution.programs == 0
        assert session.cache_stats["maintenance"].results_maintained == 2
        assert list(warm.results) != list(cold.results)
        assert warm.results[0] == _fresh_rows(store, CLOSURE)
        assert warm.results[1] == _fresh_rows(store, CHAIN)
