"""Incremental maintenance of caches under append-only store writes.

Covers the append-only dictionary encoding (code stability, O(delta)
appends, barrier rebuilds), the result-cache maintenance flow (stale
recursive results re-seeded from the write delta instead of recomputed,
with exact agreement against a cold recomputation), the non-maintainable
fallbacks (barrier writes, plans that are not columnar programs) and
the SQLite mirror's delta sync.

Most queries run with ``rewrite=False``, which keeps the recursion in
the plan (the seeded-fixpoint path); ``TestRewrittenPlans`` covers the
plans the schema rewriter made fixpoint-free, maintained by the same
delta pass from their cached answer alone.
"""

from __future__ import annotations

import pytest

from repro.datasets.ldbc import ldbc_session
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.errors import InjectedFault, ResourceExhaustedError
from repro.exec.compile import FixOp, compile_term
from repro.exec.dictionary import encoding_for
from repro.exec.executor import CAPTURE_KERNEL, execute_program
from repro.exec.kernels import available_kernels, get_kernel
from repro.exec.maintain import _MaintainRunner, maintain_program
from repro.gdb.engine import PatternEngine
from repro.graph.evaluator import ResourceBudget
from repro.graph.model import UNLABELLED, yago_example_graph
from repro.query.parser import parse_query
from repro.ra.terms import Fix, Join, Project, Rel, Rename, Var
from repro.schema.builder import yago_example_schema
from repro.serve import execute_batch
from repro.storage.relational import Table
from repro.testing.faults import FaultInjector, FaultRule, install
from repro.workloads import LDBC_QUERIES

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


@pytest.fixture()
def session():
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

    def test_replacement_rebuilds_the_encoding(self, session):
        store = session.store
        encoding = encoding_for(store)
        # An append folds into the encoding; a table replacement is a
        # barrier and rebuilds it.
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
        entry = session.results.peek(prepared.result_cache_key())
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

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_repeated_appends_maintain_repeatedly(self, session, kernel):
        # Edges between existing nodes leave the packing domain where it
        # was: three resumes in a row at one domain.
        store = session.store
        options = ExecOptions(backend="vec", kernel=kernel)
        session.execute(CHAIN, rewrite=False, exec_options=options)
        for _ in range(3):
            store.add_rows("isLocatedIn", [_new_edge(store)])
            rows = session.execute(CHAIN, rewrite=False, exec_options=options)
            assert rows == _fresh_rows(store, CHAIN)
        assert session.cache_stats["maintenance"].results_maintained == 3

    def test_append_with_new_constants_still_maintains(self, session):
        # Fresh node ids grow the dictionary, so the packing domain moves
        # under the cached totals. Maintenance builds every membership
        # state it needs from those totals at the new domain, as it does
        # after any write, and still agrees with a cold run.
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


_LDBC = {query.qid: query.text for query in LDBC_QUERIES}
KNOWS_TWICE = "x1, x2 <- (x1, knows2..2, x2)"


@pytest.mark.parametrize("kernel", available_kernels())
class TestRewrittenPlans:
    """Plans of the rewriting pipeline (``rewrite=True``, instance kept
    conforming), fixpoint-free or not, are maintained from the delta."""

    @pytest.fixture()
    def ldbc(self):
        with ldbc_session(0.1, result_cache_size=64) as s:
            yield s

    @staticmethod
    def _read(session, text, kernel, budget=None):
        options = ExecOptions(backend="vec", kernel=kernel)
        return session.prepare(text, exec_options=options).execute(budget)

    @staticmethod
    def _cold(session, text):
        with ldbc_session(graph=session.graph, store=session.store) as cold:
            return cold.execute(text, "ra", rewrite=False)

    @staticmethod
    def _befriend_newcomers(session):
        """Two new persons who know each other (and nobody else)."""
        store = session.store
        a = max(session.graph.node_ids()) + 1
        columns = store.table("Person").columns
        store.add_rows(
            "Person",
            [
                tuple(person if c == "Sr" else None for c in columns)
                for person in (a, a + 1)
            ],
        )
        store.add_rows("knows", [(a, a + 1), (a + 1, a)])
        assert session.rewrite_sound()
        return a, a + 1

    @staticmethod
    def _entry(session, text, kernel):
        options = ExecOptions(backend="vec", kernel=kernel)
        prepared = session.prepare(text, exec_options=options)
        return session.results.peek(prepared.result_cache_key())

    def test_nonrecursive_plan_is_maintained(self, session, kernel):
        # The schema rewriter eliminates the recursion; the plan keeps
        # no fixpoint state and is maintained from its answer alone.
        # The appended edge must conform to the schema: a non-conforming
        # edge would (correctly) disable rewriting instead.
        store = session.store
        options = ExecOptions(backend="vec", kernel=kernel)
        session.execute(CLOSURE, exec_options=options)
        assert not self._entry(session, CLOSURE, kernel).fix_states
        store.add_rows(
            "isLocatedIn", [_new_conforming_edge(session, "isLocatedIn")]
        )
        assert session.rewrite_sound()
        rows = session.execute(CLOSURE, exec_options=options)
        assert rows == _fresh_rows(store, CLOSURE, rewrite=True)
        counters = session.cache_stats["maintenance"]
        assert counters.results_maintained == 1
        assert counters.results_invalidated == 0

    def test_row_needing_two_changed_occurrences(self, ldbc, kernel):
        before = self._read(ldbc, KNOWS_TWICE, kernel)
        a, b = self._befriend_newcomers(ldbc)
        after = self._read(ldbc, KNOWS_TWICE, kernel)
        assert after - before == {(a, a), (b, b)}
        assert after == self._cold(ldbc, KNOWS_TWICE)
        assert len(after) == len(after.to_rows())
        counters = ldbc.cache_stats["maintenance"]
        assert counters.results_maintained == 1
        assert counters.results_invalidated == 0

    def test_unchanged_answer_is_the_same_object(self, ldbc, kernel):
        before = self._read(ldbc, _LDBC["IC2"], kernel)
        self._befriend_newcomers(ldbc)  # they created no message
        assert self._read(ldbc, _LDBC["IC2"], kernel) is before
        counters = ldbc.cache_stats["maintenance"]
        assert counters.results_maintained == 1
        assert counters.delta_rows_applied == 2  # a delta pass ran
        assert before == self._cold(ldbc, _LDBC["IC2"])

    def test_successive_appends_keep_unentered_fixpoints(self, ldbc, kernel):
        # The knows delta joins nothing, so IC12's isSubclassOf+ is never
        # entered; its captured state must stay on the entry all the same.
        text = _LDBC["IC12"]
        self._read(ldbc, text, kernel)
        captured = dict(self._entry(ldbc, text, kernel).fix_states)
        assert captured
        for _ in range(2):
            self._befriend_newcomers(ldbc)
            assert self._read(ldbc, text, kernel) == self._cold(ldbc, text)
            assert self._entry(ldbc, text, kernel).fix_states == captured
        counters = ldbc.cache_stats["maintenance"]
        assert counters.results_maintained == 2
        assert counters.results_invalidated == 0

    def test_append_as_large_as_the_table(self, ldbc, kernel):
        store = ldbc.store
        self._read(ldbc, _LDBC["IC1"], kernel)
        present = set(store.table("knows").rows)
        persons = sorted(row[0] for row in store.table("Person").rows)
        fresh = [
            (a, b)
            for a in persons
            for b in persons
            if a != b and (a, b) not in present
        ][: len(present)]
        assert store.add_rows("knows", fresh) == len(present)
        assert ldbc.rewrite_sound()
        rows = self._read(ldbc, _LDBC["IC1"], kernel)
        assert rows == self._cold(ldbc, _LDBC["IC1"])
        assert ldbc.cache_stats["maintenance"].results_maintained == 1

    def test_aborted_seeded_fixpoint_leaves_the_entry(
        self, ldbc, kernel, monkeypatch
    ):
        # The run fails in the second round of knows+'s seeded fixpoint,
        # after it built its state from the captured total: the entry
        # keeps its answer, its version and each total, the same objects.
        text = "x1, x2 <- (x1, knows+, x2)"
        before = self._read(ldbc, text, kernel)
        entry = self._entry(ldbc, text, kernel)
        version, captured = entry.version, dict(entry.fix_states)
        assert captured
        self._befriend_newcomers(ldbc)
        step, calls = _MaintainRunner._step, []

        def second_round_fails(runner, *args):
            calls.append(args)
            if len(calls) == 2:
                raise InjectedFault("kernel.op", 1)
            return step(runner, *args)

        monkeypatch.setattr(_MaintainRunner, "_step", second_round_fails)
        with pytest.raises(InjectedFault):
            self._read(ldbc, text, kernel)
        monkeypatch.undo()
        assert self._entry(ldbc, text, kernel) is entry
        assert entry.answer is before and entry.version == version
        assert entry.fix_states.keys() == captured.keys()
        assert all(entry.fix_states[fix] is captured[fix] for fix in captured)
        after = self._read(ldbc, text, kernel)
        assert ldbc.cache_stats["maintenance"].results_maintained == 1
        assert after == self._cold(ldbc, text) and len(after) > len(before)

    @pytest.mark.parametrize("failure", ["kernel.op", "max_rows"])
    def test_aborted_delta_pass_leaves_the_entry(self, ldbc, kernel, failure):
        before = self._read(ldbc, KNOWS_TWICE, kernel)
        entry = self._entry(ldbc, KNOWS_TWICE, kernel)
        version = entry.version
        self._befriend_newcomers(ldbc)
        if failure == "kernel.op":
            with install(FaultInjector([FaultRule("kernel.op", limit=1)])):
                with pytest.raises(InjectedFault):
                    self._read(ldbc, KNOWS_TWICE, kernel)
        else:
            with pytest.raises(ResourceExhaustedError):
                self._read(
                    ldbc, KNOWS_TWICE, kernel, ResourceBudget(None, max_rows=1)
                )
        assert self._entry(ldbc, KNOWS_TWICE, kernel) is entry
        assert entry.answer is before and entry.version == version
        counters = ldbc.cache_stats["maintenance"]
        assert counters.results_maintained == counters.results_invalidated == 0
        after = self._read(ldbc, KNOWS_TWICE, kernel)
        assert after == self._cold(ldbc, KNOWS_TWICE) and len(after) > len(before)
        assert counters.results_maintained == 1


@pytest.mark.parametrize("kernel", available_kernels())
def test_changed_open_nested_fixpoint_stays_exact(kernel):
    # µX. livesIn ∪ µY. X ∪ Y∘isLocatedIn: the inner fixpoint mentions X,
    # so it has no captured total to restart from. With isLocatedIn
    # changed it is not multilinear; its whole output stands in for its
    # delta. The translator emits no such term; this one is hand-built.
    pair = ("Sr", "Tr")
    hop = Join(
        Rename(Var("Y", pair), (("Tr", "m"),)),
        Rename(Rel("isLocatedIn"), (("Sr", "m"),)),
    )
    term = Fix("X", Rel("livesIn"), Fix("Y", Var("X", pair), Project(hop, pair)))
    kernel = get_kernel(kernel)
    with GraphSession(yago_example_graph(), yago_example_schema()) as s:
        store = s.store
        program = compile_term(term, store)
        capture: dict = {}
        answer = execute_program(
            program, store, kernel=kernel, fix_capture=capture
        )
        del capture[CAPTURE_KERNEL]
        assert list(capture) == [term]
        version = store.version
        store.add_rows("isLocatedIn", [(5, 9)])
        store.add_rows("livesIn", [(8, 1)])
        outcome = maintain_program(
            program,
            store,
            store.delta_since(version),
            capture,
            kernel=kernel,
            prev=answer,
        )
        assert outcome.answer == execute_program(program, store, kernel=kernel)
        assert len(outcome.answer) > len(answer)


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


def _pattern_rows(session, query):
    """The pattern engine's answer over the session's replayed graph."""
    return PatternEngine(session.graph).evaluate_ucqt(parse_query(query))


class TestGraphModelSync:
    """Store appends replay onto the graph model, so the ``reference``
    backend and the pattern engine keep agreeing with the relational
    backends."""

    def test_append_visible_to_graph_backends(self, session):
        store = session.store
        before = _pattern_rows(session, CLOSURE)
        edge = _new_edge(store)
        store.add_rows("isLocatedIn", [edge])
        fresh = _fresh_rows(store, CLOSURE)
        assert len(fresh) > len(before)
        assert _pattern_rows(session, CLOSURE) == fresh
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
        assert _pattern_rows(session, labelled) == _fresh_rows(store, labelled)

    def test_node_table_append_upgrades_sentinel_label(self, session):
        store = session.store
        store.add_rows("isLocatedIn", [(777_777, 888_888)])
        assert session.graph.node_label(777_777) == UNLABELLED
        store.add_rows("CITY", [(777_777, "Newtown")])
        assert session.graph.node_label(777_777) == "CITY"
        assert session.graph.node_properties(777_777) == {"name": "Newtown"}
        labelled = "x1, x2 <- (x1, isLocatedIn, x2) && CITY(x1)"
        assert _pattern_rows(session, labelled) == _fresh_rows(store, labelled)


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
