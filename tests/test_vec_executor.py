"""Unit tests for the vectorized columnar execution subsystem.

Covers dictionary-encoding round trips, encoding-snapshot invalidation,
kernel parity (numpy vs pure-Python fallback), empty and degenerate
fixpoints, the lazy store encoding (only scanned tables are encoded),
the numpy kernel's join layouts kept per stored table (reused across
executions, replaced by an append to their table, kept across one that
grows the dictionary), the numpy
``compose`` and ``closure`` hooks against the plain operators they
replace (answers, stats, ticks and byte charges), the
``vec`` backend-option validation, the totality of
:meth:`ExecutionStats.merge`, the memoised optimizer statistics, and the
CLI's live-registry backend validation.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import pytest

from repro.cli import main as cli_main
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.errors import ResourceExhaustedError
from repro.exec import (
    ExecutionStats,
    StoreEncoding,
    ValueDictionary,
    available_kernels,
    compile_term,
    encoding_for,
    execute_program,
    get_kernel,
)
from repro.exec.compile import FixOp, ScanOp
from repro.graph.evaluator import ResourceBudget
from repro.graph.model import yago_example_graph
from repro.ra.stats import Estimator, store_statistics
from repro.ra.terms import Fix, Join, Project, Rel, Rename, Var
from repro.schema.builder import yago_example_schema
from repro.storage.relational import RelationalStore, Table

KERNELS = available_kernels()


@pytest.fixture()
def example_session():
    with GraphSession(yago_example_graph(), yago_example_schema()) as session:
        yield session


# -- dictionary encoding ------------------------------------------------------
class TestValueDictionary:
    def test_round_trip_mixed_values(self):
        dictionary = ValueDictionary()
        values = [0, 1, "Paris", None, -7, "0", 3.5, ""]
        codes = [dictionary.encode(v) for v in values]
        assert codes == list(range(len(values)))  # dense, first-seen order
        assert [dictionary.decode(c) for c in codes] == values
        assert dictionary.decode_row(tuple(codes)) == tuple(values)

    def test_encode_is_idempotent(self):
        dictionary = ValueDictionary()
        first = dictionary.encode("x")
        assert dictionary.encode("x") == first
        assert len(dictionary) == 1
        assert dictionary.lookup("x") == first
        assert dictionary.lookup("missing") is None


class TestStoreEncoding:
    def test_tables_encode_lazily_and_round_trip(self):
        store = RelationalStore()
        store.add_table(
            Table("N", ("Sr", "name"), {(1, "a"), (2, None)}), node_label=True
        )
        store.add_table(Table("e", ("Sr", "Tr"), {(1, 2)}), node_label=False)
        encoding = encoding_for(store)
        assert len(encoding.dictionary) == 0  # nothing touched yet
        encoded = encoding.table("N")
        decoded = {
            encoding.dictionary.decode_row(row)
            for row in zip(*encoded.codes)
        }
        assert decoded == {(1, "a"), (2, None)}

    def test_snapshot_cached_and_invalidated_on_add_table(self):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), {(1, 2)}), node_label=False)
        first = encoding_for(store)
        assert encoding_for(store) is first
        store.add_table(Table("f", ("Sr", "Tr"), set()), node_label=False)
        assert encoding_for(store) is not first


class TestLazyEncoding:
    def test_only_scanned_tables_are_encoded(self):
        store = RelationalStore.from_graph(yago_example_graph())
        encoding = StoreEncoding(store)
        assert encoding.tables_encoded == 0
        encoding.table("isLocatedIn")
        assert encoding.tables_encoded == 1
        assert len(store.edge_tables | store.node_tables) > 1

    def test_session_surfaces_tables_encoded(self, example_session):
        example_session.execute(CLOSURE_QUERY, "vec", rewrite=False)
        maintenance = example_session.cache_stats["maintenance"]
        assert maintenance.tables_encoded == 1


# -- kernel parity ------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
class TestKernels:
    def test_distinct_and_select_eq(self, kernel_name):
        kernel = get_kernel(kernel_name)
        table = kernel.from_rows([(1, 1), (1, 2), (1, 1), (2, 2)], 2)
        assert set(kernel.to_rows(kernel.distinct(table, 10))) == {
            (1, 1), (1, 2), (2, 2),
        }
        assert set(kernel.to_rows(kernel.select_eq(table, 0, 1))) == {
            (1, 1), (2, 2),
        }

    def test_join_matches_nested_loop(self, kernel_name):
        kernel = get_kernel(kernel_name)
        left_rows = [(1, 10), (2, 20), (2, 21), (3, 30)]
        right_rows = [(2, 5), (3, 6), (3, 7), (4, 8)]
        left = kernel.from_rows(left_rows, 2)
        right = kernel.from_rows(right_rows, 2)
        # Join on column 0 of both; output (key, left payload, right payload).
        joined = kernel.join(
            left, right, [0], [0], [(0, 0), (0, 1), (1, 1)], 100
        )
        expected = {
            (a, b, d)
            for a, b in left_rows
            for c, d in right_rows
            if a == c
        }
        assert set(kernel.to_rows(joined)) == expected

    def test_difference_tracks_seen_rows(self, kernel_name):
        kernel = get_kernel(kernel_name)
        state = kernel.empty_state()
        first, state = kernel.difference(
            kernel.from_rows([(1, 2), (3, 4)], 2), state, 10
        )
        assert set(kernel.to_rows(first)) == {(1, 2), (3, 4)}
        second, state = kernel.difference(
            kernel.from_rows([(3, 4), (5, 6)], 2), state, 10
        )
        assert set(kernel.to_rows(second)) == {(5, 6)}

    def test_empty_table_round_trip(self, kernel_name):
        kernel = get_kernel(kernel_name)
        table = kernel.from_rows([], 3)
        assert kernel.nrows(table) == 0
        assert kernel.width(table) == 3
        assert kernel.to_rows(table) == []

    def test_concat_many(self, kernel_name):
        kernel = get_kernel(kernel_name)
        parts = [
            kernel.from_rows([(1, 2)], 2),
            kernel.from_rows([], 2),
            kernel.from_rows([(3, 4), (5, 6)], 2),
        ]
        merged = kernel.concat_many(parts, 2)
        assert set(kernel.to_rows(merged)) == {(1, 2), (3, 4), (5, 6)}
        assert kernel.nrows(kernel.concat_many([], 2)) == 0

    def test_join_build_probe_matches_join(self, kernel_name):
        kernel = get_kernel(kernel_name)
        left = kernel.from_rows([(1, 10), (2, 20), (2, 21)], 2)
        right = kernel.from_rows([(10, 5), (21, 6), (9, 7)], 2)
        layout = [(0, 0), (0, 1), (1, 1)]
        expected = set(
            kernel.to_rows(kernel.join(left, right, [1], [0], layout, 64))
        )
        handle = kernel.join_build(left, [1], 64)
        assert handle is not None
        probed = kernel.join_probe(handle, right, [0], layout, 0, 64)
        assert set(kernel.to_rows(probed)) == expected


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_kernels_agree_with_reference_on_example(kernel_name, example_session):
    session = example_session
    query = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"
    expected = session.execute(query, "reference")
    prepared = session.prepare(query, "vec")
    rows = execute_program(
        prepared.plan.program,
        session.store,
        head=prepared.plan.head,
        kernel=get_kernel(kernel_name),
    )
    assert rows == expected


# -- fixpoints ----------------------------------------------------------------
def _closure_term(edge: str) -> Fix:
    step = Project(
        Join(
            Rename.of(Var("X", ("Sr", "Tr")), {"Tr": "m"}),
            Rename.of(Rel(edge), {"Sr": "m"}),
        ),
        ("Sr", "Tr"),
    )
    return Fix("X", Rel(edge), step)


class TestFixpoints:
    def test_empty_base_fixpoint(self):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), set()), node_label=False)
        program = compile_term(_closure_term("e"), store)
        assert execute_program(program, store) == frozenset()

    def test_single_edge_fixpoint(self):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), {(1, 2)}), node_label=False)
        program = compile_term(_closure_term("e"), store)
        assert execute_program(program, store) == {(1, 2)}

    def test_self_loop_terminates(self):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), {(1, 1)}), node_label=False)
        program = compile_term(_closure_term("e"), store)
        assert execute_program(program, store) == {(1, 1)}

    def test_chain_closure(self):
        edges = {(i, i + 1) for i in range(6)}
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), edges), node_label=False)
        program = compile_term(_closure_term("e"), store)
        expected = frozenset(
            (i, j) for i in range(7) for j in range(i + 1, 7)
        )
        assert execute_program(program, store) == expected

    def test_fixpoint_compiles_semi_naive(self):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), {(1, 2)}), node_label=False)
        program = compile_term(_closure_term("e"), store)
        fixes = [
            op for op in _walk_ops(program.root) if isinstance(op, FixOp)
        ]
        assert fixes and all(op.linear for op in fixes)


def _walk_ops(op, seen=None):
    seen = seen if seen is not None else set()
    if id(op) in seen:
        return
    seen.add(id(op))
    yield op
    for child in op.children():
        yield from _walk_ops(child, seen)


@pytest.mark.skipif("numpy" not in KERNELS, reason="numpy kernel only")
class TestDedupKeyLifetime:
    """The numpy kernel's ``distinct`` leaves its sorted packed key on
    the table for the ``difference`` that follows; nothing else may
    carry it (its bytes are charged to no budget)."""

    @staticmethod
    def _deduped():
        kernel = get_kernel("numpy")
        table = kernel.from_rows([(1, 2), (3, 4), (1, 2), (0, 5)], 2)
        return kernel, kernel.distinct(table, 10)

    def test_difference_consumes_what_distinct_left(self):
        kernel, table = self._deduped()
        domain, key = table.key
        assert domain == 10 and key.tolist() == [5, 12, 34]
        _, state = kernel.difference(
            kernel.from_rows([(3, 4)], 2), kernel.empty_state(), 10
        )
        delta, state = kernel.difference(table, state, 10)
        assert set(kernel.to_rows(delta)) == {(0, 5), (1, 2)}
        assert delta.key is None and state.tolist() == [5, 12, 34]
        # Packed at another domain the key means other rows: not reused.
        delta, _ = kernel.difference(table, kernel.empty_state(), 7)
        assert set(kernel.to_rows(delta)) == {(0, 5), (1, 2), (3, 4)}

    def test_every_other_constructor_drops_it(self):
        kernel, table = self._deduped()
        none = kernel.empty(2)
        derived = [
            kernel.select_columns(table, [0, 1]),
            kernel.concat(table, none),
            kernel.concat(none, table),
            kernel.concat(table, table),
            kernel.concat_many([none, table], 2),
            kernel.concat_many([table, table], 2),
        ]
        assert [t.key for t in derived] == [None] * len(derived)
        assert table.key is not None  # and none of them took it away
        assert kernel.release(table) is table and table.key is None

    def test_nothing_kept_after_an_execution_carries_it(self):
        from repro.exec.executor import CAPTURE_KERNEL, _NO_BUDGET, _Runner

        store = RelationalStore()
        edges = {(i, i + 1) for i in range(6)} | {(0, 3)}
        store.add_table(Table("e", ("Sr", "Tr"), edges), node_label=False)
        term = Project(_closure_term("e"), ("Tr", "Sr"))  # a dedup at the root
        program = compile_term(term, store)
        kernel = get_kernel("numpy")
        capture: dict = {}
        answer = execute_program(
            program, store, kernel=kernel, fix_capture=capture
        )
        assert len(answer) == 21 and answer.table.key is None
        assert capture.pop(CAPTURE_KERNEL) == "numpy"
        [total] = capture.values()
        assert total.key is None
        runner = _Runner([program], encoding_for(store), kernel, _NO_BUDGET)
        runner.run(program)
        assert runner._memo and all(
            table.key is None for table in runner._memo.values()
        )

    def test_cached_result_carries_none(self):
        query = "x1, x2 <- (x1, isLocatedIn+, x2)"
        with GraphSession(
            yago_example_graph(), yago_example_schema(), result_cache_size=8
        ) as session:
            rows = session.execute(query, "vec")
            assert session.execute(query, "vec") == rows
            entries = list(session.results._entries._data.values())
            assert entries
            for entry in entries:
                assert entry.answer.table.key is None
                for total in (entry.fix_states or {}).values():
                    assert total.key is None


@pytest.mark.skipif("numpy" not in KERNELS, reason="numpy kernel only")
class TestStoredJoinLayouts:
    """A stored table's numpy kernel table keeps its key columns' join
    layouts for as long as it lives: an append to the table replaces the
    kernel table, one to another table leaves it (a code the dictionary
    gained since finds no row)."""

    #: ``f``'s targets probe ``e``'s sources; ``e`` is the larger side.
    TERM = Project(
        Join(
            Rename.of(Rel("f"), {"Tr": "m"}),
            Rename.of(Rel("e"), {"Sr": "m"}),
        ),
        ("Sr", "Tr"),
    )
    EDGES = {(i, i + 1) for i in range(20)} | {(3, 7), (5, 0)}
    STARTS = {(100, 3), (101, 5), (102, 19)}

    @classmethod
    def _store(cls, edges=(), starts=()):
        store = RelationalStore()
        store.add_table(
            Table("e", ("Sr", "Tr"), cls.EDGES | set(edges)), node_label=False
        )
        store.add_table(
            Table("f", ("Sr", "Tr"), cls.STARTS | set(starts)), node_label=False
        )
        return store

    def _run(self, store):
        """The answer, and the layout of ``e``'s source column."""
        kernel = get_kernel("numpy")
        answer = execute_program(
            compile_term(self.TERM, store), store, kernel=kernel
        )
        stored = encoding_for(store).table("e").kernel_table(kernel)
        return answer, stored.index[0].layout

    def test_a_second_execution_reuses_the_layout(self):
        store = self._store()
        answer, layout = self._run(store)
        assert answer == {(100, 4), (100, 7), (101, 6), (101, 0), (102, 20)}
        assert layout is not None
        again, kept = self._run(store)
        assert again == answer and kept is layout
        assert all(a is b for a, b in zip(kept, layout))

    def test_an_append_to_the_table_lays_it_out_again(self):
        store = self._store()
        _, layout = self._run(store)
        store.add_rows("e", [(19, 3)])
        answer, fresh = self._run(store)
        assert fresh is not None and fresh is not layout
        assert (102, 3) in answer
        assert answer == self._run(self._store(edges=[(19, 3)]))[0]

    def test_an_append_growing_the_dictionary_keeps_it(self):
        store = self._store()
        _, layout = self._run(store)
        assert layout is not None
        domain = encoding_for(store).domain_size
        new_starts = [(103, 500), (104, 501), (105, 19)]
        store.add_rows("f", new_starts)
        answer, kept = self._run(store)
        assert encoding_for(store).domain_size > domain
        assert kept is layout  # the new codes 500, 501 clip to no row
        assert answer == self._run(self._store(starts=new_starts))[0]
        assert (105, 20) in answer


class _WithoutCompose:
    """The numpy kernel minus its optional ``compose`` hook."""

    def __init__(self, kernel):
        self._kernel = kernel

    def __getattr__(self, name):
        if name == "compose":
            raise AttributeError(name)
        return getattr(self._kernel, name)


class _RecordingBudget(ResourceBudget):
    """A row cap that also records every tick and byte charge."""

    def __init__(self, max_rows=None):
        super().__init__(None, max_rows=max_rows)
        self.ticks: list[int] = []
        self.charges: list[int] = []

    def tick(self, amount=1):
        self.ticks.append(amount)
        super().tick(amount)

    def charge_bytes(self, count):
        self.charges.append(count)
        super().charge_bytes(count)


@pytest.mark.skipif("numpy" not in KERNELS, reason="compose is numpy's")
class TestComposition:
    """``π distinct(L ⋈ R)`` through the kernel's ``compose`` is still
    one join plus one project to the stats and the budget."""

    @pytest.fixture()
    def bi10(self):
        # A fresh store per test: a run of BI10's closure on a store
        # whose encoding already keeps it reads the kept total instead.
        from repro.datasets.ldbc import ldbc_session
        from repro.workloads.ldbc_queries import LDBC_QUERIES

        text = next(q.text for q in LDBC_QUERIES if q.qid == "BI10")
        with ldbc_session(0.3) as session:
            plan = session.prepare(text, "vec").plan
            yield plan.program, session.store

    @staticmethod
    def _run(bi10, kernel, budget):
        program, store = bi10
        stats = ExecutionStats()
        answer = execute_program(
            program, store, budget=budget, kernel=kernel, stats=stats
        )
        return answer, stats

    def test_same_answer_stats_ticks_and_charges_as_join_then_distinct(
        self, bi10, monkeypatch
    ):
        from repro.exec import kernels_numpy

        numpy_kernel = get_kernel("numpy")
        composed = mock.Mock(wraps=kernels_numpy.compose)
        monkeypatch.setattr(kernels_numpy, "compose", composed)
        fused_budget, plain_budget = _RecordingBudget(), _RecordingBudget()
        fused, fused_stats = self._run(bi10, numpy_kernel, fused_budget)
        plain, plain_stats = self._run(
            bi10, _WithoutCompose(numpy_kernel), plain_budget
        )
        assert composed.call_count >= 3  # the fixpoint step and the chain
        assert fused == plain
        assert fused_budget.ticks == plain_budget.ticks
        assert fused_budget.charges == plain_budget.charges
        for name in ("ops_evaluated", "join_rows", "project_rows", "memo_hits"):
            assert getattr(fused_stats, name) == getattr(plain_stats, name)

    def test_row_cap_still_trips_on_the_largest_join(self, bi10):
        numpy_kernel = get_kernel("numpy")
        probe = _RecordingBudget()
        self._run(bi10, _WithoutCompose(numpy_kernel), probe)
        # A cap halfway through the largest intermediate, which is a join
        # the composition never materialises.
        largest = max(range(len(probe.ticks)), key=probe.ticks.__getitem__)
        cap = sum(probe.ticks[:largest]) + probe.ticks[largest] // 2
        for kernel in (numpy_kernel, _WithoutCompose(numpy_kernel)):
            budget = _RecordingBudget(max_rows=cap)
            with pytest.raises(ResourceExhaustedError):
                self._run(bi10, kernel, budget)
            assert budget.ticks == probe.ticks[: largest + 1]

    def test_a_memoised_closed_join_is_reused_not_composed(self, monkeypatch):
        from repro.exec import kernels_numpy
        from repro.exec.executor import execute_batch_programs

        store = RelationalStore()
        edges = {(i, i + 1) for i in range(6)} | {(0, 3)}
        store.add_table(Table("e", ("Sr", "Tr"), edges), node_label=False)
        join = Join(
            Rename.of(Rel("e"), {"Tr": "m"}), Rename.of(Rel("e"), {"Sr": "m"})
        )
        programs = [
            compile_term(join, store),
            compile_term(Project(join, ("Sr", "Tr")), store),
        ]
        assert programs[1].root.child is programs[0].root  # one shared node
        composed = mock.Mock(wraps=kernels_numpy.compose)
        monkeypatch.setattr(kernels_numpy, "compose", composed)
        stats = ExecutionStats()
        _, pairs = execute_batch_programs(
            programs, store, kernel=get_kernel("numpy"), stats=stats
        )
        assert not composed.called and stats.memo_hits >= 1
        assert set(pairs) == {
            (a, d) for a, b in edges for c, d in edges if b == c
        }


class _WithoutClosure:
    """The numpy kernel minus its optional ``closure`` hook."""

    def __init__(self, kernel):
        self._kernel = kernel

    def __getattr__(self, name):
        if name == "closure":
            raise AttributeError(name)
        return getattr(self._kernel, name)


@pytest.mark.skipif("numpy" not in KERNELS, reason="closure is numpy's")
class TestClosure:
    """A linear closure through the kernel's ``closure`` hook is, to the
    answer, the stats and the budget, the semi-naive loop it replaces
    (with its step run through ``compose``)."""

    PLANS = [("BI10", True), ("Y1", False)]

    @pytest.fixture()
    def plans(self):
        """``plans(plan_id)``: the plan on a fresh store, whose encoding
        keeps no closure yet (a kept one is read, not iterated)."""
        from repro.datasets.ldbc import ldbc_session
        from repro.workloads.ldbc_queries import LDBC_QUERIES

        texts = {q.qid: q.text for q in LDBC_QUERIES}
        with contextlib.ExitStack() as sessions:

            def fresh(plan_id):
                qid, rewrite = plan_id
                session = sessions.enter_context(ldbc_session(0.3))
                prepared = session.prepare(texts[qid], "vec", rewrite=rewrite)
                return prepared.plan.program, session.store

            yield fresh

    @staticmethod
    def _run(plan, kernel, budget):
        program, store = plan
        stats = ExecutionStats()
        answer = execute_program(
            program, store, budget=budget, kernel=kernel, stats=stats
        )
        return answer, stats

    @pytest.mark.parametrize("plan_id", PLANS, ids=str)
    def test_same_answer_stats_ticks_and_charges_as_the_loop(
        self, plans, plan_id, monkeypatch
    ):
        from repro.exec import kernels_numpy

        numpy_kernel = get_kernel("numpy")
        closure = mock.Mock(wraps=kernels_numpy.closure)
        monkeypatch.setattr(kernels_numpy, "closure", closure)
        hook_budget, loop_budget = _RecordingBudget(), _RecordingBudget()
        hooked, hook_stats = self._run(plans(plan_id), numpy_kernel, hook_budget)
        looped, loop_stats = self._run(
            plans(plan_id), _WithoutClosure(numpy_kernel), loop_budget
        )
        assert closure.called  # knows+ at least
        assert hooked == looped
        assert hook_budget.ticks == loop_budget.ticks
        assert hook_budget.charges == loop_budget.charges
        for name in (
            "ops_evaluated", "join_rows", "project_rows", "fixpoint_rows",
            "memo_hits",
        ):
            assert getattr(hook_stats, name) == getattr(loop_stats, name)

    @pytest.mark.parametrize("plan_id", PLANS, ids=str)
    def test_row_cap_trips_at_the_same_tick(self, plans, plan_id):
        from repro.exec import kernels_numpy

        numpy_kernel = get_kernel("numpy")
        probe = _RecordingBudget()
        # A round's join tick is the first tick after its ``step``.
        join_ticks = []
        step = kernels_numpy.Closure.step

        def recording_step(closure, *args):
            join_ticks.append(len(probe.ticks))
            return step(closure, *args)

        with mock.patch.object(kernels_numpy.Closure, "step", recording_step):
            self._run(plans(plan_id), numpy_kernel, probe)
        # A cap halfway through the largest round inside a closure.
        largest = max(join_ticks, key=probe.ticks.__getitem__)
        cap = sum(probe.ticks[:largest]) + probe.ticks[largest] // 2
        for kernel in (numpy_kernel, _WithoutClosure(numpy_kernel)):
            budget = _RecordingBudget(max_rows=cap)
            with pytest.raises(ResourceExhaustedError):
                self._run(plans(plan_id), kernel, budget)
            assert budget.ticks == probe.ticks[: largest + 1]


@pytest.mark.skipif("numpy" not in KERNELS, reason="closures are numpy's")
class TestKeptClosure:
    """An unseeded closure of a stored relation is built once per store
    version, kept on the encoding and read as one scan after that."""

    QUERY = "x1, x2 <- (x1, knows+, x2)"

    @pytest.fixture()
    def session(self):
        from repro.datasets.ldbc import ldbc_session

        with ldbc_session(0.1) as session:
            yield session

    def _run(self, session, kernel="numpy", budget=None):
        program = session.prepare(self.QUERY, "vec", rewrite=False).plan.program
        stats = ExecutionStats()
        answer = execute_program(
            program, session.store, budget=budget,
            kernel=get_kernel(kernel), stats=stats,
        )
        return answer, stats

    def test_a_second_execution_reads_the_kept_total_as_one_scan(
        self, session, monkeypatch
    ):
        from repro.exec import closures_kept, executor, kernels_numpy

        closure = mock.Mock(wraps=kernels_numpy.closure)
        monkeypatch.setattr(kernels_numpy, "closure", closure)
        built, build_stats = self._run(session)
        assert closure.call_count == 1
        assert closures_kept(session.store) == 1
        sites = mock.Mock(wraps=executor.fault_point)
        monkeypatch.setattr(executor, "fault_point", sites)
        budget = _RecordingBudget()
        read, read_stats = self._run(session, budget=budget)
        assert closure.call_count == 1  # no closure rounds
        assert read == built
        rows = len(read)
        assert read_stats.fixpoint_rows == read_stats.join_rows == 0
        assert read_stats.scan_rows == rows
        # The kept read, then the head's rename: one site, tick and
        # charge each, a scan's.
        assert read_stats.ops_evaluated == 2 < build_stats.ops_evaluated
        assert sites.call_count == 2
        assert budget.ticks == [rows, rows]
        assert budget.charges == [rows * 16, rows * 16]

    def test_an_append_drops_the_kept_closure(self, session):
        from repro.exec import closures_kept

        self._run(session)
        persons = sorted(
            {row[0] for row in session.store.table("knows").rows}
        )
        assert session.store.add_rows(
            "knows", [(persons[0], persons[-1]), (persons[-1], 900001)]
        ) == 2
        fresh, _ = self._run(session, kernel="python")
        assert closures_kept(session.store) == 0
        answer, stats = self._run(session)
        assert answer == fresh
        assert (persons[0], 900001) in answer
        assert stats.fixpoint_rows and closures_kept(session.store) == 1

    def test_the_python_kernel_never_keeps_a_closure(self, session):
        from repro.exec import closures_kept

        first, _ = self._run(session, kernel="python")
        second, stats = self._run(session, kernel="python")
        assert first == second and stats.fixpoint_rows == len(second)
        assert closures_kept(session.store) == 0
        session.execute(self.QUERY, "ra", rewrite=False)
        assert closures_kept(session.store) == 0

    def test_a_seeded_closure_is_not_kept(self, example_session):
        from repro.exec import closures_kept

        for _ in range(2):
            example_session.execute(CHAIN_QUERY, "vec", rewrite=False)
        assert closures_kept(example_session.store) == 0

    def test_the_session_reports_the_kept_closures(self, session):
        def kept():
            stats = dataclasses.asdict(session.cache_stats["maintenance"])
            return stats["closures_kept"]

        assert kept() == 0
        session.execute(self.QUERY, "vec", rewrite=False)
        assert kept() == 1
        session.store.add_rows("knows", [(900001, 900002)])
        # The encoding drops it as the next execution folds the append in.
        session.execute("x1, x2 <- (x1, hasCreator, x2)", "vec")
        assert kept() == 0


# -- backend integration ------------------------------------------------------
class TestVecBackend:
    def test_explain_shows_logical_and_physical_plans(self, example_session):
        text = example_session.explain(
            "x1, x2 <- (x1, isLocatedIn+, x2)", "vec", rewrite=False
        )
        assert "-- logical µ-RA plan --" in text
        assert "-- physical columnar plan" in text
        assert "SemiNaiveFixpoint" in text
        assert "DeltaScan" in text

    def test_plan_cache_reuses_compiled_program(self, example_session):
        query = "x1, x2 <- (x1, isLocatedIn+, x2)"
        first = example_session.prepare(query, "vec")
        second = example_session.prepare(query, "vec")
        assert second.plan is first.plan

    def test_scan_manifest_names_every_base_table(self, example_session):
        prepared = example_session.prepare(
            "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)", "vec", rewrite=False
        )
        program = prepared.plan.program
        scans = {
            op.table
            for op in _walk_ops(program.root)
            if isinstance(op, ScanOp)
        }
        assert scans == set(program.scan_tables)
        assert {"livesIn", "isLocatedIn"} <= scans


CLOSURE_QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN_QUERY = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


class TestVecBackendOptions:
    @pytest.mark.parametrize(
        "unknown",
        # A typo, and the knobs of the deleted thread-morsel and
        # process-shard kernels: no alias stays behind for them.
        ["kernal", "parallelism", "morsel_size", "shard_workers"],
    )
    def test_unknown_option_rejected_with_accepted_list(self, unknown):
        with pytest.raises(ValueError) as excinfo:
            ExecOptions.from_mapping({unknown: 8})
        message = str(excinfo.value)
        assert repr(unknown) in message
        for accepted in ("kernel", "max_bytes", "planner"):
            assert accepted in message

    @pytest.mark.parametrize(
        "options",
        [
            {"max_bytes": 0},
            {"max_bytes": -2},
            {"max_bytes": "4"},
            {"max_bytes": True},
            {"max_bytes": 2.5},
            {"kernel": 7},
            {"kernel": "fortran"},
        ],
    )
    def test_invalid_values_rejected(self, example_session, options):
        with pytest.raises(ValueError, match="must be a|unknown kernel"):
            example_session.prepare(
                CLOSURE_QUERY, "vec", exec_options=ExecOptions(**options)
            )

    def test_ra_ignores_the_vec_kernel_pin(self, example_session):
        # ``ra`` is the same layer with nothing to choose: whatever
        # kernel ``vec`` is pinned to, it runs the python one.
        expected = example_session.execute(CHAIN_QUERY, "ra", rewrite=False)
        prepared = example_session.prepare(
            CHAIN_QUERY, "ra", rewrite=False,
            exec_options=ExecOptions(kernel="numpy"),
        )
        assert prepared.plan.kernel == "python"
        assert prepared.execute() == expected

    def test_deleted_environment_defaults_change_nothing(
        self, example_session, monkeypatch
    ):
        def run():
            example_session.clear_caches()
            return (
                example_session.execute(CHAIN_QUERY, "vec", rewrite=False),
                example_session.explain(
                    CHAIN_QUERY, "vec", rewrite=False
                ).plan_text,
            )

        before = run()
        monkeypatch.setenv("REPRO_VEC_PARALLELISM", "4")
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD_BYTES", "1")
        monkeypatch.setenv("REPRO_SPILL_PATH", "/nonexistent/spill")
        assert run() == before


class TestExecutionStats:
    def test_merge_is_total_over_every_field(self):
        field_names = [f.name for f in dataclasses.fields(ExecutionStats)]
        ones = ExecutionStats(**{name: 1 for name in field_names})
        accumulated = ExecutionStats(**{name: 2 for name in field_names})
        accumulated.merge(ones)
        for name in field_names:
            assert getattr(accumulated, name) == 3, name

    def test_merge_reads_the_counter_names_off_the_fields(self):
        # The names are computed once, at import, from the fields: a
        # counter added to the class is merged without being listed.
        from repro.exec import executor

        assert executor._COUNTERS == tuple(
            f.name for f in dataclasses.fields(ExecutionStats)
        )

    def test_new_counters_default_to_zero(self):
        stats = ExecutionStats()
        assert stats.tables_encoded == 0
        assert stats.closures_kept == 0
        assert stats.result_cache_hits == 0
        assert stats.result_cache_misses == 0


def test_benchmark_context_dispatches_to_vec(example_session):
    from repro.bench.runner import ENGINES, BenchmarkContext
    from repro.query.parser import parse_query

    assert "vec" in ENGINES
    context = BenchmarkContext.from_session(example_session, scale_factor=0.0)
    query = parse_query("x1, x2 <- (x1, isLocatedIn+, x2)")
    assert context.execute("vec", query) == context.execute("ra", query)


# -- memoised optimizer statistics --------------------------------------------
class TestStoreStatistics:
    def test_counts_match_table_scans(self):
        store = RelationalStore()
        store.add_table(
            Table("e", ("Sr", "Tr"), {(1, 2), (1, 3), (2, 3)}),
            node_label=False,
        )
        stats = store_statistics(store)
        assert stats.row_count("e") == 3
        assert stats.distinct_count("e", "Sr") == 2
        assert stats.distinct_count("e", "Tr") == 2

    def test_snapshot_shared_until_add_table(self):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), {(1, 2)}), node_label=False)
        stats = store_statistics(store)
        assert store_statistics(store) is stats
        # Two estimators over the same store share one snapshot.
        assert Estimator(store).rows(Rel("e")) == 1.0
        store.add_table(Table("f", ("Sr", "Tr"), set()), node_label=False)
        assert store_statistics(store) is not stats

    def test_alias_registration_bumps_version(self):
        store = RelationalStore()
        store.add_table(Table("A", ("Sr",), {(1,)}), node_label=True)
        before = store.version
        store.add_alias("View", ("A",))
        assert store.version > before


# -- CLI validation -----------------------------------------------------------
class TestCliBackendValidation:
    def test_unknown_backend_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["query", "x1, x2 <- (x1, e, x2)", "--backend", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'nope'" in err
        assert "vec" in err and "ra" in err and "reference" in err

    def test_unknown_engine_lists_registry(self, capsys):
        # ``auto`` is no engine: bench runs one of ``runner.ENGINES``.
        for engine in ("nope", "auto"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(["bench", "table6", "--engine", engine])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"unknown engine {engine!r}" in err
            assert "expected one of " in err and "vec" in err and "gdb" in err

    def test_help_lists_registered_backends(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["query", "--help"])
        assert excinfo.value.code == 0
        assert "vec" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--parallelism", "--morsel-size", "--shard-workers"]
    )
    def test_flags_of_the_deleted_parallel_kernels_are_unrecognised(
        self, flag, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["query", CLOSURE_QUERY, "--backend", "vec", flag, "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_vec_accepted(self, capsys):
        assert (
            cli_main(
                ["query", "x1, x2 <- (x1, isLocatedIn+, x2)",
                 "--backend", "vec", "--limit", "2"]
            )
            == 0
        )
        assert "on backend 'vec'" in capsys.readouterr().out

    @staticmethod
    def _count_prepares(monkeypatch) -> list:
        from repro.engine.session import GraphSession

        calls: list = []
        prepare = GraphSession.prepare

        def counting(self, *args, **kwargs):
            calls.append(args)
            return prepare(self, *args, **kwargs)

        monkeypatch.setattr(GraphSession, "prepare", counting)
        return calls

    def test_no_backend_runs_the_session_default(self, capsys, monkeypatch):
        prepares = self._count_prepares(monkeypatch)
        assert cli_main(["query", CLOSURE_QUERY, "--explain"]) == 0
        out = capsys.readouterr().out
        assert len(prepares) == 1  # explained and executed: one handle
        assert "-- physical columnar plan" in out  # vec's explain
        assert out.rstrip().splitlines()[-1].startswith(
            "-- 8 row(s) on backend 'vec'"
        )

    def test_auto_reports_the_backend_that_ran(self, capsys, monkeypatch):
        from repro.engine.options import DEFAULT_BACKEND
        from repro.engine.session import GraphSession

        handles: list = []
        prepare = GraphSession.prepare
        monkeypatch.setattr(
            GraphSession, "prepare",
            lambda self, *a, **k: handles.append(prepare(self, *a, **k))
            or handles[-1],
        )
        assert (
            cli_main(
                ["query", CLOSURE_QUERY, "--backend", "auto", "--explain"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert len(handles) == 1
        assert handles[0].backend_name == DEFAULT_BACKEND
        assert handles[0].exec_options.planner == "cost"
        assert "-- planner candidates --" in out
        assert out.rstrip().splitlines()[-1].startswith(
            f"-- 8 row(s) on backend {DEFAULT_BACKEND!r}"
        )
