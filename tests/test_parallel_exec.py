"""Morsel-driven parallel execution: partitioning, kernel parity, stats.

Covers the morsel partitioner's edge cases (empty relations, morsels
larger than the relation, parallelism=1 equivalence with the sequential
runner), the new kernel primitives on both kernel implementations, the
``vec`` backend-option validation, the environment parallelism default,
and the totality of :meth:`ExecutionStats.merge`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import GraphSession
from repro.exec import (
    DEFAULT_MORSEL_SIZE,
    ExecutionStats,
    MorselKernel,
    available_kernels,
    compile_term,
    execute_program,
    get_kernel,
    morsel_ranges,
)
from repro.errors import QueryTimeout
from repro.exec.parallel import default_parallelism
from repro.graph.evaluator import EvalBudget
from repro.graph.model import yago_example_graph
from repro.ra.terms import Fix, Join, Project, Rel, Rename, Var
from repro.schema.builder import yago_example_schema
from repro.storage.relational import RelationalStore, Table

KERNELS = available_kernels()

CLOSURE_QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN_QUERY = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


@pytest.fixture()
def example_session():
    with GraphSession(yago_example_graph(), yago_example_schema()) as session:
        yield session


# -- the morsel partitioner ----------------------------------------------------
class TestMorselRanges:
    def test_empty_relation_yields_no_morsels(self):
        assert morsel_ranges(0, 8) == []
        assert morsel_ranges(-3, 8) == []

    def test_morsel_larger_than_relation(self):
        assert morsel_ranges(5, 100) == [(0, 5)]

    def test_exact_multiple_and_remainder(self):
        assert morsel_ranges(8, 4) == [(0, 4), (4, 8)]
        assert morsel_ranges(9, 4) == [(0, 4), (4, 8), (8, 9)]

    def test_unit_morsels(self):
        assert morsel_ranges(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_ranges_cover_without_overlap(self):
        ranges = morsel_ranges(1000, 7)
        covered = [i for start, stop in ranges for i in range(start, stop)]
        assert covered == list(range(1000))

    def test_invalid_morsel_size_rejected(self):
        with pytest.raises(ValueError, match="morsel_size"):
            morsel_ranges(10, 0)


# -- kernel-layer morsel primitives --------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
class TestMorselPrimitives:
    def test_slice_rows(self, kernel_name):
        kernel = get_kernel(kernel_name)
        rows = [(i, i * 2) for i in range(10)]
        table = kernel.from_rows(rows, 2)
        assert kernel.to_rows(kernel.slice_rows(table, 3, 7)) == rows[3:7]
        assert kernel.nrows(kernel.slice_rows(table, 8, 100)) == 2
        assert kernel.nrows(kernel.slice_rows(table, 4, 4)) == 0

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

    def test_hash_partition_groups_equal_rows(self, kernel_name):
        kernel = get_kernel(kernel_name)
        rows = [(i % 4, i % 3) for i in range(60)]
        table = kernel.from_rows(rows, 2)
        parts = kernel.hash_partition(table, 4, 8)
        assert sum(kernel.nrows(part) for part in parts) == 60
        # Equal rows must never straddle partitions (dedup per partition
        # is then exact).
        seen: dict[tuple, int] = {}
        for index, part in enumerate(parts):
            for row in kernel.to_rows(part):
                assert seen.setdefault(row, index) == index
        # And partitioning a deduped view loses nothing.
        merged = kernel.concat_many(
            [kernel.distinct(part, 8) for part in parts], 2
        )
        assert set(kernel.to_rows(merged)) == set(rows)

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


# -- the MorselKernel wrapper --------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
class TestMorselKernel:
    def test_same_surface_and_shared_table_cache_name(self, kernel_name):
        base = get_kernel(kernel_name)
        with MorselKernel(base, 2, 4) as wrapped:
            assert wrapped.NAME == base.NAME  # encoded tables stay shared
            table = wrapped.from_rows([(1, 2)], 2)
            assert wrapped.to_rows(table) == [(1, 2)]

    def test_join_distinct_select_eq_agree_with_base(self, kernel_name):
        base = get_kernel(kernel_name)
        rows_l = [(i % 13, i % 7) for i in range(300)]
        rows_r = [(i % 7, i % 5) for i in range(401)]
        left = base.from_rows(rows_l, 2)
        right = base.from_rows(rows_r, 2)
        layout = [(0, 0), (0, 1), (1, 1)]
        with MorselKernel(base, 3, 16) as wrapped:
            joined = wrapped.join(left, right, [1], [0], layout, 16)
            assert set(base.to_rows(joined)) == set(
                base.to_rows(base.join(left, right, [1], [0], layout, 16))
            )
            assert set(base.to_rows(wrapped.distinct(left, 16))) == set(rows_l)
            assert set(base.to_rows(wrapped.select_eq(left, 0, 1))) == {
                row for row in rows_l if row[0] == row[1]
            }

    def test_small_tables_never_fan_out(self, kernel_name):
        base = get_kernel(kernel_name)
        with MorselKernel(base, 4, DEFAULT_MORSEL_SIZE) as wrapped:
            tiny = base.from_rows([(1, 1), (2, 1)], 2)
            wrapped.distinct(tiny, 4)
            wrapped.select_eq(tiny, 0, 1)
            assert wrapped.parallel_ops == 0
            assert wrapped.morsels_dispatched == 0

    def test_gil_bound_kernel_stays_sequential(self, kernel_name):
        base = get_kernel(kernel_name)
        with MorselKernel(base, 4, 8) as wrapped:
            big = base.from_rows([(i, i % 3) for i in range(100)], 2)
            wrapped.distinct(big, 128)
            if base.RELEASES_GIL:
                assert wrapped.effective_parallelism == 4
                assert wrapped.parallel_ops >= 1
            else:
                assert wrapped.effective_parallelism == 1
                assert wrapped.parallel_ops == 0

    def test_invalid_configuration_rejected(self, kernel_name):
        base = get_kernel(kernel_name)
        with pytest.raises(ValueError, match="parallelism"):
            MorselKernel(base, 0)
        with pytest.raises(ValueError, match="morsel_size"):
            MorselKernel(base, 2, 0)


# -- executor integration ------------------------------------------------------
def _closure_term(edge: str) -> Fix:
    step = Project(
        Join(
            Rename.of(Var("X", ("Sr", "Tr")), {"Tr": "m"}),
            Rename.of(Rel(edge), {"Sr": "m"}),
        ),
        ("Sr", "Tr"),
    )
    return Fix("X", Rel(edge), step)


class TestParallelExecutor:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_empty_relation_fixpoint(self, kernel_name):
        store = RelationalStore()
        store.add_table(Table("e", ("Sr", "Tr"), set()), node_label=False)
        program = compile_term(_closure_term("e"), store)
        rows = execute_program(
            program,
            store,
            kernel=get_kernel(kernel_name),
            parallelism=4,
            morsel_size=2,
        )
        assert rows == frozenset()

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_morsel_size_larger_than_relation(self, kernel_name):
        store = RelationalStore()
        store.add_table(
            Table("e", ("Sr", "Tr"), {(i, i + 1) for i in range(5)}),
            node_label=False,
        )
        program = compile_term(_closure_term("e"), store)
        rows = execute_program(
            program,
            store,
            kernel=get_kernel(kernel_name),
            parallelism=4,
            morsel_size=10_000,
        )
        expected = frozenset(
            (i, j) for i in range(6) for j in range(i + 1, 6)
        )
        assert rows == expected

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_parallelism_one_equals_sequential(self, kernel_name):
        """parallelism=1 takes the plain sequential path bit-for-bit."""
        store = RelationalStore()
        store.add_table(
            Table("e", ("Sr", "Tr"), {(i, (i * 7) % 23) for i in range(23)}),
            node_label=False,
        )
        program = compile_term(_closure_term("e"), store)
        kernel = get_kernel(kernel_name)
        sequential = execute_program(program, store, kernel=kernel)
        assert execute_program(
            program, store, kernel=kernel, parallelism=1
        ) == sequential
        assert execute_program(
            program, store, kernel=kernel, parallelism=4, morsel_size=3
        ) == sequential

    def test_parallel_stats_reported(self, example_session):
        from repro.exec import execute_batch_programs
        from repro.exec.kernels import default_kernel

        session = example_session
        prepared = session.prepare(CHAIN_QUERY, "vec", rewrite=False)
        stats = ExecutionStats()
        rows = execute_batch_programs(
            [prepared.plan.program],
            session.store,
            heads=[prepared.plan.head],
            stats=stats,
            parallelism=4,
            morsel_size=1,
        )[0]
        assert rows == session.execute(CHAIN_QUERY, "vec", rewrite=False)
        assert stats.programs == 1
        if default_kernel().RELEASES_GIL:
            # morsel_size=1 forces fan-outs on the GIL-dropping kernel.
            assert stats.parallel_ops > 0
            assert stats.morsels_dispatched >= stats.parallel_ops


# -- backend options -----------------------------------------------------------
class TestVecBackendOptions:
    def test_unknown_option_rejected_with_accepted_list(self, example_session):
        with pytest.raises(ValueError) as excinfo:
            example_session.prepare(
                CLOSURE_QUERY, "vec", backend_options={"kernal": "numpy"}
            )
        message = str(excinfo.value)
        assert "'kernal'" in message
        for accepted in ("kernel", "parallelism", "morsel_size"):
            assert accepted in message

    @pytest.mark.parametrize(
        "options",
        [
            {"parallelism": 0},
            {"parallelism": -2},
            {"parallelism": "4"},
            {"parallelism": True},
            {"morsel_size": 0},
            {"morsel_size": 2.5},
        ],
    )
    def test_invalid_values_rejected(self, example_session, options):
        with pytest.raises(ValueError, match="positive integer"):
            example_session.prepare(
                CLOSURE_QUERY, "vec", backend_options=options
            )

    def test_parallel_options_reach_the_plan(self, example_session):
        prepared = example_session.prepare(
            CLOSURE_QUERY,
            "vec",
            backend_options={"parallelism": 4, "morsel_size": 128},
        )
        assert prepared.plan.parallelism == 4
        assert prepared.plan.morsel_size == 128
        assert prepared.execute() == example_session.execute(
            CLOSURE_QUERY, "vec"
        )

    def test_explain_shows_parallel_configuration(self, example_session):
        text = example_session.explain(
            CLOSURE_QUERY,
            "vec",
            rewrite=False,
            backend_options={"parallelism": 3, "morsel_size": 64},
        )
        assert "parallelism=3" in text
        assert "morsel_size=64" in text

    def test_env_default_parallelism(self, monkeypatch):
        monkeypatch.delenv("REPRO_VEC_PARALLELISM", raising=False)
        assert default_parallelism() == 1
        monkeypatch.setenv("REPRO_VEC_PARALLELISM", "4")
        assert default_parallelism() == 4
        monkeypatch.setenv("REPRO_VEC_PARALLELISM", "not-a-number")
        assert default_parallelism() == 1
        monkeypatch.setenv("REPRO_VEC_PARALLELISM", "-3")
        assert default_parallelism() == 1

    def test_env_parallelism_executes_correctly(
        self, example_session, monkeypatch
    ):
        expected = example_session.execute(CHAIN_QUERY, "vec", rewrite=False)
        monkeypatch.setenv("REPRO_VEC_PARALLELISM", "4")
        example_session.clear_caches()
        assert (
            example_session.execute(CHAIN_QUERY, "vec", rewrite=False)
            == expected
        )

    def test_ra_ignores_the_vec_environment_defaults(
        self, example_session, monkeypatch
    ):
        # ``ra`` is the same layer with nothing to choose: whatever the
        # environment tells ``vec``, it runs sequentially and in memory.
        import repro.exec.executor as executor
        import repro.exec.shard as shard

        expected = example_session.execute(CHAIN_QUERY, "ra", rewrite=False)

        def refuse(*args, **kwargs):
            raise AssertionError("ra left the sequential in-memory path")

        monkeypatch.setattr(executor, "MorselKernel", refuse)
        monkeypatch.setattr(executor, "SpillManager", refuse)
        monkeypatch.setattr(shard, "ProcessMorselKernel", refuse)
        monkeypatch.setenv("REPRO_VEC_PARALLELISM", "4")
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD_BYTES", "1")
        example_session.clear_caches()
        prepared = example_session.prepare(CHAIN_QUERY, "ra", rewrite=False)
        assert prepared.plan.kernel == "python"
        assert prepared.execute() == expected


# -- budget enforcement inside parallel operators ------------------------------
class _GilFreeProxy:
    """The pure-Python kernel masquerading as GIL-dropping, so the morsel
    wrapper fans out deterministically on machines without numpy."""

    RELEASES_GIL = True

    def __init__(self, base):
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class TestMorselBudget:
    """A budget threaded into :class:`MorselKernel` interrupts fan-outs.

    The tables are ~100 rows, far below the tick batching boundary
    (2048), so nothing *outside* the morsel wrapper could notice the
    expired deadline — these joins used to run to completion however
    late the budget was.
    """

    def _wrapped(self, budget):
        base = get_kernel("python")
        return base, MorselKernel(_GilFreeProxy(base), 4, 8, budget=budget)

    def test_expired_budget_interrupts_parallel_join(self):
        base, wrapped = self._wrapped(EvalBudget(-1.0))
        left = base.from_rows([(i, i % 7) for i in range(100)], 2)
        right = base.from_rows([(i % 7, i) for i in range(100)], 2)
        with wrapped:
            with pytest.raises(QueryTimeout):
                wrapped.join(
                    left, right, [1], [0], [(0, 0), (0, 1), (1, 1)], 128
                )
            # Interrupted before any morsel was dispatched.
            assert wrapped.parallel_ops == 0

    def test_expired_budget_interrupts_parallel_distinct(self):
        base, wrapped = self._wrapped(EvalBudget(-1.0))
        table = base.from_rows([(i % 13, i % 5) for i in range(100)], 2)
        with wrapped:
            with pytest.raises(QueryTimeout):
                wrapped.distinct(table, 128)

    def test_generous_budget_changes_nothing(self):
        base, wrapped = self._wrapped(EvalBudget(3600.0))
        table = base.from_rows([(i % 13, i % 5) for i in range(100)], 2)
        with wrapped:
            rows = set(base.to_rows(wrapped.distinct(table, 128)))
        assert rows == {(i % 13, i % 5) for i in range(100)}

    def test_executor_threads_budget_into_morsel_runs(self, example_session):
        """End-to-end: an expired budget stops a morsel-parallel batch."""
        from repro.exec import execute_batch_programs

        session = example_session
        prepared = session.prepare(CHAIN_QUERY, "vec", rewrite=False)
        with pytest.raises(QueryTimeout):
            execute_batch_programs(
                [prepared.plan.program],
                session.store,
                heads=[prepared.plan.head],
                budget=EvalBudget(-1.0),
                kernel=_GilFreeProxy(get_kernel("python")),
                parallelism=4,
                morsel_size=1,
            )


# -- ExecutionStats ------------------------------------------------------------
class TestExecutionStats:
    def test_merge_is_total_over_every_field(self):
        field_names = [f.name for f in dataclasses.fields(ExecutionStats)]
        ones = ExecutionStats(**{name: 1 for name in field_names})
        accumulated = ExecutionStats(**{name: 2 for name in field_names})
        accumulated.merge(ones)
        for name in field_names:
            if name == "peak_estimate_bytes":
                # A peak is a high-water mark, not a flow: merging takes
                # the max so a batch reports its largest single estimate.
                assert getattr(accumulated, name) == 2, name
            else:
                assert getattr(accumulated, name) == 3, name

    def test_new_counters_default_to_zero(self):
        stats = ExecutionStats()
        assert stats.parallel_ops == 0
        assert stats.morsels_dispatched == 0
        assert stats.result_cache_hits == 0
        assert stats.result_cache_misses == 0
