"""Memmap spill: file lifecycle, budget exemption, fault containment.

The property suite (``tests/properties/test_out_of_core_agreement.py``)
proves spilled execution returns the same rows; this module pins down
the machinery — the :class:`SpillManager` lifecycle contract (reuse at
the same encoding version, invalidation on a version move, cleanup on
close), the anonymous-intermediate unlink trick, the budget exemption
that makes a hard ``max_bytes`` ceiling satisfiable out of core, the
contained ``spill.write`` / raising ``spill.read`` fault sites, and the
lazy per-table encoding counter.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import GraphSession
from repro.errors import InjectedFault, ResourceExhaustedError
from repro.exec import get_kernel
from repro.exec.dictionary import StoreEncoding
from repro.exec.executor import execute_program
from repro.exec.spill import (
    SpillManager,
    is_spilled,
    spill_kernel_table,
    spill_supported,
    table_from_memmap,
)
from repro.graph.evaluator import ResourceBudget
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.storage.relational import RelationalStore
from repro.testing.faults import install, parse_faults

pytest.importorskip("numpy", reason="spill is numpy-only")

QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"


def _kernel():
    return get_kernel("numpy")


def _session():
    return GraphSession(yago_example_graph(), yago_example_schema())


class TestSpillManagerLifecycle:
    def test_named_file_reused_at_same_version(self):
        with SpillManager() as manager:
            cols = [[1, 2, 3], [4, 5, 6]]
            first = manager.spill_table("edges", 7, cols, 3)
            assert manager.spill_ops == 1
            assert len(manager.files()) == 1
            again = manager.spill_table("edges", 7, cols, 3)
            assert manager.spill_ops == 1  # no second write
            assert manager.spill_reuses == 1
            assert len(manager.files()) == 1
            assert first.tolist() == again.tolist() == cols

    def test_version_move_invalidates_named_file(self):
        with SpillManager() as manager:
            manager.spill_table("edges", 1, [[1], [2]], 1)
            [stale] = manager.files()
            mapped = manager.spill_table("edges", 2, [[9], [8]], 1)
            assert manager.spill_ops == 2
            assert manager.spill_reuses == 0
            [fresh] = manager.files()
            assert fresh != stale
            assert not os.path.exists(stale)
            assert mapped.tolist() == [[9], [8]]

    def test_anonymous_intermediates_hold_no_directory_entry(self):
        with SpillManager() as manager:
            mapped = manager.spill_anonymous("join", [[1, 2], [3, 4]], 2)
            # Unlinked immediately: the mapping is the only reference.
            assert manager.files() == []
            assert manager.spill_ops == 1
            assert mapped.tolist() == [[1, 2], [3, 4]]

    def test_close_removes_directory_and_refuses_reuse(self):
        manager = SpillManager()
        directory = manager.directory
        manager.spill_table("edges", 1, [[1], [2]], 1)
        manager.close()
        assert manager.closed
        assert not os.path.isdir(directory)
        assert manager.files() == []
        with pytest.raises(RuntimeError):
            manager.spill_table("edges", 1, [[1], [2]], 1)
        manager.close()  # idempotent

    def test_spilled_bytes_counts_written_payload(self):
        with SpillManager() as manager:
            manager.spill_anonymous("x", [[1, 2, 3], [4, 5, 6]], 3)
            assert manager.spilled_bytes == 2 * 3 * 8


class TestSpilledTables:
    def test_spill_kernel_table_round_trips(self):
        kernel = _kernel()
        table = kernel.from_columns([[1, 2, 3], [4, 5, 6]], 3)
        with SpillManager() as manager:
            spilled = spill_kernel_table(manager, kernel, table, "t")
            assert spilled is not None
            assert is_spilled(spilled)
            assert not is_spilled(table)
            assert kernel.to_rows(spilled) == kernel.to_rows(table)

    def test_views_of_spilled_tables_stay_spilled(self):
        kernel = _kernel()
        table = kernel.from_columns([[1, 2, 3], [4, 5, 6]], 3)
        with SpillManager() as manager:
            spilled = spill_kernel_table(manager, kernel, table, "t")
            assert is_spilled(kernel.select_columns(spilled, (1, 0)))

    def test_empty_and_unsupported_tables_do_not_spill(self):
        kernel = _kernel()
        empty = kernel.from_columns([[], []], 0)
        with SpillManager() as manager:
            assert spill_kernel_table(manager, kernel, empty, "e") is None
            python_kernel = get_kernel("python")
            assert not spill_supported(python_kernel)
            table = python_kernel.from_columns([[1], [2]], 1)
            assert (
                spill_kernel_table(manager, python_kernel, table, "p")
                is None
            )


class TestBudgetExemption:
    def _prepared(self, session):
        prepared = session.prepare(QUERY, "vec", rewrite=False)
        assert prepared.plan is not None
        return prepared.plan

    def test_spill_satisfies_cap_in_memory_exhausts(self):
        with _session() as session:
            plan = self._prepared(session)
            unbudgeted = execute_program(
                plan.program, session.store, head=plan.head,
                kernel=_kernel(),
            )
            cap = 512
            with pytest.raises(ResourceExhaustedError) as excinfo:
                execute_program(
                    plan.program, session.store, head=plan.head,
                    kernel=_kernel(),
                    budget=ResourceBudget(max_bytes=cap),
                )
            assert excinfo.value.retryable
            rows = execute_program(
                plan.program, session.store, head=plan.head,
                kernel=_kernel(),
                budget=ResourceBudget(max_bytes=cap),
                spill_threshold_bytes=1,
            )
            assert rows == unbudgeted


class TestSpillFaultSites:
    def test_spill_write_fault_is_contained(self):
        with _session() as session:
            plan = session.prepare(QUERY, "vec", rewrite=False).plan
            expected = execute_program(
                plan.program, session.store, head=plan.head,
                kernel=_kernel(),
            )
            with install(parse_faults("spill.write")):
                rows = execute_program(
                    plan.program, session.store, head=plan.head,
                    kernel=_kernel(),
                    spill_threshold_bytes=1,
                )
            assert rows == expected

    def test_spill_write_fault_keeps_counters_at_zero(self):
        kernel = _kernel()
        table = kernel.from_columns([[1, 2], [3, 4]], 2)
        with SpillManager() as manager:
            with install(parse_faults("spill.write")):
                with pytest.raises(InjectedFault):
                    spill_kernel_table(manager, kernel, table, "t")
            assert manager.spill_ops == 0
            assert manager.spilled_bytes == 0

    def test_spill_read_fault_raises_retryable_on_reuse(self):
        with SpillManager() as manager:
            cols = [[1, 2], [3, 4]]
            manager.spill_table("edges", 3, cols, 2)
            with install(parse_faults("spill.read")):
                with pytest.raises(InjectedFault) as excinfo:
                    manager.spill_table("edges", 3, cols, 2)
            assert excinfo.value.site == "spill.read"
            assert excinfo.value.retryable
            # The next attempt (fault cleared) still reuses the file.
            manager.spill_table("edges", 3, cols, 2)
            assert manager.spill_ops == 1


class TestLazyEncoding:
    def test_only_scanned_tables_are_encoded(self):
        store = RelationalStore.from_graph(yago_example_graph())
        encoding = StoreEncoding(store)
        assert encoding.tables_encoded == 0
        encoding.table("isLocatedIn")
        assert encoding.tables_encoded == 1
        assert len(store.edge_tables | store.node_tables) > 1

    def test_session_surfaces_tables_encoded(self):
        with _session() as session:
            session.execute(QUERY, "vec", rewrite=False)
            maintenance = session.cache_stats["maintenance"]
            assert maintenance.tables_encoded == 1


def test_table_from_memmap_is_zero_copy_views():
    kernel = _kernel()
    with SpillManager() as manager:
        mapped = manager.spill_anonymous("t", [[1, 2], [3, 4]], 2)
        table = table_from_memmap(kernel, mapped, 2)
        assert is_spilled(table)
        assert kernel.to_rows(table) == [(1, 3), (2, 4)]
