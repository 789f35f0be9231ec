"""Tests for :mod:`repro.ra.stats`: the ``with_rows`` zero-row guard,
the constant fixpoint growth and the ``StoreStatistics`` snapshot
lifecycle (memoisation, version invalidation, the append carry, weakref
retirement)."""

from __future__ import annotations

import gc

import pytest

from repro.ra import stats as stats_module
from repro.ra.stats import (
    FIXPOINT_GROWTH,
    Estimate,
    Estimator,
    store_statistics,
)
from repro.ra.terms import Fix, Rel, Var
from repro.storage.relational import RelationalStore, Table


def _store(rows=((1, 10), (2, 20), (3, 30))) -> RelationalStore:
    store = RelationalStore("stats-test")
    store.add_table(
        Table("edge", ("Sr", "Tr"), set(rows)), node_label=False
    )
    return store


# -- Estimate.with_rows ------------------------------------------------------
class TestWithRows:
    def test_zero_base_rows_scales_to_new_count(self):
        """Regression: a zero-row estimate used to clamp every distinct
        count to 1 whatever the new row count (scale factor silently
        0.0)."""
        empty = Estimate(0.0, (("x", 0.0), ("y", 0.0)))
        grown = empty.with_rows(10.0)
        assert grown.rows == 10.0
        # Unknown (zero) distinct counts default to the row count, not 1.
        assert grown.ndv("x") == 10.0
        assert grown.ndv("y") == 10.0

    def test_zero_base_rows_keeps_known_distincts(self):
        partial = Estimate(0.0, (("x", 3.0),))
        assert partial.with_rows(10.0).ndv("x") == 3.0
        # ...but never above the new row count.
        assert partial.with_rows(2.0).ndv("x") == 2.0

    def test_scaling_to_zero_rows_zeroes_distincts(self):
        estimate = Estimate(100.0, (("x", 40.0),))
        shrunk = estimate.with_rows(0.0)
        assert shrunk.rows == 0.0
        assert shrunk.ndv("x") == 0.0

    def test_nonzero_scaling_unchanged(self):
        estimate = Estimate(100.0, (("x", 40.0),))
        half = estimate.with_rows(50.0)
        assert half.rows == 50.0
        assert half.ndv("x") == pytest.approx(20.0)
        grown = estimate.with_rows(200.0)
        assert grown.ndv("x") == 40.0  # growth never inflates NDV


# -- the constant fixpoint growth --------------------------------------------
def _closure() -> Fix:
    return Fix("X", Rel("edge"), Var("X", ("Sr", "Tr")))


class TestFixpointGrowth:
    def test_deleted_environment_default_changes_nothing(self, monkeypatch):
        # No process-wide spelling of the growth stays behind.
        monkeypatch.setenv("REPRO_FIXPOINT_GROWTH", "9")
        estimator = Estimator(_store())
        assert estimator.rows(_closure()) == FIXPOINT_GROWTH * 3

    def test_estimator_uses_growth(self):
        estimator = Estimator(_store())
        closure = _closure()
        assert estimator.rows(closure) == pytest.approx(
            FIXPOINT_GROWTH * estimator.rows(closure.base)
        )


# -- StoreStatistics lifecycle ----------------------------------------------
class TestStoreStatisticsLifecycle:
    def test_memoisation_hits(self):
        """Counts are scanned once per snapshot, then served from memory
        (mutating Table.rows directly bypasses the version counter, so
        the stale cached value proves the memo hit)."""
        store = _store()
        snapshot = store_statistics(store)
        assert snapshot.row_count("edge") == 3
        assert snapshot.distinct_count("edge", "Sr") == 3
        store.table("edge").rows.add((4, 40))  # hidden mutation
        assert snapshot.row_count("edge") == 3  # memoised
        assert snapshot.distinct_count("edge", "Sr") == 3
        assert store_statistics(store) is snapshot  # same version, same snapshot

    def test_version_bump_retires_snapshot(self):
        store = _store()
        first = store_statistics(store)
        assert first.row_count("edge") == 3
        store.add_table(
            Table("other", ("Sr", "Tr"), {(7, 8)}), node_label=False
        )
        second = store_statistics(store)
        assert second is not first
        assert second.version == store.version
        assert second.row_count("other") == 1

    def test_append_carries_corrections_forward(self):
        """Append-only writes do not rescan what they cannot have moved:
        row memos advance by exactly the delta size."""
        store = _store()
        first = store_statistics(store)
        assert first.row_count("edge") == 3
        assert first.distinct_count("edge", "Sr") == 3
        store.add_rows("edge", [(4, 40), (5, 50)])
        second = store_statistics(store)
        assert second is not first
        assert second.version == store.version
        assert second._rows["edge"] == 5  # memo advanced, no rescan
        # NDV memos of changed tables are dropped and rescan lazily.
        assert ("edge", "Sr") not in second._ndv
        assert second.distinct_count("edge", "Sr") == 5

    def test_append_keeps_unchanged_table_memos(self):
        store = _store()
        store.add_table(
            Table("other", ("Sr", "Tr"), {(7, 8)}), node_label=False
        )
        first = store_statistics(store)
        assert first.distinct_count("other", "Sr") == 1
        store.add_rows("edge", [(4, 40)])
        second = store_statistics(store)
        assert second._ndv[("other", "Sr")] == 1

    def test_barrier_write_starts_clean(self):
        store = _store()
        first = store_statistics(store)
        assert first.row_count("edge") == 3
        assert first.distinct_count("edge", "Sr") == 3
        store.replace_table(Table("edge", ("Sr", "Tr"), {(4, 40)}))
        second = store_statistics(store)
        assert not second._rows and not second._ndv
        assert second.row_count("edge") == 1

    def test_weakref_retirement(self):
        store = _store()
        store_statistics(store)
        assert store in stats_module._STATISTICS
        del store
        gc.collect()
        assert len(stats_module._STATISTICS) == 0 or all(
            s.name != "stats-test" for s in stats_module._STATISTICS
        )

    def test_snapshot_does_not_pin_store(self):
        store = _store()
        snapshot = store_statistics(store)
        del store
        gc.collect()
        with pytest.raises(ReferenceError):
            snapshot.row_count("edge")
