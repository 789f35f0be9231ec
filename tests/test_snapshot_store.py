"""Pinned read views: ``RelationalStore.snapshot_at`` and the frozen
write guard — the storage half of the serving tier's snapshot-isolated
reads."""

import pytest

from repro.engine import BreakerConfig
from repro.engine.options import ExecOptions
from repro.engine.session import GraphSession
from repro.errors import EvaluationError
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.storage.relational import RelationalStore, Table
from repro.testing.faults import FaultInjector, FaultRule, install


def _store():
    store = RelationalStore("t")
    store.add_table(Table("City", ("Sr",), {(1,), (2,)}), node_label=True)
    store.add_table(
        Table("isLocatedIn", ("Sr", "Tr"), {(1, 2)}), node_label=False
    )
    return store


class TestSnapshotAt:
    def test_current_version_is_the_store_itself(self):
        store = _store()
        assert store.snapshot_at(store.version) is store

    def test_snapshot_sees_pre_write_rows(self):
        store = _store()
        pinned = store.version
        store.add_rows("isLocatedIn", [(2, 1)])
        snapshot = store.snapshot_at(pinned)
        assert snapshot is not None
        assert snapshot.table("isLocatedIn").rows == {(1, 2)}
        assert store.table("isLocatedIn").rows == {(1, 2), (2, 1)}

    def test_snapshot_version_is_the_pinned_one(self):
        store = _store()
        pinned = store.version
        store.add_rows("City", [(9,)])
        snapshot = store.snapshot_at(pinned)
        assert snapshot.version == pinned
        assert snapshot.is_snapshot
        assert not store.is_snapshot

    def test_unchanged_tables_are_shared_not_copied(self):
        store = _store()
        pinned = store.version
        store.add_rows("isLocatedIn", [(2, 1)])
        snapshot = store.snapshot_at(pinned)
        assert snapshot.table("City") is store.table("City")
        assert snapshot.table("isLocatedIn") is not store.table("isLocatedIn")

    def test_multi_version_delta_subtraction(self):
        store = _store()
        pinned = store.version
        store.add_rows("isLocatedIn", [(2, 1)])
        store.add_rows("isLocatedIn", [(2, 2)])
        store.add_rows("City", [(3,)])
        snapshot = store.snapshot_at(pinned)
        assert snapshot.table("isLocatedIn").rows == {(1, 2)}
        assert snapshot.table("City").rows == {(1,), (2,)}

    def test_barrier_write_defeats_reconstruction(self):
        store = _store()
        pinned = store.version
        store.replace_table(
            Table("isLocatedIn", ("Sr", "Tr"), {(7, 7)})
        )  # not append-only: a barrier
        assert store.snapshot_at(pinned) is None

    def test_snapshot_refuses_writes(self):
        store = _store()
        pinned = store.version
        store.add_rows("City", [(3,)])
        snapshot = store.snapshot_at(pinned)
        with pytest.raises(EvaluationError, match="read-only"):
            snapshot.add_rows("City", [(4,)])
        with pytest.raises(EvaluationError, match="read-only"):
            snapshot.add_table(Table("X", ("Sr",), {(1,)}), node_label=True)
        with pytest.raises(EvaluationError, match="read-only"):
            snapshot.replace_table(Table("City", ("Sr",), set()))

    def test_snapshot_preserves_aliases(self):
        store = _store()
        store.add_alias("Place", ("City",))
        pinned = store.version
        store.add_rows("City", [(3,)])
        snapshot = store.snapshot_at(pinned)
        assert snapshot.aliases == {"Place": ("City",)}
        assert snapshot.table("Place").rows == {(1,), (2,)}


class TestSnapshotSession:
    """``GraphSession.snapshot_session`` — the engine-layer wrapper."""

    CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"

    def _session(self):
        return GraphSession(yago_example_graph(), yago_example_schema())

    def test_current_version_returns_same_session(self):
        with self._session() as session:
            assert session.snapshot_session(session.store.version) is session

    @pytest.mark.parametrize("backend", ["ra", "vec"])
    def test_snapshot_session_answers_as_of_pinned_version(self, backend):
        with self._session() as session:
            before = session.execute(self.CLOSURE, backend)
            pinned = session.store.version
            session.store.add_rows("isLocatedIn", [(100, 101), (101, 102)])
            after = session.execute(self.CLOSURE, backend)
            assert after != before  # the write is visible live
            snapshot = session.snapshot_session(pinned)
            assert snapshot is not None and snapshot is not session
            try:
                assert snapshot.execute(self.CLOSURE, backend) == before
            finally:
                snapshot.close()

    def test_snapshot_session_none_after_barrier(self):
        with self._session() as session:
            pinned = session.store.version
            session.store.replace_table(
                Table("livesIn", ("Sr", "Tr"), {(2, 4)})
            )
            assert session.snapshot_session(pinned) is None

    def test_snapshot_read_degrades_under_the_live_resilience_state(self):
        # A read that straddled a write runs on a snapshot session. Its
        # failure must trip the live session's (the tenant's) breaker,
        # under the live config, and count in the live stats.
        config = BreakerConfig(failure_threshold=1, cooldown_seconds=600.0)
        with GraphSession(
            yago_example_graph(), yago_example_schema(),
            breaker_config=config, exec_options=ExecOptions(fallback=True),
        ) as session:
            before = session.execute(self.CLOSURE, "vec")
            pinned = session.store.version
            session.store.add_rows("isLocatedIn", [(100, 101), (101, 102)])
            snapshot = session.snapshot_session(pinned)
            try:
                with install(
                    FaultInjector([FaultRule("backend.execute.vec", limit=1)])
                ):
                    assert snapshot.execute(self.CLOSURE, "vec") == before
            finally:
                snapshot.close()
            stats = session.resilience_stats()
            assert stats["degraded"] == 1
            assert stats["breaker_opens"] == 1
            assert stats["breakers"]["vec"]["state"] == "open"
