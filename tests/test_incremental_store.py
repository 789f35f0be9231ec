"""The append-only write path of :class:`RelationalStore`.

Covers the delta log (merge, barriers, truncation), the version-neutral
no-op writes, and alias-view delta propagation — the storage substrate
everything in incremental maintenance builds on.
"""

import pytest

from repro.errors import EvaluationError
from repro.storage.relational import RelationalStore, Table, _DELTA_LOG_LIMIT


def _store():
    store = RelationalStore()
    store.add_table(Table("City", ("Sr",), {(1,), (2,)}), node_label=True)
    store.add_table(Table("Country", ("Sr",), {(3,)}), node_label=True)
    store.add_table(
        Table("isLocatedIn", ("Sr", "Tr"), {(1, 3)}), node_label=False
    )
    return store


class TestAppendDeltas:
    def test_add_rows_records_delta(self):
        store = _store()
        version = store.version
        added = store.add_rows("isLocatedIn", [(2, 3)])
        assert added == 1
        assert store.version == version + 1
        assert store.delta_since(version) == {
            "isLocatedIn": frozenset({(2, 3)})
        }
        assert store.table("isLocatedIn").rows == {(1, 3), (2, 3)}

    def test_deltas_merge_across_versions(self):
        store = _store()
        version = store.version
        store.add_rows("isLocatedIn", [(2, 3)])
        middle = store.version
        store.add_rows("City", [(4,)])
        assert store.delta_since(version) == {
            "isLocatedIn": frozenset({(2, 3)}),
            "City": frozenset({(4,)}),
        }
        assert store.delta_since(middle) == {"City": frozenset({(4,)})}
        assert store.delta_since(store.version) == {}

    def test_add_table_on_existing_name_appends(self):
        store = _store()
        version = store.version
        store.add_table(
            Table("isLocatedIn", ("Sr", "Tr"), {(2, 3)}), node_label=False
        )
        assert store.delta_since(version) == {
            "isLocatedIn": frozenset({(2, 3)})
        }

    def test_duplicate_rows_not_in_delta(self):
        store = _store()
        version = store.version
        assert store.add_rows("isLocatedIn", [(1, 3), (2, 3)]) == 1
        assert store.delta_since(version) == {
            "isLocatedIn": frozenset({(2, 3)})
        }

    def test_arity_mismatch_rejected(self):
        store = _store()
        with pytest.raises(EvaluationError):
            store.add_rows("isLocatedIn", [(1, 2, 3)])

    def test_append_to_alias_rejected(self):
        store = _store()
        store.add_alias("Place", ["City", "Country"])
        with pytest.raises(EvaluationError):
            store.add_rows("Place", [(9,)])

    def test_append_to_unknown_table_rejected(self):
        store = _store()
        with pytest.raises(EvaluationError):
            store.add_rows("nope", [(1,)])


class TestVersionNeutralWrites:
    def test_noop_append_keeps_version(self):
        store = _store()
        version = store.version
        assert store.add_rows("isLocatedIn", [(1, 3)]) == 0
        assert store.add_rows("City", []) == 0
        assert store.version == version

    def test_noop_add_table_keeps_version(self):
        store = _store()
        version = store.version
        store.add_table(Table("City", ("Sr",)), node_label=True)
        assert store.version == version

    def test_noop_alias_redeclaration_keeps_version(self):
        store = _store()
        store.add_alias("Place", ["City", "Country"])
        version = store.version
        store.add_alias("Place", ["City", "Country"])
        assert store.version == version
        with pytest.raises(EvaluationError):
            store.add_alias("Place", ["Country", "City"])


class TestBarriers:
    def test_new_table_is_barrier(self):
        store = _store()
        version = store.version
        store.add_table(Table("Company", ("Sr",)), node_label=True)
        assert store.delta_since(version) is None

    def test_new_alias_is_barrier(self):
        store = _store()
        version = store.version
        store.add_alias("Place", ["City", "Country"])
        assert store.delta_since(version) is None

    def test_replace_table_is_barrier(self):
        store = _store()
        version = store.version
        store.replace_table(Table("isLocatedIn", ("Sr", "Tr"), {(9, 9)}))
        assert store.delta_since(version) is None
        assert store.table("isLocatedIn").rows == {(9, 9)}
        with pytest.raises(EvaluationError):
            store.replace_table(Table("isLocatedIn", ("Sr",), {(9,)}))

    def test_barrier_then_append_still_blocks_older_reader(self):
        store = _store()
        version = store.version
        store.add_table(Table("Company", ("Sr",)), node_label=True)
        store.add_rows("City", [(7,)])
        assert store.delta_since(version) is None
        # A reader from after the barrier sees the append normally.
        assert store.delta_since(store.version - 1) == {
            "City": frozenset({(7,)})
        }

    def test_unknown_versions_blocked(self):
        store = _store()
        assert store.delta_since(store.version + 1) is None
        assert store.delta_since(-1) is None

    def test_log_truncation_reads_as_barrier(self):
        store = _store()
        version = store.version
        for step in range(_DELTA_LOG_LIMIT + 1):
            store.add_rows("City", [(100 + step,)])
        assert store.delta_since(version) is None
        assert store.delta_since(store.version - _DELTA_LOG_LIMIT) is not None


class TestAliasDeltas:
    def test_alias_views_grow_with_member_appends(self):
        store = _store()
        store.add_alias("Place", ["City", "Country"])
        assert store.table("Place").rows == {(1,), (2,), (3,)}
        version = store.version
        store.add_rows("City", [(4,)])
        assert store.table("Place").rows == {(1,), (2,), (3,), (4,)}
        assert store.delta_since(version) == {
            "City": frozenset({(4,)}),
            "Place": frozenset({(4,)}),
        }

    def test_alias_delta_excludes_keys_other_members_supply(self):
        store = _store()
        store.add_alias("Place", ["City", "Country"])
        store.table("Place")
        version = store.version
        # Key 3 is already in the view via Country: the City append must
        # not claim it as a new Place row.
        store.add_rows("City", [(3,)])
        assert store.delta_since(version) == {
            "City": frozenset({(3,)}),
        }
        assert store.table("Place").rows == {(1,), (2,), (3,)}
