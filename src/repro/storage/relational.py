"""Relational storage of a property graph (paper §4, Fig. 11).

One table per edge label with columns ``(Sr, Tr)`` (foreign keys to source
and target node), one table per node label with key column ``Sr`` plus one
column per declared property. *Alias views* implement the paper's abstract
LDBC relations (``Organisation`` = Company ∪ University, ``Place`` = City ∪
Country ∪ Continent) so the Fig. 15-17 artefacts can be reproduced
verbatim.

Writes come in two kinds. **Appends** (:meth:`RelationalStore.add_rows`,
or ``add_table`` on an existing name) record a per-version delta that
:meth:`RelationalStore.delta_since` can replay, so derived caches —
dictionary encodings, compiled programs, statistics, cached result sets —
maintain themselves in O(delta). **Barrier writes** (new tables, new
alias views, :meth:`RelationalStore.replace_table`) admit no delta and
invalidate those caches wholesale, as every write used to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import EvaluationError
from repro.graph.model import PropertyGraph
from repro.schema.model import GraphSchema

Row = tuple

#: How many per-version delta-log entries a store retains. Reading a
#: delta across more versions than this returns None (treat as barrier);
#: the bound keeps long write streams from accumulating history nobody
#: will ever replay.
_DELTA_LOG_LIMIT = 64


@dataclass
class Table:
    """An in-memory relation: named columns over a set of rows."""

    name: str
    columns: tuple[str, ...]
    rows: set[Row] = field(default_factory=set)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def distinct_count(self, column: str) -> int:
        index = self.columns.index(column)
        return len({row[index] for row in self.rows})

    def column_values(self, column: str) -> set:
        index = self.columns.index(column)
        return {row[index] for row in self.rows}


class RelationalStore:
    """Node and edge tables derived from a property graph."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._tables: dict[str, Table] = {}
        self._aliases: dict[str, tuple[str, ...]] = {}
        self._alias_tables: dict[str, Table] = {}
        self._node_labels: set[str] = set()
        self._edge_labels: set[str] = set()
        self._version = 0
        #: True on stores produced by :meth:`snapshot_at` — every write
        #: entry point rejects mutation, so a pinned read view can never
        #: drift from the version it reconstructs.
        self._frozen = False
        #: ``(version_after, appended)`` per write. ``appended`` maps
        #: table/alias name -> the genuinely-new rows of that write; a
        #: ``None`` entry is a *barrier* (new table, new alias view,
        #: whole-table replacement) across which no delta exists.
        self._delta_log: list[tuple[int, dict[str, frozenset[Row]] | None]] = []

    @property
    def version(self) -> int:
        """Snapshot counter, bumped by every effective write.

        Derived caches (memoised statistics, dictionary encodings) key on
        ``(store, version)`` so they invalidate automatically when the
        content changes — unless :meth:`delta_since` can describe the
        change as an append-only delta, in which case they maintain
        themselves in place. No-op writes (re-adding rows or aliases the
        store already holds) do *not* move the counter. Mutating
        ``Table.rows`` directly bypasses the counter — write through
        ``add_table``/``add_rows`` instead.
        """
        return self._version

    def _assert_writable(self) -> None:
        if self._frozen:
            raise EvaluationError(
                f"store snapshot {self.name!r} is a read-only view pinned "
                f"at version {self._version}; write to the live store"
            )

    def _bump(self, appended: dict[str, frozenset[Row]] | None) -> None:
        """Advance the version; ``appended`` of None records a barrier."""
        self._version += 1
        self._delta_log.append((self._version, appended))
        if len(self._delta_log) > _DELTA_LOG_LIMIT:
            del self._delta_log[0]

    # -- loading -----------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: PropertyGraph,
        schema: GraphSchema | None = None,
        name: str | None = None,
    ) -> "RelationalStore":
        """Build the Fig. 11 representation of ``graph``.

        When a schema is supplied, node tables get one column per declared
        property (missing values become None); otherwise node tables are
        key-only.
        """
        store = cls(name or f"{graph.name}-relational")
        # When a schema is given, every schema label gets a table — even
        # empty ones — so queries over rare labels always resolve.
        node_labels = set(graph.node_labels)
        edge_labels = set(graph.edge_labels)
        if schema is not None:
            node_labels |= set(schema.node_labels)
            edge_labels |= set(schema.edge_labels)
        for label in sorted(node_labels):
            prop_keys: tuple[str, ...] = ()
            if schema is not None and schema.has_node_label(label):
                prop_keys = tuple(p.key for p in schema.node(label).properties)
            columns = ("Sr",) + prop_keys
            rows = set()
            for node_id in graph.nodes_with_label(label):
                props = graph.node_properties(node_id)
                rows.add((node_id,) + tuple(props.get(k) for k in prop_keys))
            store.add_table(Table(label, columns, rows), node_label=True)
        for label in sorted(edge_labels):
            rows = set(graph.edge_pairs(label))
            store.add_table(Table(label, ("Sr", "Tr"), rows), node_label=False)
        return store

    def add_table(self, table: Table, node_label: bool) -> None:
        """Register a new table, or *append* to an existing one.

        Re-adding a name that already exists with the same columns and
        the same node/edge classification appends the rows through
        :meth:`add_rows` (a zero-row append is version-neutral); any
        shape mismatch is rejected. A genuinely new table is a barrier
        write: caches cannot be maintained across it.
        """
        self._assert_writable()
        existing = self._tables.get(table.name)
        if existing is not None:
            if existing.columns != table.columns:
                raise EvaluationError(
                    f"table {table.name!r} already exists with columns "
                    f"{existing.columns}, cannot re-add with {table.columns}"
                )
            if (table.name in self._node_labels) != node_label:
                raise EvaluationError(
                    f"table {table.name!r} cannot switch between node and "
                    "edge classification"
                )
            self.add_rows(table.name, table.rows)
            return
        if table.name in self._aliases:
            raise EvaluationError(f"duplicate table name {table.name!r}")
        self._tables[table.name] = table
        self._alias_tables.clear()
        if node_label:
            self._node_labels.add(table.name)
        else:
            self._edge_labels.add(table.name)
        self._bump(None)

    def add_rows(self, name: str, rows: Iterable[Row]) -> int:
        """Append rows to an existing table; returns how many were new.

        The write is recorded as a retrievable per-version delta
        (:meth:`delta_since`), covering the table itself and any alias
        views whose key sets grow with it — derived caches maintain
        themselves from the delta instead of rebuilding. Appending only
        rows the table already holds is a no-op: the version counter
        does not move and no caches are disturbed.
        """
        self._assert_writable()
        if name in self._aliases:
            raise EvaluationError(f"cannot append to alias view {name!r}")
        table = self._tables.get(name)
        if table is None:
            raise EvaluationError(f"unknown table {name!r}")
        width = len(table.columns)
        fresh: set[Row] = set()
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise EvaluationError(
                    f"row of arity {len(row)} does not fit table {name!r} "
                    f"with columns {table.columns}"
                )
            if row not in table.rows:
                fresh.add(row)
        if not fresh:
            return 0
        appended: dict[str, frozenset[Row]] = {name: frozenset(fresh)}
        if name in self._node_labels:
            # Alias views union this table's keys: compute the genuinely
            # new keys against the *pre-append* materialisation, then
            # grow it in place so the view and its delta stay consistent.
            key_index = table.columns.index("Sr")
            new_keys = {(row[key_index],) for row in fresh}
            for alias, members in self._aliases.items():
                if name not in members:
                    continue
                view = self.table(alias)
                alias_fresh = frozenset(new_keys - view.rows)
                if alias_fresh:
                    view.rows |= alias_fresh
                    appended[alias] = alias_fresh
        table.rows |= fresh
        self._bump(appended)
        return len(fresh)

    def replace_table(self, table: Table) -> None:
        """Swap an existing table's contents wholesale (barrier write).

        Replacement can shrink or rewrite rows, so no append-only delta
        exists — every cache layered over the store falls back to full
        invalidation, exactly as before the incremental write path.
        """
        self._assert_writable()
        existing = self._tables.get(table.name)
        if existing is None:
            raise EvaluationError(f"unknown table {table.name!r}")
        if existing.columns != table.columns:
            raise EvaluationError(
                f"table {table.name!r} has columns {existing.columns}, "
                f"cannot replace with {table.columns}"
            )
        self._tables[table.name] = table
        self._alias_tables.clear()
        self._bump(None)

    def add_alias(self, name: str, member_labels: Iterable[str]) -> None:
        """Declare a union view over node tables (e.g. Organisation).

        Re-declaring an alias with its exact current member set is a
        version-neutral no-op; a new alias is a barrier write.
        """
        members = tuple(member_labels)
        if self._aliases.get(name) == members:
            return
        self._assert_writable()
        for member in members:
            if member not in self._tables:
                raise EvaluationError(
                    f"alias {name!r} references unknown table {member!r}"
                )
        if name in self._tables or name in self._aliases:
            raise EvaluationError(f"duplicate table name {name!r}")
        self._aliases[name] = members
        self._bump(None)

    def delta_since(self, version: int) -> dict[str, frozenset[Row]] | None:
        """The rows appended between ``version`` and the current version.

        Returns a mapping ``name -> frozenset(new rows)`` covering every
        changed table and alias view (``{}`` when nothing changed), or
        ``None`` when the interval is not an append-only delta: a
        barrier write occurred (new table/alias, replacement), the log
        was truncated or the version is unknown.
        """
        if version == self._version:
            return {}
        if version > self._version or version < 0:
            return None
        merged: dict[str, set[Row]] = {}
        covered = version
        for entry_version, appended in self._delta_log:
            if entry_version <= version:
                continue
            if entry_version != covered + 1 or appended is None:
                return None
            for name, rows in appended.items():
                merged.setdefault(name, set()).update(rows)
            covered = entry_version
        if covered != self._version:
            return None  # the log no longer reaches back to ``version``
        return {name: frozenset(rows) for name, rows in merged.items()}

    def snapshot_at(self, version: int) -> "RelationalStore | None":
        """A read-only view of this store as of ``version``.

        The snapshot-isolated read path of the serving tier: a read
        admitted at version ``v`` can still be answered over exactly the
        rows that existed at ``v`` after append-only writes moved the
        store on, by *subtracting* the append delta
        (:meth:`delta_since`) from the changed tables. Unchanged tables
        are shared with the live store by reference — callers must not
        interleave live writes with reads of a snapshot (the serving
        tier serialises both on one lock and discards snapshots as soon
        as the live version moves again).

        Returns ``self`` when ``version`` is current (the live store
        *is* the snapshot), a frozen reconstructed store otherwise, or
        ``None`` when no append-only delta covers the interval (barrier
        write, truncated log, unknown version) — the caller must then
        fall back to the live version.
        """
        if version == self._version:
            return self
        deltas = self.delta_since(version)
        if deltas is None:
            return None
        snapshot = RelationalStore(f"{self.name}@v{version}")
        snapshot._tables = {
            name: (
                Table(name, table.columns, set(table.rows) - deltas[name])
                if name in deltas
                else table
            )
            for name, table in self._tables.items()
        }
        # Alias views re-materialise lazily from the rolled-back member
        # tables, so delta entries for alias names need no handling here.
        snapshot._aliases = dict(self._aliases)
        snapshot._node_labels = set(self._node_labels)
        snapshot._edge_labels = set(self._edge_labels)
        snapshot._version = version
        snapshot._frozen = True
        return snapshot

    @property
    def is_snapshot(self) -> bool:
        """True on read-only views produced by :meth:`snapshot_at`."""
        return self._frozen

    # -- access -----------------------------------------------------------
    def has_table(self, name: str) -> bool:
        return name in self._tables or name in self._aliases

    def table(self, name: str) -> Table:
        """Resolve a table or alias view (alias rows are key-only).

        Alias union tables are materialised on first access and reused —
        they sit on the hot path of every semi-join against an abstract
        LDBC relation. ``add_table`` invalidates the materialisation.
        """
        if name in self._tables:
            return self._tables[name]
        if name in self._aliases:
            cached = self._alias_tables.get(name)
            if cached is not None:
                return cached
            rows: set[Row] = set()
            for member in self._aliases[name]:
                member_table = self._tables[member]
                index = member_table.columns.index("Sr")
                rows.update((row[index],) for row in member_table.rows)
            table = Table(name, ("Sr",), rows)
            self._alias_tables[name] = table
            return table
        raise EvaluationError(f"unknown table {name!r}")

    def node_ids(self, label: str) -> frozenset[int]:
        """Key set of a node table or alias."""
        table = self.table(label)
        return frozenset(table.column_values("Sr"))

    @property
    def node_tables(self) -> frozenset[str]:
        return frozenset(self._node_labels)

    @property
    def edge_tables(self) -> frozenset[str]:
        return frozenset(self._edge_labels)

    @property
    def aliases(self) -> Mapping[str, tuple[str, ...]]:
        return dict(self._aliases)

    def is_node_table(self, name: str) -> bool:
        return name in self._node_labels or name in self._aliases

    # -- statistics (feeds the Fig. 17 cost model) -------------------------
    def row_count(self, name: str) -> int:
        return self.table(name).row_count

    def distinct_count(self, name: str, column: str) -> int:
        return self.table(name).distinct_count(column)

    def stats(self) -> dict[str, int]:
        node_rows = sum(self._tables[t].row_count for t in self._node_labels)
        edge_rows = sum(self._tables[t].row_count for t in self._edge_labels)
        return {
            "node_tables": len(self._node_labels),
            "edge_tables": len(self._edge_labels),
            "node_rows": node_rows,
            "edge_rows": edge_rows,
        }
