"""Executable SQL backend on the stdlib ``sqlite3``.

This is the one *real* database system available offline: the relational
store is loaded into an in-memory SQLite database (node tables with a
primary key on ``Sr``, edge tables with a composite primary key and a
reverse index, alias views for the abstract LDBC relations), and the SQL
produced by :mod:`repro.sql.generate` is executed as-is.
"""

from __future__ import annotations

import sqlite3

from repro.errors import EvaluationError, QueryTimeout
from repro.graph.evaluator import EvalBudget, as_budget
from repro.query.model import UCQT
from repro.ra.translate import TranslationContext
from repro.sql.generate import ucqt_to_sql
from repro.storage.relational import RelationalStore
from repro.testing.faults import fault_point


def _connect() -> sqlite3.Connection:
    # Not pinned to the opening thread: the serving tier holds its
    # session lock around every use, and a served read degrading from
    # vec/ra reaches sqlite on whichever worker thread the failed run
    # was on.
    return sqlite3.connect(":memory:", check_same_thread=False)


class SqliteBackend:
    """An in-memory SQLite database loaded from a relational store."""

    def __init__(self, store: RelationalStore):
        self.store = store
        self.version = store.version
        self.connection = _connect()
        self._load()

    # -- loading -----------------------------------------------------------
    def _load(self) -> None:
        cursor = self.connection.cursor()
        for name in sorted(self.store.node_tables):
            table = self.store.table(name)
            column_defs = ", ".join(
                f"{c} INTEGER PRIMARY KEY" if c == "Sr" else f"{c}"
                for c in table.columns
            )
            cursor.execute(f"CREATE TABLE {name} ({column_defs})")
            placeholders = ", ".join("?" for _ in table.columns)
            cursor.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})", list(table.rows)
            )
        for name in sorted(self.store.edge_tables):
            table = self.store.table(name)
            cursor.execute(
                f"CREATE TABLE {name} (Sr INTEGER, Tr INTEGER, "
                f"PRIMARY KEY (Sr, Tr)) WITHOUT ROWID"
            )
            cursor.executemany(
                f"INSERT INTO {name} VALUES (?, ?)", list(table.rows)
            )
            cursor.execute(f"CREATE INDEX idx_{name}_tr ON {name} (Tr)")
        for alias, members in sorted(self.store.aliases.items()):
            union_sql = " UNION ".join(f"SELECT Sr FROM {m}" for m in members)
            cursor.execute(f"CREATE VIEW {alias} AS {union_sql}")
        cursor.execute("ANALYZE")
        self.connection.commit()

    def sync(self) -> None:
        """Catch the database up with the store after writes.

        Append-only store deltas are replayed as ``INSERT OR IGNORE``
        into the already-loaded tables (alias views recompute from their
        members, so alias entries in the delta need no work of their
        own); barrier writes (new tables, replacements) rebuild the
        whole in-memory database.
        """
        store = self.store
        if self.version == store.version:
            return
        deltas = store.delta_since(self.version)
        if deltas is None:
            fault_point("snapshot.rebuild.sqlite")
            self.connection.close()
            self.connection = _connect()
            self._load()
        else:
            cursor = self.connection.cursor()
            aliases = store.aliases
            for name in sorted(deltas):
                if name in aliases:
                    continue
                rows = deltas[name]
                if not rows:
                    continue
                placeholders = ", ".join("?" for _ in next(iter(rows)))
                cursor.executemany(
                    f"INSERT OR IGNORE INTO {name} VALUES ({placeholders})",
                    list(rows),
                )
            self.connection.commit()
        self.version = store.version

    # -- execution -----------------------------------------------------------
    def execute_sql(
        self,
        sql: str,
        timeout_seconds: float | EvalBudget | None = None,
    ) -> frozenset[tuple]:
        """Run a query, returning the result rows as a frozen set.

        ``timeout_seconds`` is a plain float or a full
        :class:`~repro.graph.evaluator.EvalBudget`/``ResourceBudget``.
        The wall clock is enforced inside SQLite's own VM via a progress
        handler — matching the cooperative-deadline behaviour of the
        in-process engines even when a statement never yields a row —
        and row/byte caps are charged as results are fetched in chunks.
        """
        budget = as_budget(timeout_seconds)
        governed = budget.seconds is not None
        if governed:
            # The handler must not raise through the C layer; returning
            # non-zero interrupts the statement, surfaced below as an
            # OperationalError("interrupted").
            self.connection.set_progress_handler(
                lambda: 1 if budget.expired else 0, 4_000
            )
        try:
            cursor = self.connection.execute(sql)
            rows: list[tuple] = []
            while True:
                chunk = cursor.fetchmany(1024)
                if not chunk:
                    break
                budget.tick(len(chunk))
                budget.charge_bytes(len(chunk) * len(chunk[0]) * 8)
                rows.extend(tuple(row) for row in chunk)
            return frozenset(rows)
        except sqlite3.OperationalError as error:
            if "interrupted" in str(error):
                raise QueryTimeout(budget.seconds or 0.0) from error
            raise EvaluationError(f"SQLite rejected the query: {error}") from error
        finally:
            if governed:
                self.connection.set_progress_handler(None, 0)

    def execute_ucqt(
        self,
        query: UCQT,
        timeout_seconds: float | EvalBudget | None = None,
        ctx: TranslationContext | None = None,
    ) -> frozenset[tuple]:
        """Translate a UCQT to SQL and run it."""
        if query.is_empty:
            return frozenset()
        sql = ucqt_to_sql(query, self.store, ctx)
        return self.execute_sql(sql, timeout_seconds)

    def explain_query_plan(self, sql: str) -> str:
        """SQLite's own EXPLAIN QUERY PLAN output (plan-level inspection)."""
        cursor = self.connection.execute(f"EXPLAIN QUERY PLAN {sql}")
        lines = [f"{row[0]:>4} {row[1]:>4} {row[3]}" for row in cursor.fetchall()]
        return "\n".join(lines)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
