"""Dictionary encoding of store values into dense integer ids.

Columnar operators work on integer codes only: every node id, string and
property constant in a :class:`~repro.storage.relational.RelationalStore`
is interned into one store-wide :class:`ValueDictionary` (store-wide, not
per-column, so natural-join key columns from different tables share a code
space and joins compare raw integers).

Encodings are *append-only*: :func:`encoding_for` caches one
:class:`StoreEncoding` per store; when the store's ``version`` counter
moves across an append-only write
(:meth:`~repro.storage.relational.RelationalStore.delta_since`), the
delta rows are encoded into the existing snapshot — existing codes
survive, new constants get fresh codes, and the cost is O(delta), not
O(store). Only barrier writes (new tables, replacements) rebuild the
snapshot. Individual tables are encoded lazily on first scan and the
encoded columns are additionally cached per kernel, so repeated
executions touch no Python-object hashing at all. The numpy kernel's
cached table also keeps the join layout of each key column it has been
joined on (:func:`repro.exec.kernels_numpy.from_columns`); an append
to the table drops that cache entry and with it the layouts, while one
to another table, even one that grows the dictionary, leaves them
valid.

The same cache keeps the closure ``R+`` the executor built on a table
``R`` (:meth:`EncodedTable.keep_closure`), a stored table with layouts
of its own; an append to ``R`` drops it with the layouts.
"""

from __future__ import annotations

import weakref
from weakref import WeakKeyDictionary

from repro.storage.relational import RelationalStore


class ValueDictionary:
    """Bidirectional mapping between values and dense integer codes.

    Codes are assigned in first-seen order starting at 0; ``decode`` is a
    plain index into ``values``, which only ever grows (a holder of codes
    can keep the list and decode later). Values must be hashable (node
    ids, strings, numbers and ``None`` — all a store row can hold).
    """

    __slots__ = ("_codes", "values")

    def __init__(self) -> None:
        self._codes: dict = {}
        self.values: list = []

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, value) -> int:
        """Return the code for ``value``, interning it if new."""
        code = self._codes.get(value)
        if code is None:
            code = len(self.values)
            self._codes[value] = code
            self.values.append(value)
        return code

    def lookup(self, value) -> int | None:
        """The code for ``value`` if already interned, else None."""
        return self._codes.get(value)

    def decode(self, code: int):
        return self.values[code]

    def decode_row(self, row) -> tuple:
        values = self.values
        return tuple(values[code] for code in row)


class EncodedTable:
    """One store table as columns of integer codes."""

    __slots__ = ("name", "columns", "codes", "nrows", "_kernel_tables")

    def __init__(
        self,
        name: str,
        columns: tuple[str, ...],
        codes: list[list[int]],
        nrows: int,
    ):
        self.name = name
        self.columns = columns
        self.codes = codes
        self.nrows = nrows
        self._kernel_tables: dict[str, object] = {}

    def kernel_table(self, kernel):
        """The kernel-native column container (cached per kernel, and
        with it any join layouts the kernel keeps on it)."""
        table = self._kernel_tables.get(kernel.NAME)
        if table is None:
            table = kernel.from_columns(self.codes, self.nrows)
            self._kernel_tables[kernel.NAME] = table
        return table

    def closure(self, slot: tuple):
        """The closure kept under ``slot`` (kernel name, shape), or None."""
        return self._kernel_tables.get(slot)

    def keep_closure(self, slot: tuple, kernel, total):
        """Keep ``total``, a closure of this table, as a stored table
        (arrays wrapped, not copied), published by one assignment."""
        table = kernel.from_columns(total.cols, total.n)
        self._kernel_tables[slot] = table
        return table


class StoreEncoding:
    """Dictionary-encoded snapshot of one relational store."""

    def __init__(self, store: RelationalStore):
        # Weak, so the cache entry in ``_ENCODINGS`` (whose value this
        # snapshot is) cannot pin its own key alive forever.
        self._store_ref = weakref.ref(store)
        self.version = store.version
        self.dictionary = ValueDictionary()
        self._tables: dict[str, EncodedTable] = {}
        #: Cumulative rows folded in by :meth:`apply_delta` (the
        #: ``encoding_appends`` maintenance counter).
        self.appended_rows = 0

    @property
    def store(self) -> RelationalStore:
        store = self._store_ref()
        if store is None:  # pragma: no cover - caller always holds the store
            raise ReferenceError("the encoded store no longer exists")
        return store

    def table(self, name: str) -> EncodedTable:
        """Encode (once) and return the named table or alias view."""
        encoded = self._tables.get(name)
        if encoded is None:
            table = self.store.table(name)
            encode = self.dictionary.encode
            codes: list[list[int]] = [[] for _ in table.columns]
            for row in table.rows:
                for position, value in enumerate(row):
                    codes[position].append(encode(value))
            encoded = EncodedTable(
                name, table.columns, codes, table.row_count
            )
            self._tables[name] = encoded
        return encoded

    def apply_delta(
        self, deltas: dict[str, frozenset], version: int
    ) -> None:
        """Fold an append-only store delta into this snapshot in place.

        Already-encoded tables get the delta rows appended column-wise
        (new constants are interned, existing codes are untouched);
        tables not yet encoded stay lazy and will read the full current
        contents on first scan. Per-kernel column caches of the changed
        tables are dropped — they rebuild from the appended code lists.
        """
        encode = self.dictionary.encode
        for name, rows in deltas.items():
            encoded = self._tables.get(name)
            if encoded is None:
                continue  # still lazy: first scan encodes the new rows too
            codes = encoded.codes
            for row in rows:
                for position, value in enumerate(row):
                    codes[position].append(encode(value))
            encoded.nrows += len(rows)
            encoded._kernel_tables.clear()
            self.appended_rows += len(rows)
        self.version = version

    @property
    def domain_size(self) -> int:
        """Number of interned values (the base for key packing)."""
        return max(len(self.dictionary), 1)

    @property
    def tables_encoded(self) -> int:
        """How many tables this snapshot has actually encoded.

        Encoding is lazy per table (:meth:`table` runs on first scan
        only), so a query touching a 2-table slice of a 50-table schema
        keeps this at 2 — the ``tables_encoded`` cache counter asserts
        exactly that.
        """
        return len(self._tables)


_ENCODINGS: "WeakKeyDictionary[RelationalStore, StoreEncoding]" = (
    WeakKeyDictionary()
)


def encoding_for(store: RelationalStore) -> StoreEncoding:
    """The cached encoding for ``store``, maintained across appends.

    A version mismatch is first reconciled through
    :meth:`RelationalStore.delta_since`: append-only writes are folded
    into the existing snapshot (codes survive, cost O(delta)); barrier
    writes rebuild from scratch.
    """
    encoding = _ENCODINGS.get(store)
    if encoding is None or encoding.version != store.version:
        deltas = (
            None if encoding is None else store.delta_since(encoding.version)
        )
        if deltas is not None:
            encoding.apply_delta(deltas, store.version)
        else:
            encoding = StoreEncoding(store)
            _ENCODINGS[store] = encoding
    return encoding


def encoding_appends(store: RelationalStore) -> int:
    """Rows folded into ``store``'s live encoding by append-only deltas
    (0 when no encoding exists yet)."""
    encoding = _ENCODINGS.get(store)
    return encoding.appended_rows if encoding is not None else 0


def tables_encoded(store: RelationalStore) -> int:
    """Tables ``store``'s live encoding has actually materialised
    (0 when no encoding exists yet) — the lazy-encoding counter."""
    encoding = _ENCODINGS.get(store)
    return encoding.tables_encoded if encoding is not None else 0


def closures_kept(store: RelationalStore) -> int:
    """Closures ``store``'s live encoding keeps, as of the last execution
    (copied first: another thread may be adding)."""
    encoding = _ENCODINGS.get(store)
    tables = [] if encoding is None else list(encoding._tables.values())
    return sum(isinstance(s, tuple) for t in tables for s in list(t._kernel_tables))
