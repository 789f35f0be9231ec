"""``ResultSet`` — the one answer shape, columnar until someone reads it.

Every backend answers with a :class:`ResultSet`: an immutable
:class:`collections.abc.Set` of head-ordered row tuples. Answers of the
columnar layer (``ra``/``vec``) own the root operator's *coded* table
(kernel-native: ``cols`` of integer codes over ``n`` rows) plus the
store's append-only value list and stay in that form — the form the
result cache keeps, maintenance appends to and the HTTP tier serialises
from — until a caller iterates, compares or hashes them. ``len`` is the
root's row count (the compiler's root is duplicate-free) and touches no
value. Materialisation happens at most once and column-wise: one lookup
pass per column over its codes, then one ``zip``. The wire reads neither
rows nor tuples: ``json_rows()`` is the JSON text of the sorted rows,
written from the columns and kept on the answer.

Codes handed out stay valid for ever: the dictionary only appends, and
operators build new column containers instead of mutating old ones, so
an answer read after later writes still decodes to the rows it had.

The type compares and hashes like the ``frozenset`` it replaces, in
both directions; ``to_rows()`` (or ``frozenset(answer)``) returns that
object for callers that want it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence, Set
from typing import Any


def _code_list(column) -> list[int]:
    """One coded column as Python ints (a numpy array converts in one
    call, a list is returned as it is)."""
    tolist = getattr(column, "tolist", None)
    return column if tolist is None else tolist()


def _json_texts(values: list) -> list[str]:
    """The JSON text of each value, from one encoder call: an encoded
    string never holds a raw newline, so a newline as item separator
    splits the array text back into its items. Values that are
    containers use the separator too; the count then disagrees and each
    value is encoded on its own."""
    texts = json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    if len(texts) != len(values):
        texts = [json.dumps(value, separators=(",", ":")) for value in values]
    return texts


def _sorted_ranks(table: Any, values: Sequence) -> tuple[list, list]:
    """Coded rows in sorted order without decoding a row: per column,
    its distinct values in order, and each sorted row's rank among them.

    Per column, distinct codes are ranked by value (distinct codes are
    distinct values, so ranks order as values do). A row is then one
    integer, its ranks packed first column most significant: sorting
    those sorts the rows as value tuples without a tuple per row, and
    they unpack column by column. A table that can do the same in array
    operations (``table.sorted_ranks``) does.
    """
    own = getattr(table, "sorted_ranks", None)
    done = own(values) if own is not None else None
    if done is not None:
        return done
    value_of = values.__getitem__
    ranked_values: list[list] = []
    keys: list[int] = []
    for column in table.cols:
        codes = _code_list(column)
        distinct = sorted(set(codes), key=value_of)  # TypeError: mixed
        rank_of = {code: rank for rank, code in enumerate(distinct)}
        ranked_values.append([value_of(code) for code in distinct])
        if len(ranked_values) == 1:
            keys = [rank_of[code] for code in codes]
        else:
            base = len(distinct)
            keys = [
                key * base + rank_of[code] for key, code in zip(keys, codes)
            ]
    keys.sort()
    ranks: list[list[int]] = []
    for ranked in ranked_values[:0:-1]:
        base = len(ranked)
        ranks.append([key % base for key in keys])
        keys = [key // base for key in keys]
    return ranked_values, [keys, *reversed(ranks)]


def _json_rows(ranked_values: list[list], ranks: list[list[int]]) -> str:
    """The JSON text of rows given as :func:`_sorted_ranks`. Each
    distinct value is encoded once, with the punctuation that follows a
    cell of its column; the text is then one join over all cells."""
    if not ranks[0]:
        return "[]"
    width = len(ranks)
    cells: list = [None] * (width * len(ranks[0]))
    for position, ranked in enumerate(ranked_values):
        opening = "[" if position == 0 else ""
        closing = "]," if position == width - 1 else ","
        texts = [f"{opening}{text}{closing}" for text in _json_texts(ranked)]
        cells[position::width] = map(texts.__getitem__, ranks[position])
    return "[" + "".join(cells)[:-1] + "]"


class ResultSet(Set):
    """An immutable set of rows, decoded on first read."""

    __slots__ = ("table", "values", "_count", "_rows", "_json")

    def __init__(self, table: Any, values: Sequence):
        #: The coded root as its kernel built it (None: wrapped rows).
        self.table: Any = table
        #: The store's append-only value list the codes index.
        self.values: Any = values
        # A zero-column relation holds the empty row at most once.
        self._count = table.n if table.cols else min(table.n, 1)
        self._rows: frozenset[tuple] | None = None
        self._json: str | None = None

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ResultSet":
        """Wrap rows that never were coded (``sqlite``/``reference``)."""
        answer = cls.__new__(cls)
        answer.table = answer.values = None
        answer._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        answer._count = len(answer._rows)
        answer._json = None
        return answer

    @classmethod
    def _from_iterable(cls, it: Iterable) -> frozenset:  # type: ignore[override]
        # What ``answer | other`` and the other set operators build.
        return frozenset(it)

    # -- reading -----------------------------------------------------------
    def to_rows(self) -> frozenset[tuple]:
        """The decoded rows; built once, column-wise."""
        rows = self._rows
        if rows is None:
            columns = self.table.cols
            if columns:
                lookup = self.values.__getitem__
                rows = frozenset(
                    zip(*(map(lookup, _code_list(c)) for c in columns))
                )
            else:
                rows = frozenset([()] * self._count)
            self._rows = rows
        return rows

    def sorted_rows(self) -> list[list]:
        """The rows as lists in sorted order: the deterministic form the
        wire carries. Mixed-type rows sort on ``repr`` as a total-order
        fallback — the order is presentation, not semantics.

        A coded answer is sorted and decoded from its columns
        (:func:`_sorted_ranks`); a column whose values do not order among
        themselves takes the row-wise path, whose order is the reference.
        """
        ranked = self._ranked()
        if ranked is not None:
            columns = (map(cells.__getitem__, r) for cells, r in zip(*ranked))
            return list(map(list, zip(*columns)))
        try:
            ordered = sorted(self.to_rows())
        except TypeError:
            ordered = sorted(self.to_rows(), key=repr)
        return [list(row) for row in ordered]

    def json_rows(self) -> str:
        """``json.dumps(self.sorted_rows(), separators=(",", ":"))``,
        character for character, built once and kept (the answer is
        immutable, and the result cache hands this object out again). A
        coded answer is rendered from its columns: no list per row, no
        encoder walk over the answer."""
        text = self._json
        if text is None:
            ranked = self._ranked()
            if ranked is not None:
                text = _json_rows(*ranked)
            else:
                text = json.dumps(self.sorted_rows(), separators=(",", ":"))
            self._json = text
        return text

    @property
    def json_built(self) -> bool:
        """Whether :meth:`json_rows` would return its kept text."""
        return self._json is not None

    def _ranked(self) -> tuple[list, list] | None:
        """:func:`_sorted_ranks` of a coded answer, or None where the
        row-wise order applies: rows that never were coded, no column,
        or a column whose values do not order among themselves."""
        if self.table is None or not self.table.cols:
            return None
        try:
            return _sorted_ranks(self.table, self.values)
        except TypeError:
            return None

    # -- collections.abc.Set -----------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.to_rows())

    def __contains__(self, row: object) -> bool:
        return row in self.to_rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        if len(other) != self._count:
            return False
        if isinstance(other, ResultSet):
            other = other.to_rows()
        return self.to_rows() == other

    def __hash__(self) -> int:
        return hash(self.to_rows())

    def __repr__(self) -> str:
        return f"ResultSet({set(self.to_rows()) or ''})"


#: The answer of a query the schema proves unsatisfiable.
EMPTY = ResultSet.from_rows(frozenset())
