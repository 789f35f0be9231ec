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
pass per column over its codes, then one ``zip``.

Codes handed out stay valid for ever: the dictionary only appends, and
operators build new column containers instead of mutating old ones, so
an answer read after later writes still decodes to the rows it had.

The type compares and hashes like the ``frozenset`` it replaces, in
both directions; ``to_rows()`` (or ``frozenset(answer)``) returns that
object for callers that want it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence, Set
from typing import Any


def _code_list(column) -> list[int]:
    """One coded column as Python ints (a numpy array converts in one
    call, a list is returned as it is)."""
    tolist = getattr(column, "tolist", None)
    return column if tolist is None else tolist()


def _ranked_rows(columns: Sequence, values: Sequence) -> list[list]:
    """The sorted rows of coded columns, decoding each distinct code once.

    Per column, distinct codes are ranked by value (distinct codes are
    distinct values, so ranks order as values do). A row is then one
    integer, its ranks packed first column most significant: sorting
    those sorts the rows as value tuples without a tuple per row, and
    they unpack column by column straight into values.
    """
    value_of = values.__getitem__
    ranked_values: list[list] = []
    keys: list[int] = []
    for column in columns:
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
    decoded: list[list] = []
    for ranked in ranked_values[:0:-1]:
        base = len(ranked)
        decoded.append([ranked[key % base] for key in keys])
        keys = [key // base for key in keys]
    decoded.append([ranked_values[0][key] for key in keys])
    return list(map(list, zip(*reversed(decoded))))


class ResultSet(Set):
    """An immutable set of rows, decoded on first read."""

    __slots__ = ("table", "_values", "_count", "_rows")

    def __init__(self, table: Any, values: Sequence):
        #: The coded root as its kernel built it (None: wrapped rows).
        self.table: Any = table
        self._values: Any = values
        # A zero-column relation holds the empty row at most once.
        self._count = table.n if table.cols else min(table.n, 1)
        self._rows: frozenset[tuple] | None = None

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ResultSet":
        """Wrap rows that never were coded (``sqlite``/``gdb``/
        ``reference``)."""
        answer = cls.__new__(cls)
        answer.table = answer._values = None
        answer._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        answer._count = len(answer._rows)
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
                lookup = self._values.__getitem__
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
        (:func:`_ranked_rows`); a column whose values do not order among
        themselves takes the row-wise path, whose order is the reference.
        """
        if self.table is not None and self.table.cols:
            try:
                return _ranked_rows(self.table.cols, self._values)
            except TypeError:
                pass
        try:
            ordered = sorted(self.to_rows())
        except TypeError:
            ordered = sorted(self.to_rows(), key=repr)
        return [list(row) for row in ordered]

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
