"""Pure-Python columnar kernels (no third-party dependencies).

Operates column-at-a-time over plain lists of integer codes. Slower than
the numpy kernels but still batch-oriented (tight comprehensions over
integer columns, dict-of-int hash joins), and always available — the
``vec`` backend degrades to this module when numpy is not installed.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable


class PyTable:
    """Columns of integer codes over an explicit row count."""

    __slots__ = ("cols", "n")

    def __init__(self, cols: list[list[int]], n: int):
        self.cols = cols
        self.n = n


NAME = "python"


def from_columns(codes: list[list[int]], nrows: int) -> PyTable:
    return PyTable([list(column) for column in codes], nrows)


def from_rows(rows: Iterable[tuple[int, ...]], width: int) -> PyTable:
    listed = list(rows)
    if not listed:
        return empty(width)
    return PyTable([list(column) for column in zip(*listed)], len(listed))


def to_rows(table: PyTable) -> list[tuple[int, ...]]:
    if not table.cols:
        return [()] * table.n
    return list(zip(*table.cols))


def nrows(table: PyTable) -> int:
    return table.n


def width(table: PyTable) -> int:
    return len(table.cols)


def empty(width: int) -> PyTable:
    return PyTable([[] for _ in range(width)], 0)


def release(table: PyTable) -> PyTable:
    """Nothing to drop: this kernel's tables carry no scratch."""
    return table


def select_columns(table: PyTable, indices: list[int]) -> PyTable:
    return PyTable([table.cols[i] for i in indices], table.n)


def concat_many(tables: list[PyTable], width: int) -> PyTable:
    """Stack same-width tables in one pass per column."""
    tables = [table for table in tables if table.n]
    if not tables:
        return empty(width)
    if len(tables) == 1:
        return tables[0]
    cols: list[list[int]] = []
    for i in range(width):
        merged: list[int] = []
        for table in tables:
            merged.extend(table.cols[i])
        cols.append(merged)
    return PyTable(cols, sum(table.n for table in tables))


def distinct(table: PyTable, domain: int) -> PyTable:
    unique = set(to_rows(table))
    if len(unique) == table.n:
        return table
    return from_rows(unique, len(table.cols))


def select_eq(table: PyTable, index_a: int, index_b: int) -> PyTable:
    column_a = table.cols[index_a]
    column_b = table.cols[index_b]
    keep = [i for i, (a, b) in enumerate(zip(column_a, column_b)) if a == b]
    cols = [[column[i] for i in keep] for column in table.cols]
    return PyTable(cols, len(keep))


def concat(left: PyTable, right: PyTable) -> PyTable:
    cols = [a + b for a, b in zip(left.cols, right.cols)]
    return PyTable(cols, left.n + right.n)


class JoinBuild:
    """The hashed build side of a join.

    A counting layout, not a list per key: the build rows of key ``k``
    are ``order[starts[k]:ends[k]]``. Two dicts of ints and one flat
    list leave the cyclic collector nothing to traverse.
    """

    __slots__ = ("table", "starts", "ends", "order")

    def __init__(self, table: PyTable, starts: dict, ends: dict, order: list):
        self.table = table
        self.starts = starts
        self.ends = ends
        self.order = order


def _join_keys(table: PyTable, key: list[int]):
    """One hashable per row: the code itself for a single key column
    (no tuple per row), else the tuple of the key columns' codes."""
    if len(key) == 1:
        return table.cols[key[0]]
    return to_rows(select_columns(table, key))


def join_build(build: PyTable, key: list[int], domain: int) -> JoinBuild:
    """Hash the build side's key columns once."""
    keys = _join_keys(build, key)
    starts: dict = {}
    total = 0
    for row_key, count in Counter(keys).items():
        starts[row_key] = total
        total += count
    order = [0] * total
    ends = dict(starts)  # each key's next free slot; its run's end when done
    for position, row_key in enumerate(keys):
        slot = ends[row_key]
        order[slot] = position
        ends[row_key] = slot + 1
    return JoinBuild(build, starts, ends, order)


def join_probe(
    handle: JoinBuild,
    probe: PyTable,
    probe_key: list[int],
    layout: list[tuple[int, int]],
    build_side: int,
    domain: int,
) -> PyTable:
    """Probe a prepared build side."""
    build = handle.table
    starts, ends, order = handle.starts, handle.ends, handle.order
    find = starts.get
    probe_idx: list[int] = []
    build_idx: list[int] = []
    for position, row_key in enumerate(_join_keys(probe, probe_key)):
        start = find(row_key)
        if start is not None:
            end = ends[row_key]
            probe_idx.extend([position] * (end - start))
            build_idx.extend(order[start:end])

    out_cols: list[list[int]] = []
    for side, column_index in layout:
        if side == build_side:
            source, idx = build.cols[column_index], build_idx
        else:
            source, idx = probe.cols[column_index], probe_idx
        out_cols.append([source[i] for i in idx])
    return PyTable(out_cols, len(probe_idx))


def join(
    left: PyTable,
    right: PyTable,
    left_key: list[int],
    right_key: list[int],
    layout: list[tuple[int, int]],
    domain: int,
) -> PyTable:
    """Natural join; ``layout`` maps output columns to (side, column)."""
    # Build the hash table on the smaller side.
    if left.n <= right.n:
        build, probe = left, right
        build_key, probe_key = left_key, right_key
        build_side = 0
    else:
        build, probe = right, left
        build_key, probe_key = right_key, left_key
        build_side = 1

    handle = join_build(build, build_key, domain)
    return join_probe(handle, probe, probe_key, layout, build_side, domain)


def empty_state():
    return set()


def difference(table: PyTable, state: set, domain: int):
    """Rows of ``table`` not yet in ``state``; updates and returns state."""
    fresh = [row for row in set(to_rows(table)) if row not in state]
    state.update(fresh)
    return from_rows(fresh, len(table.cols)), state
