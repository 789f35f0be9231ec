"""NumPy columnar kernels.

Tables are lists of ``int64`` arrays. Every code is a dense dictionary
id in ``[0, domain)``, which the kernels use twice. A single-column join
key *is* an array index: the build side is a counting layout over the
code domain (``bincount``, exclusive ``cumsum``, one stable ``order``)
and a probe is two gathers, nothing sorted or searched. And a row over
``k`` columns packs into the one integer ``c_0·domain^(k-1) + … + c_k``
whenever ``domain^k`` fits in an int64, so ``distinct`` is an in-place
``sort`` of the packed key, a neighbour mask and a ``divmod`` unpack of
the survivors, and ``difference`` one ``searchsorted`` of that sorted
key in the sorted state: ``distinct`` leaves the key on its table for
the ``difference`` that follows (every other constructor drops it;
:func:`release` strips it from a table that is kept). Multi-column join
keys sort the packed key once and binary-search it per probe row; rows
too wide to pack fall back to ``np.unique(axis=0)`` / tuple handling.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exec import kernels_python

NAME = "numpy"

#: Tables can be built over ``np.memmap`` column views — the out-of-core
#: spill path (:mod:`repro.exec.spill`) is available on this kernel.
SUPPORTS_MEMMAP = True

#: Packed keys must stay below this bound (headroom under 2^63 - 1).
_PACK_LIMIT = 1 << 62

#: A counting layout costs O(domain) to lay out, so a join build side
#: gets one only while ``domain <= 4 * rows + _DIRECT_SLACK``; a small
#: build side in a huge domain keeps the sorted layout.
_DIRECT_SLACK = 4096

_INT = np.int64


class NpTable:
    """Columns of integer codes over an explicit row count; fresh out
    of :func:`distinct`, also ``key = (domain, its sorted packed rows)``."""

    __slots__ = ("cols", "n", "key")

    def __init__(self, cols: list[np.ndarray], n: int, key=None):
        self.cols = cols
        self.n = n
        self.key = key

    def sorted_ranks(self, values) -> tuple[list, list] | None:
        """:func:`repro.exec.result._sorted_ranks` in array operations;
        None when the packed ranks would not fit an int64."""
        value_of = values.__getitem__
        ranked_values: list[list] = []
        key, span = np.zeros(self.n, dtype=_INT), 1
        for column in self.cols:
            distinct = np.unique(column)
            ranked = sorted(distinct.tolist(), key=value_of)  # TypeError
            span *= len(ranked) or 1
            if span >= _PACK_LIMIT:
                return None
            rank = np.empty(len(ranked), dtype=_INT)
            rank[np.searchsorted(distinct, ranked)] = np.arange(len(ranked))
            key = key * len(ranked) + rank[np.searchsorted(distinct, column)]
            ranked_values.append([value_of(code) for code in ranked])
        key.sort()
        ranks = []
        for ranked in ranked_values[:0:-1]:
            key, low = np.divmod(key, len(ranked))
            ranks.append(low.tolist())
        return ranked_values, [key.tolist(), *reversed(ranks)]


def release(table: NpTable) -> NpTable:
    """Drop the dedup key: ``table`` is about to outlive its round."""
    table.key = None
    return table


def from_columns(codes: list[list[int]], nrows: int) -> NpTable:
    return NpTable([np.asarray(column, dtype=_INT) for column in codes], nrows)


def from_rows(rows: Iterable[tuple[int, ...]], width: int) -> NpTable:
    data = np.asarray(list(rows), dtype=_INT)
    if not len(data):
        return empty(width)
    return NpTable([data[:, i] for i in range(width)], len(data))


def to_rows(table: NpTable) -> list[tuple[int, ...]]:
    if not table.cols:
        return [()] * table.n
    stacked = np.stack(table.cols, axis=1)
    return [tuple(row) for row in stacked.tolist()]


def nrows(table: NpTable) -> int:
    return table.n


def width(table: NpTable) -> int:
    return len(table.cols)


def empty(width: int) -> NpTable:
    return NpTable([np.empty(0, dtype=_INT) for _ in range(width)], 0)


def select_columns(table: NpTable, indices: list[int]) -> NpTable:
    return NpTable([table.cols[i] for i in indices], table.n)


def concat_many(tables: list[NpTable], width: int) -> NpTable:
    """Stack same-width tables with one concatenate per column."""
    tables = [table for table in tables if table.n]
    if not tables:
        return empty(width)
    if len(tables) == 1:
        return _keyless(tables[0])
    cols = [
        np.concatenate([table.cols[i] for table in tables])
        for i in range(width)
    ]
    return NpTable(cols, sum(table.n for table in tables))


def _keyless(table: NpTable) -> NpTable:
    return table if table.key is None else NpTable(table.cols, table.n)


def _pack(table: NpTable, indices: list[int], domain: int) -> np.ndarray | None:
    """Pack the keyed columns into one fresh int64 key array (None on
    overflow); a plain ndarray even over memmap columns."""
    span = 1
    for _ in indices:
        span *= domain
        if span >= _PACK_LIMIT:
            return None
    if not indices:
        return np.zeros(table.n, dtype=_INT)
    key = np.array(table.cols[indices[0]], dtype=_INT)
    for index in indices[1:]:
        key *= domain
        key += table.cols[index]
    return key


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """Sort ``key`` in place and return its distinct values, ascending
    (``key`` itself when it held no duplicate)."""
    key.sort()
    keep = np.concatenate(([True], key[1:] != key[:-1]))
    return key if keep.all() else key[keep]


def _unpacked(table: NpTable, key: np.ndarray, domain: int) -> NpTable:
    """The rows a subset ``key`` of ``table``'s packed row keys stands
    for, in key order; ``table``'s own columns when it is all of them."""
    if len(key) == table.n:
        return NpTable(table.cols, table.n)
    cols = [key] * len(table.cols)
    for i in range(len(cols) - 1, 0, -1):
        cols[0], cols[i] = np.divmod(cols[0], domain)
    return NpTable(cols, len(key))


def distinct(table: NpTable, domain: int) -> NpTable:
    if table.n <= 1:
        return table
    key = _pack(table, list(range(len(table.cols))), domain)
    if key is not None:
        key = _sorted_unique(key)
        out = _unpacked(table, key, domain)
        out.key = (domain, key)
        return out
    unique = np.unique(np.stack(table.cols, axis=1), axis=0)
    return NpTable(
        [unique[:, i] for i in range(len(table.cols))], unique.shape[0]
    )


def select_eq(table: NpTable, index_a: int, index_b: int) -> NpTable:
    mask = table.cols[index_a] == table.cols[index_b]
    return NpTable([column[mask] for column in table.cols], int(mask.sum()))


def concat(left: NpTable, right: NpTable) -> NpTable:
    if left.n == 0:
        return _keyless(right)
    if right.n == 0:
        return _keyless(left)
    cols = [
        np.concatenate((a, b)) for a, b in zip(left.cols, right.cols)
    ]
    return NpTable(cols, left.n + right.n)


class JoinBuild:
    """The indexed build side of a join. The build rows of code ``k``
    are ``order[starts[k]:starts[k] + counts[k]]`` (a counting layout
    over the code domain), or, when ``starts`` is None,
    ``sorted_keys`` holds the packed keys in ``order``."""

    __slots__ = ("table", "order", "starts", "counts", "sorted_keys")

    def __init__(self, table, order, starts=None, counts=None, sorted_keys=None):
        self.table = table
        self.order = order
        self.starts = starts
        self.counts = counts
        self.sorted_keys = sorted_keys


def join_build(
    build: NpTable, key: list[int], domain: int
) -> JoinBuild | None:
    """Index the build side once; ``None`` when the key won't pack."""
    if len(key) == 1 and domain <= 4 * build.n + _DIRECT_SLACK:
        codes = build.cols[key[0]]
        counts = np.bincount(codes, minlength=domain)
        starts = np.cumsum(counts)
        starts -= counts
        if domain <= 1 << 16:  # 16-bit keys get numpy's radix sort
            codes = codes.astype(np.uint16)
        return JoinBuild(
            build, np.argsort(codes, kind="stable"), starts, counts
        )
    packed = _pack(build, key, domain)
    if packed is None:
        return None
    order = np.argsort(packed, kind="stable")
    return JoinBuild(build, order, sorted_keys=packed[order])


def join_probe(
    handle: JoinBuild,
    probe: NpTable,
    probe_key: list[int],
    layout: list[tuple[int, int]],
    build_side: int,
    domain: int,
) -> NpTable:
    """Probe a prepared build side.

    ``layout`` maps output columns to ``(side, column)``; ``build_side``
    says which side number the build table carries. The probe key packs
    whenever the build key did (same width, same domain).
    """
    build = handle.table
    if handle.starts is not None:
        codes = probe.cols[probe_key[0]]
        starts = handle.starts[codes]
        counts = handle.counts[codes]
    else:
        packed = _pack(probe, probe_key, domain)
        starts = np.searchsorted(handle.sorted_keys, packed, side="left")
        counts = np.searchsorted(handle.sorted_keys, packed, side="right")
        counts -= starts
    total = int(counts.sum())
    if total == 0:
        return empty(len(layout))
    if total == probe.n and int(counts.max()) == 1:
        # Every probe row matches exactly once (a foreign-key lookup):
        # the probe columns pass through uncopied.
        probe_idx = None
        build_idx = handle.order[starts]
    else:
        probe_idx = np.repeat(np.arange(probe.n, dtype=_INT), counts)
        starts -= np.cumsum(counts)
        starts += counts  # each run's first slot minus its output offset
        build_idx = handle.order[
            np.repeat(starts, counts) + np.arange(total, dtype=_INT)
        ]

    out_cols = []
    for side, column_index in layout:
        if side == build_side:
            out_cols.append(build.cols[column_index][build_idx])
        elif probe_idx is None:
            out_cols.append(probe.cols[column_index])
        else:
            out_cols.append(probe.cols[column_index][probe_idx])
    return NpTable(out_cols, total)


def join(
    left: NpTable,
    right: NpTable,
    left_key: list[int],
    right_key: list[int],
    layout: list[tuple[int, int]],
    domain: int,
) -> NpTable:
    """Natural join; ``layout`` maps output columns to (side, column)."""
    # Index the smaller side, probe with the larger.
    if left.n <= right.n:
        build, probe = left, right
        build_key, probe_key = left_key, right_key
        build_side = 0
    else:
        build, probe = right, left
        build_key, probe_key = right_key, left_key
        build_side = 1

    handle = join_build(build, build_key, domain)
    if handle is None:
        return _join_unpackable(left, right, left_key, right_key, layout)
    return join_probe(handle, probe, probe_key, layout, build_side, domain)


def _join_unpackable(
    left: NpTable,
    right: NpTable,
    left_key: list[int],
    right_key: list[int],
    layout: list[tuple[int, int]],
) -> NpTable:
    """Fallback when the join key is too wide to pack: the Python
    kernel's dict join over the same columns (it never reads a domain)."""
    lists = [
        kernels_python.PyTable([column.tolist() for column in table.cols], table.n)
        for table in (left, right)
    ]
    joined = kernels_python.join(
        lists[0], lists[1], left_key, right_key, layout, 0
    )
    return from_columns(joined.cols, joined.n)


def empty_state():
    return None


def difference(table: NpTable, state, domain: int):
    """Rows of ``table`` not yet in ``state``; returns (delta, state).

    The state is a sorted array of packed row keys when the row width
    packs into int64, else a Python set of row tuples. ``delta`` is a
    set whatever ``table`` held, in key order.
    """
    if table.key is not None and table.key[0] == domain:
        key = table.key[1]  # distinct already packed, sorted and deduped
    else:
        key = _pack(table, list(range(len(table.cols))), domain)
        if key is None:
            if state is None:
                state = set()
            fresh = [row for row in set(to_rows(table)) if row not in state]
            state.update(fresh)
            return from_rows(fresh, len(table.cols)), state
        key = _sorted_unique(key)
    if state is None or not len(state):
        return _unpacked(table, key, domain), key
    # Both sides are sorted, so one binary search answers membership
    # and says where the fresh keys go: they merge in with one linear
    # pass (np.insert), no per-round re-sort of the accumulated set.
    positions = np.searchsorted(state, key)
    fresh = state.take(positions, mode="clip") != key
    if not fresh.all():
        key, positions = key[fresh], positions[fresh]
    return _unpacked(table, key, domain), np.insert(state, positions, key)
