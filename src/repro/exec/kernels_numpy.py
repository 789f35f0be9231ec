"""NumPy columnar kernels.

Tables are lists of ``int64`` arrays. Every code is a dense dictionary
id in ``[0, domain)``, which the kernels use twice. A single-column join
key *is* an array index: the build side is a counting layout (one
stable ``order``, and per code its first slot in it and its row count)
and a probe is two gathers, nothing sorted or searched. A stored table
(:func:`from_columns`) keeps that layout per key column, laid out on
its first join, for as long as the table lives, and its column views
share it; sized by the column's own largest code, it stays valid as
the dictionary grows, and a join with a stored side probes it whatever
the sizes. Any other join lays the layout out over the domain for the
call, at the cost of its rows: the first slots are scattered from the
runs of the stable order, not summed over the domain. And a row over
``k`` columns packs into the one integer ``c_0·domain^(k-1) + … + c_k``
whenever ``domain^k`` fits in an int64, so ``distinct`` is an in-place
``sort`` of the packed key, a neighbour mask and a ``divmod`` unpack of
the survivors. ``distinct`` leaves that key on its table for the
``difference`` that follows (every other constructor drops it;
:func:`release` strips it from a table that is kept), which tests it
against a fixpoint's state: sorted runs of packed keys, binary-searched
and merged as they grow.

``compose`` is path concatenation, ``distinct`` of one column from each
side of a single-key join, without the join: over locally renumbered
codes it is the set cells of a dense boolean product of bit-packed rows
when that product is cheap next to the join, else pair codes built
from the probe and build gathers and deduplicated in one pass.
``closure`` iterates a whole linear closure ``X = B ∪ X/S`` the same
way: over the closure's own renumbered codes, ``S``'s successors laid
out once, each round expanding only the frontier into sorted local pair
keys or, once dense, OR-ed bit rows. No
kernel calls BLAS: its worker threads would compete with a caller
pinned to one CPU. Multi-column join
keys sort the packed key once and binary-search it per probe row; rows
too wide to pack fall back to ``np.unique(axis=0)`` / tuple handling.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exec import kernels_python

NAME = "numpy"

#: Packed keys must stay below this bound (headroom under 2^63 - 1).
_PACK_LIMIT = 1 << 62

#: A join's counting layout zeroes two arrays over the code domain and
#: is otherwise linear in its rows, so a join gets one while ``domain <=
#: _LAYOUT_PER_ROW * rows + _DIRECT_SLACK``, ``rows`` counting both
#: sides; small tables in a huge domain keep the sorted layout. The
#: other direct addresses over the domain (``compose``'s per-key counts,
#: a closure's renumbering) still pay O(domain) passes and keep
#: ``4 * rows``.
_LAYOUT_PER_ROW = 32
_DIRECT_SLACK = 4096

#: A composition runs as a bit-matrix product while the cells, rows and
#: 64-bit words that product touches stay within this many per join row
#: it stands for (the fused pass spends several array passes on each);
#: the product gathers at most ``_GATHER_WORDS`` words at a time.
_BITS_PER_JOIN_ROW = 8
_GATHER_WORDS = 1 << 16

_INT = np.int64


class NpTable:
    """Columns of integer codes over an explicit row count; fresh out
    of :func:`distinct`, also ``key = (domain, its sorted packed rows)``;
    a stored table (:func:`from_columns`) and its column views, also
    ``index``: one :class:`_ColumnIndex` per column."""

    __slots__ = ("cols", "n", "key", "index")

    def __init__(self, cols: list[np.ndarray], n: int, key=None, index=None):
        self.cols = cols
        self.n = n
        self.key = key
        self.index = index

    def sorted_ranks(self, values) -> tuple[list, list] | None:
        """:func:`repro.exec.result._sorted_ranks` in array operations;
        None when the packed ranks would not fit an int64."""
        value_of = values.__getitem__
        ranked_values: list[list] = []
        key, span = np.zeros(self.n, dtype=_INT), 1
        for column in self.cols:
            distinct = _sorted_unique(np.array(column))
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


class _ColumnIndex:
    """A stored column's counting layout ``(order, starts, counts)``, laid
    out on its first join. It is sized by the column's own largest code
    plus one always-empty slot, which a probe code past it clips to, so
    a dictionary that grows leaves it valid. It lives as long as the
    kernel table holding it; that table's column views share it."""

    __slots__ = ("layout",)

    def __init__(self) -> None:
        self.layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def from_columns(codes: list[list[int]], nrows: int) -> NpTable:
    """A stored table: each column keeps a :class:`_ColumnIndex`."""
    cols = [np.asarray(column, dtype=_INT) for column in codes]
    return NpTable(cols, nrows, index=[_ColumnIndex() for _ in cols])


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
    index = table.index
    return NpTable(
        [table.cols[i] for i in indices],
        table.n,
        index=None if index is None else [index[i] for i in indices],
    )


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
    overflow)."""
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
    build: NpTable, key: list[int], domain: int, probe_rows: int = 0
) -> JoinBuild | None:
    """Index the build side once; ``None`` when the key won't pack.

    ``probe_rows`` is the size of the side that will probe: the counting
    layout's zeroed arrays are paid once for both sides, so a small
    build side probed by a big one still gets it."""
    if len(key) == 1 and (
        domain <= _LAYOUT_PER_ROW * (build.n + probe_rows) + _DIRECT_SLACK
    ):
        return JoinBuild(build, *_counting_layout(build.cols[key[0]], domain))
    packed = _pack(build, key, domain)
    if packed is None:
        return None
    order = np.argsort(packed, kind="stable")
    return JoinBuild(build, order, sorted_keys=packed[order])


def _counting_layout(
    codes: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, starts, counts)`` over codes below ``size``: the rows
    holding code ``k`` are ``order[starts[k]:starts[k] + counts[k]]``.
    When ``size`` exceeds the rows, ``starts`` is scattered from the
    first position of each run of the stable order rather than summed
    over ``size``, so past two zeroed arrays the rows set the cost."""
    order = _stable_order(codes, size)
    counts = np.bincount(codes, minlength=size)
    if size <= len(codes):
        starts = np.cumsum(counts)
        starts -= counts
    else:
        starts = np.zeros(size, dtype=_INT)
        if len(codes):
            ordered = codes.take(order)
            first = _run_starts(ordered)
            starts[ordered.take(first)] = first
    return order, starts, counts


def _kept_side(left: NpTable, right: NpTable) -> int | None:
    """The side of a single-key join whose kept layout it uses: the
    stored one (the larger when both are, so the smaller probes); None
    when neither keeps one."""
    if left.index is None:
        return None if right.index is None else 1
    return 0 if right.index is None or left.n >= right.n else 1


def _kept_layout(table: NpTable, column: int) -> JoinBuild:
    """The stored ``table``'s layout of ``column``, laid out now if this
    is its first join."""
    slot = table.index[column]
    layout = slot.layout
    if layout is None:
        codes = table.cols[column]
        size = int(codes.max()) + 2 if table.n else 1
        layout = slot.layout = _counting_layout(codes, size)
    return JoinBuild(table, *layout)


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
        # A stored column's layout ends at its own largest code, and its
        # last slot is empty: a code past it clips there, to no rows.
        codes = probe.cols[probe_key[0]]
        starts = handle.starts.take(codes, mode="clip")
        counts = handle.counts.take(codes, mode="clip")
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
    """Natural join; ``layout`` maps output columns to (side, column).

    On a single key, a stored side's kept layout is probed by the other
    side whatever their sizes; otherwise the smaller side is indexed and
    the larger probes it."""
    kept = _kept_side(left, right) if len(left_key) == 1 else None
    build_side = kept if kept is not None else int(left.n > right.n)
    sides = ((left, left_key), (right, right_key))
    (build, build_key), (probe, probe_key) = (
        sides[build_side], sides[1 - build_side]
    )
    handle: JoinBuild | None
    if kept is not None:
        handle = _kept_layout(build, build_key[0])
    else:
        handle = join_build(build, build_key, domain, probe.n)
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
    return NpTable(
        [np.asarray(column, dtype=_INT) for column in joined.cols], joined.n
    )


def compose(
    outer: NpTable,
    outer_key: int,
    outer_col: int,
    inner: NpTable,
    inner_key: int,
    inner_col: int,
    domain: int,
) -> tuple[NpTable, int]:
    """``distinct`` of the ``(outer_col, inner_col)`` pairs of ``outer ⋈
    inner`` on one key column each, without the join's columns.

    Returns ``(pairs, join_rows)``: the pairs as ``distinct`` of the
    join's two columns leaves them (the same rows and ``key``; in key
    order, which is ``distinct``'s own order whenever it drops a row)
    and the row count of the join they stand for.

    The join's size comes first: from a stored side's kept layout, the
    counts of the other side's keys (O(that side)); else, while the
    domain is small next to the rows, the dot product of both sides'
    per-key row counts. In a domain too big for those, or for a join too
    small to pay for O(domain) passes, that join and ``distinct`` are
    what runs. Otherwise the per-key row counts of both sides give the
    keys both sides hold, and the codes of each column are renumbered
    ``0..n`` in code order. While a dense boolean product (outer x key)
    · (key x inner) is cheap next to the join (``_BITS_PER_JOIN_ROW``)
    the pairs are the set cells of that product, computed over
    bit-packed rows. Else one local pair code per join row comes
    straight from the probe and build gathers and is deduplicated by a
    mark over the local pair space, or a sort when that space is large.
    Either way the cells come out row-major, which is packed-key order.
    """
    ok, ik = outer.cols[outer_key], inner.cols[inner_key]
    joined = 0
    key_counts: tuple[np.ndarray, np.ndarray] | None = None
    kept = _kept_side(outer, inner)
    if kept is not None:
        if kept:
            counts, keys = _kept_layout(inner, inner_key).counts, ok
        else:
            counts, keys = _kept_layout(outer, outer_key).counts, ik
        joined = int(counts.take(keys, mode="clip").sum())
    elif domain <= 4 * (outer.n + inner.n) + _DIRECT_SLACK:
        key_counts = _per_key(ok, ik, domain)
        joined = int(key_counts[0] @ key_counts[1])
    if joined <= 2 * domain + _DIRECT_SLACK:
        # A huge domain, or too few join rows to pay for the O(domain)
        # renumbering passes.
        pairs = join(
            outer, inner, [outer_key], [inner_key],
            [(0, outer_col), (1, inner_col)], domain,
        )
        return distinct(pairs, domain), pairs.n
    outer_per_key, inner_per_key = key_counts or _per_key(ok, ik, domain)
    # Only rows whose key both sides hold take part, and from here on a
    # code is its rank among the codes of its column in use.
    shared = (outer_per_key != 0) & (inner_per_key != 0)
    ok, oc = _rows_on(shared, ok, outer.cols[outer_col])
    ik, ic = _rows_on(shared, ik, inner.cols[inner_col])
    per_key = inner_per_key[shared]
    ok, ik = _ranks(shared, ok), _ranks(shared, ik)
    outs, oc = _renumber(oc, domain)
    ins, ic = _renumber(ic, domain)
    n_out, n_key, n_in = len(outs), len(per_key), len(ins)
    # The bit product packs one side's rows into a key x code bit matrix
    # and ORs the packed rows of the other's; the side packed is the one
    # that makes that cheaper. Counted in cells, rows and words touched.
    by_outer = n_key * n_in + len(ic) + len(oc) * _words(n_in)
    by_inner = n_key * n_out + len(oc) + len(ic) * _words(n_out)
    if min(by_outer, by_inner) + n_out * n_in <= _BITS_PER_JOIN_ROW * joined:
        if by_outer <= by_inner:
            cells = _bit_product(ik, ic, n_in, ok, oc, n_out, n_key)
        else:
            cells = _bit_product(ok, oc, n_out, ik, ic, n_in, n_key).T
        pair = np.flatnonzero(cells)
    else:
        pair = _fused_pairs(ok, oc, ik, ic, per_key, joined, n_out, n_in)
    # Ascending local pair codes are ascending (first, second) codes.
    first = pair // n_in
    pair -= first * n_in
    first = outs.take(first, out=first, mode="clip")
    second = ins.take(pair, out=pair, mode="clip")
    key = first * domain
    key += second
    # ``distinct`` keys whatever it dedups, and passes one row through.
    dedup_key = (domain, key) if joined > 1 else None
    return NpTable([first, second], len(key), dedup_key), joined


def _per_key(
    ok: np.ndarray, ik: np.ndarray, domain: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each side's row count per key code."""
    return np.bincount(ok, minlength=domain), np.bincount(ik, minlength=domain)


def _rows_on(keys: np.ndarray, key: np.ndarray, column: np.ndarray):
    """``key`` and ``column`` at the rows whose key ``keys`` marks."""
    keep = keys[key]
    if keep.all():
        return key, column
    return key[keep], column[keep]


def _ranks(used: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each of ``codes``' position among the codes ``used`` marks."""
    rank = np.empty(len(used), dtype=_INT)
    marked = np.flatnonzero(used)
    rank[marked] = np.arange(len(marked))
    return rank.take(codes)


def _renumber(codes: np.ndarray, domain: int):
    """The distinct ``codes`` ascending, and each code's position among
    them (direct address over the domain, no sort)."""
    used = np.zeros(domain, dtype=bool)
    used[codes] = True
    return np.flatnonzero(used), _ranks(used, codes)


def _stable_order(codes: np.ndarray, bound: int) -> np.ndarray:
    """The stable sorting order of ``codes``, all below ``bound``; 16-bit
    codes get numpy's radix sort."""
    if bound <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


def _words(bits: int) -> int:
    return (bits + 63) >> 6


def _bit_product(
    packed_key, packed_code, n_packed, probe_key, probe_code, n_probe, n_key
):
    """The boolean product of two sides of a join on local keys, as an
    ``(n_probe, n_packed)`` 0/1 ``uint8`` matrix: cell ``(q, p)`` is set
    when some key has a packed-side row ``(key, p)`` and a probe-side
    row ``(key, q)``. Every probe code ``q`` must be in use.

    The packed side becomes one row of ``n_packed`` bits per key; the
    probe rows, grouped by code, OR the rows of their keys together
    (``reduceat``), a block of words at a time so the gathered rows stay
    small. No BLAS call: a multithreaded one would compete with a caller
    pinned to one CPU."""
    rows = _bit_rows(packed_key, packed_code, n_key, n_packed)
    order = _stable_order(probe_code, n_probe)
    probe_key, probe_code = probe_key[order], probe_code[order]
    product = _or_rows(rows, probe_key, _run_starts(probe_code))
    return np.unpackbits(
        product.view(np.uint8), axis=1, count=n_packed, bitorder="little"
    )


def _bit_rows(row: np.ndarray, bit: np.ndarray, n_rows: int, n_bits: int):
    """An ``(n_rows, _words(n_bits))`` ``uint64`` matrix with bit
    ``bit[i]`` of row ``row[i]`` set, every other bit clear."""
    words = _words(n_bits)
    marks = np.zeros(n_rows * words * 64, dtype=np.uint8)
    marks[row * (words * 64) + bit] = 1
    return np.packbits(marks, bitorder="little").view(np.uint64).reshape(
        n_rows, words
    )


def _run_starts(codes: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in ``codes`` starts."""
    return np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))


def _or_rows(rows: np.ndarray, picks: np.ndarray, starts: np.ndarray):
    """One row per group of ``picks`` (groups start at ``starts``): the OR
    of the ``rows`` the group picks, gathered a block of words at a time
    so the picked rows stay small."""
    words = rows.shape[1]
    product = np.empty((len(starts), words), dtype=np.uint64)
    block = max(1, _GATHER_WORDS // max(len(picks), 1))
    for low in range(0, words, block):
        product[:, low : low + block] = np.bitwise_or.reduceat(
            rows[:, low : low + block].take(picks, axis=0), starts, axis=0
        )
    return product


def _fused_pairs(ok, oc, ik, ic, per_key, joined: int, n_out: int, n_in: int):
    """The distinct local pair codes ``oc * n_in + ic`` of the join on
    local keys ``ok`` = ``ik``, ascending. The inner side is a counting
    layout over the local keys (``per_key`` rows each); every outer row
    repeats once per inner row of its key."""
    counts = per_key.take(ok)
    by_key = ic.take(_stable_order(ik, len(per_key)))
    index = np.cumsum(per_key)
    index -= per_key  # each key's first inner slot...
    index = np.repeat(index.take(ok) - (np.cumsum(counts) - counts), counts)
    index += np.arange(joined, dtype=_INT)  # ...plus the row's rank in it
    pair = np.repeat(oc * n_in, counts)
    pair += by_key.take(index, out=index, mode="clip")
    del index
    if n_out * n_in <= 8 * joined + _DIRECT_SLACK:
        seen = np.zeros(n_out * n_in, dtype=bool)
        seen[pair] = True
        return np.flatnonzero(seen)
    return _sorted_unique(pair)


def empty_state():
    return None


def difference(table: NpTable, state, domain: int):
    """Rows of ``table`` not yet in ``state``; returns (delta, state).

    When the row width packs into int64 the state holds packed row keys
    as sorted runs (one array, or a tuple of them) that are searched one
    by one and never written to: the delta becomes a run of its own and
    runs of similar size merge. Rows too wide to pack keep a Python set
    of row tuples, updated in place. ``delta`` is a set whatever
    ``table`` held, in key order.
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
    if state is None:
        return _unpacked(table, key, domain), key
    runs = state if isinstance(state, tuple) else (state,)
    key = _fresh(runs, key)
    return _unpacked(table, key, domain), _add_run(runs, key)


def _fresh(runs: tuple, key: np.ndarray) -> np.ndarray:
    """The keys of the sorted, duplicate-free ``key`` that none of the
    sorted ``runs`` holds."""
    for run in runs:
        if len(run) and len(key):
            positions = np.searchsorted(run, key)
            fresh = run.take(positions, mode="clip") != key
            if not fresh.all():
                key = key[fresh]
    return key


def _add_run(runs: tuple, key: np.ndarray):
    """``runs`` plus the sorted run ``key``. A run merges into the one
    before it while that one is at most twice its size, so a state of
    ``n`` keys keeps O(log n) runs and each key is copied O(log n)
    times, not once per round."""
    if len(key):
        runs = (*runs, key)
        while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
            merged = np.concatenate(runs[-2:])
            merged.sort(kind="stable")  # two sorted runs: one merge pass
            runs = (*runs[:-2], merged)
    return runs[0] if len(runs) == 1 else runs


#: A closure holds the pairs it has reached as sorted runs of local pair
#: keys, 64 bits a pair, until bit rows over its whole pair space (one row
#: of moving-value bits per fixed value, and the relation's successors
#: likewise) cost at most this many bits per pair reached.
_CLOSURE_BITS_PER_ROW = 64
#: Below this many pairs reached a binary search is as cheap as a bit
#: test, so a small closure stays sorted runs whatever its pair space.
_BITS_MIN_ROWS = 1024

#: The set bits of each byte value.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=_INT)


def closure(base: NpTable, fixed: int, domain: int) -> "Closure | None":
    """Semi-naive iteration of a linear fixpoint whose step keeps its
    column ``fixed`` and moves the other along a relation: ``X = base ∪
    π(X ⋈ S)``, one ``S`` column joined to the moving one and another
    put in its place. ``base`` is what :func:`difference` left of the
    base rows. None when a row of the fixpoint does not pack (the caller
    iterates as usual)."""
    if domain * domain >= _PACK_LIMIT:
        return None
    return Closure(base, fixed, domain)


class Closure:
    """A linear closure iterated over its own dense ids.

    The first :meth:`step` renumbers the moving values it meets (the
    base's moving column and the relation's kept column) ``0..nM`` in
    code order and lays the relation's successors out once, as a
    counting layout over them; a base none of whose rows has a successor
    is the whole closure, and stops there. Otherwise it renumbers the
    base's fixed values ``0..nF`` too: set-up scales with the closure's
    rows, not the domain. Every round then only expands the frontier.
    Reached pairs are local keys ``first * n_second + second`` (first
    column major), sorted, deduplicated and searched in sorted runs as
    :func:`difference` searches packed row keys, until the ``nF x nM``
    and ``nM x nM`` bit rows are cheap next to them
    (``_CLOSURE_BITS_PER_ROW``); from then on a round ORs each fixed
    value's frontier successor rows. :meth:`result` maps the pairs back
    to codes.
    """

    __slots__ = (
        "rows", "_base", "_fixed", "_domain", "_n", "_values",
        "_joins", "_fanout", "_first", "_successors", "_reached",
        "_frontier", "_bits",
    )

    def __init__(self, base: NpTable, fixed: int, domain: int):
        #: Rows of the current frontier (the base rows before a step).
        self.rows = base.n
        self._base = base
        self._fixed = fixed
        self._domain = domain
        self._joins = None
        self._reached = None  # None: the base is the whole closure
        self._bits = False

    def step(self, relation: NpTable, key: int, column: int) -> tuple[int, int]:
        """Expand the frontier along ``relation`` (the same table every
        round: ``key`` joins the moving column, ``column`` replaces it).
        Returns ``(join rows, step rows)``: the rows of the frontier's
        join with ``relation`` and of that join's distinct projection,
        the counts the round's join and project stand for."""
        if self._joins is None:
            self._lay_out(relation.cols[key], relation.cols[column])
        if self._reached is None:  # no base row joins: nothing to add
            self.rows = 0
            return 0, 0
        fixed, moving = self._frontier
        joined = int(self._joins.take(moving).sum())
        live = self._fanout.take(moving) != 0
        if not live.all():
            fixed, moving = fixed[live], moving[live]
        if not len(moving):
            self._frontier, self.rows = (fixed, moving), 0
            return joined, 0
        if self._bits:
            return joined, self._bits_step(fixed, moving)
        produced = self._keys_step(fixed, moving)
        self._bits_when_cheap()
        return joined, produced

    def result(self) -> NpTable:
        """The closure's total: every pair it reached, as codes."""
        if self._reached is None:
            return self._base
        if self._bits:
            marks = _marks(self._reached, self._n[1])
            # Fixed-major cells; moving-major when the moving column is
            # the first.
            key = np.flatnonzero(marks.T if self._fixed else marks)
        else:
            runs = self._runs()
            key = np.concatenate(runs) if len(runs) > 1 else runs[0]
        # In place where it can be: the output is as big as the
        # closure, so each fresh array is page faults.
        first_values, second_values = self._values
        first, second = np.divmod(key, len(second_values))
        first_values.take(first, out=first, mode="clip")
        second_values.take(second, out=second, mode="clip")
        return NpTable([first, second], len(key))

    def _lay_out(self, source: np.ndarray, target: np.ndarray) -> None:
        """Renumber, lay the successors out (``_successors`` holds their
        targets, ``_first`` and ``_fanout`` address each moving value's
        run) and seed the frontier with the base, unless no base row
        joins the relation at all."""
        base, fixed, domain = self._base, self._fixed, self._domain
        rows = base.n + len(source)
        moving_values, moving_rank = _local_ids(
            [base.cols[1 - fixed], target], domain, rows
        )
        n_moving = len(moving_values)
        source, target = moving_rank(source), moving_rank(target)
        joins = source >= 0  # a relation row off the moving values never joins
        if not joins.all():
            source, target = source[joins], target[joins]
        self._joins = np.bincount(source, minlength=n_moving)
        moving = moving_rank(base.cols[1 - fixed])
        if not self._joins.take(moving).any():
            return
        edges = _sorted_unique(source * n_moving + target)
        source, self._successors = np.divmod(edges, n_moving)
        self._fanout = np.bincount(source, minlength=n_moving)
        self._first = np.cumsum(self._fanout) - self._fanout
        fixed_values, fixed_rank = _local_ids([base.cols[fixed]], domain, rows)
        self._n = (len(fixed_values), n_moving)
        self._values = (
            (fixed_values, moving_values)
            if fixed == 0
            else (moving_values, fixed_values)
        )
        key = _sorted_unique(self._pair_key(fixed_rank(base.cols[fixed]), moving))
        self._reached = key
        self._frontier = self._pair_ids(key)
        self._bits_when_cheap()

    def _bits_when_cheap(self) -> None:
        """Hold the reached pairs and the successors as bit rows from now
        on (the frontier fixed-major), if those are cheap next to the
        pairs held."""
        held = sum(map(len, self._runs()))
        n_fixed, n_moving = self._n
        if held < _BITS_MIN_ROWS or (
            (n_fixed + n_moving) * n_moving > _CLOSURE_BITS_PER_ROW * held
        ):
            return
        fixed, moving = self._pair_ids(np.concatenate(self._runs()))
        self._reached = _bit_rows(fixed, moving, n_fixed, n_moving)
        source = np.repeat(np.arange(n_moving, dtype=_INT), self._fanout)
        self._successors = _bit_rows(
            source, self._successors, n_moving, n_moving
        )
        fixed, moving = self._frontier
        order = _stable_order(fixed, n_fixed)
        self._frontier = (fixed.take(order), moving.take(order))
        self._bits = True

    def _runs(self) -> tuple:
        reached = self._reached
        return reached if isinstance(reached, tuple) else (reached,)

    def _bits_step(self, fixed: np.ndarray, moving: np.ndarray) -> int:
        # The frontier is fixed-major, so each fixed value's rows are one
        # run: OR its moving values' successor rows together, count the
        # pairs that makes and keep those not reached before.
        starts = _run_starts(fixed)
        fixed = fixed.take(starts)
        product = _or_rows(self._successors, moving, starts)
        produced = int(_POPCOUNT.take(product.view(np.uint8)).sum())
        reached = self._reached[fixed]
        product &= ~reached
        reached |= product
        self._reached[fixed] = reached
        n_moving = self._n[1]
        rows, moving = np.divmod(
            np.flatnonzero(_marks(product, n_moving)), n_moving
        )
        self._frontier = (fixed.take(rows), moving)
        self.rows = len(moving)
        return produced

    def _keys_step(self, fixed: np.ndarray, moving: np.ndarray) -> int:
        counts = self._fanout.take(moving)
        ends = np.cumsum(counts)
        index = np.repeat(self._first.take(moving) - (ends - counts), counts)
        index += np.arange(int(ends[-1]), dtype=_INT)
        target = self._successors.take(index)
        key = _sorted_unique(self._pair_key(np.repeat(fixed, counts), target))
        produced = len(key)
        runs = self._runs()
        key = _fresh(runs, key)
        self._reached = _add_run(runs, key)
        self._frontier = self._pair_ids(key)
        self.rows = len(key)
        return produced

    def _pair_key(self, fixed: np.ndarray, moving: np.ndarray) -> np.ndarray:
        """Local pair keys, first column major."""
        n_fixed, n_moving = self._n
        if self._fixed:
            return moving * n_fixed + fixed
        return fixed * n_moving + moving

    def _pair_ids(self, key: np.ndarray):
        """``(fixed, moving)`` local ids of local pair keys."""
        n_fixed, n_moving = self._n
        if self._fixed:
            moving, fixed = np.divmod(key, n_fixed)
        else:
            fixed, moving = np.divmod(key, n_moving)
        return fixed, moving


def _local_ids(columns: list[np.ndarray], domain: int, rows: int):
    """The distinct codes of ``columns``, ascending, and a function
    mapping codes to their positions among them (-1 for a code not
    there): a direct address over the domain while that is cheap next to
    ``rows`` (as a join's counting layout is), else a sort."""
    if domain <= 4 * rows + _DIRECT_SLACK:
        used = np.zeros(domain, dtype=bool)
        for column in columns:
            used[column] = True
        values = np.flatnonzero(used)
        rank = np.full(domain, -1, dtype=_INT)
        rank[values] = np.arange(len(values))
        return values, rank.take
    values = _sorted_unique(np.concatenate(columns))

    def rank_of(codes: np.ndarray) -> np.ndarray:
        at = np.searchsorted(values, codes)
        at[values.take(at, mode="clip") != codes] = -1
        return at

    return values, rank_of


def _marks(rows: np.ndarray, n_bits: int) -> np.ndarray:
    """The first ``n_bits`` bits of each of a ``uint64`` bit-row matrix's
    rows, as booleans (whose ``flatnonzero`` is numpy's fast one)."""
    return np.unpackbits(
        rows.view(np.uint8), axis=1, count=n_bits, bitorder="little"
    ).view(bool)
