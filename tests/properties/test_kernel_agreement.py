"""Property: the numpy kernel and the pure-Python kernel agree row for row.

The same random coded tables go through both kernels' ``join``,
``distinct`` and ``difference``; the Python kernel (dict-of-int hash join, sets of row tuples) is the
reference. Row *order* is not compared — it is not part of a coded
table's contract — but joins are compared as bags and every set-valued
output is checked to hold no duplicate.

The domains cover both numpy join layouts (the counting layout over the
code domain and the packed sorted one), the 16-bit boundary of the
counting layout's radix sort, a single code, and keys and rows too wide
to pack.

Stored tables (built through ``from_columns``, as a store's encoded
tables are) keep a layout per key column, sized by the column's own
largest code, that every join on that column reuses: joins with a
stored left side, right side or both, through column views, on empty
stored tables and with probe codes past the stored column's largest are
checked against the reference too, and so is ``compose`` with a stored
side, in every way through it that ``_COMPOSE_MODES`` forces.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import kernels_python as pyk
from repro.exec.kernels import kernels_numpy as npk

if npk is None:
    pytest.skip("compares the numpy kernel", allow_module_level=True)

from test_compose_agreement import _COMPOSE_MODES, _patched  # noqa: E402

#: One code; many-to-many; sparse; the sorted layout at the test's table
#: sizes (either side of 2^16, and two columns of it too wide to pack).
_DOMAINS = st.sampled_from([1, 3, 40, 65_535, 65_537, 1 << 31])


@st.composite
def _coded(draw, widths=(1, 2, 3), max_rows=24):
    """``(domain, width, strategy for a list of rows over them)``."""
    domain = draw(_DOMAINS)
    code = st.integers(0, domain - 1)
    width = draw(st.sampled_from(widths))
    rows = st.lists(st.tuples(*[code] * width), max_size=max_rows)
    return domain, width, rows


def _tables(rows, width):
    """The same rows as a numpy table and as a Python-kernel table."""
    return npk.from_rows(rows, width), pyk.from_rows(rows, width)


def _bag(kernel, table):
    return sorted(kernel.to_rows(table))


def _set(kernel, table):
    rows = kernel.to_rows(table)
    assert len(rows) == len(set(rows)), "duplicate rows in a set-valued output"
    return set(rows)


def _layout(data, left_width, right_width):
    entries = [(0, i) for i in range(left_width)] + [
        (1, i) for i in range(right_width)
    ]
    return data.draw(
        st.lists(st.sampled_from(entries), min_size=1, max_size=4), label="layout"
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_join_agrees(data):
    domain, width, rows = data.draw(_coded(widths=(2, 3)))
    left_rows, right_rows = data.draw(rows), data.draw(rows)
    key_width = data.draw(st.sampled_from([1, 2]), label="key width")
    columns = st.lists(
        st.integers(0, width - 1), min_size=key_width, max_size=key_width
    )
    left_key, right_key = data.draw(columns), data.draw(columns)
    layout = _layout(data, width, width)
    np_left, py_left = _tables(left_rows, width)
    np_right, py_right = _tables(right_rows, width)
    got = npk.join(np_left, np_right, left_key, right_key, layout, domain)
    want = pyk.join(py_left, py_right, left_key, right_key, layout, domain)
    assert _bag(npk, got) == _bag(pyk, want)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_foreign_key_probe_passes_through(data):
    """Every probe row matches exactly one build row: same rows as the
    reference, and the probe's own columns come back uncopied."""
    domain = data.draw(st.sampled_from([1, 3, 40, 300]))
    keys = data.draw(
        st.lists(st.integers(0, domain - 1), min_size=1, unique=True)
    )
    build_rows = [(key, data.draw(st.integers(0, domain - 1))) for key in keys]
    probe_rows = data.draw(
        st.lists(
            st.tuples(st.integers(0, domain - 1), st.sampled_from(keys)),
            min_size=len(keys) + 1,  # the referencing side is the probe
            max_size=3 * len(keys) + 1,
        )
    )
    layout = [(0, 0), (1, 1), (0, 1)]
    np_probe, py_probe = _tables(probe_rows, 2)
    np_build, py_build = _tables(build_rows, 2)
    got = npk.join(np_probe, np_build, [1], [0], layout, domain)
    want = pyk.join(py_probe, py_build, [1], [0], layout, domain)
    assert _bag(npk, got) == _bag(pyk, want) == sorted(
        (a, dict(build_rows)[b], b) for a, b in probe_rows
    )
    assert got.cols[0] is np_probe.cols[0]
    assert got.cols[2] is np_probe.cols[1]


@pytest.mark.parametrize("domain", [65_535, 65_536, 65_537, 70_000])
def test_counting_layout_around_the_radix_boundary(domain):
    """A build side big enough for the counting layout at a domain either
    side of 2^16, holding the domain's largest codes."""
    rng = random.Random(domain)
    codes = [domain - 1, domain - 2, 65_535 % domain, 0] + [
        rng.randrange(domain) for _ in range(17_000)
    ]
    build_rows = [(code, i % 7) for i, code in enumerate(codes)]
    probe_rows = [(code, 1) for code in codes[:40]] + [(1, 2)] * 3
    build = npk.from_rows(build_rows, 2)
    handle = npk.join_build(build, [0], domain)
    assert handle.starts is not None and len(handle.starts) == domain
    layout = [(0, 0), (0, 1), (1, 1)]
    got = npk.join_probe(
        handle, npk.from_rows(probe_rows, 2), [0], layout, 0, domain
    )
    want = pyk.join(
        pyk.from_rows(build_rows, 2), pyk.from_rows(probe_rows, 2),
        [0], [0], layout, domain,
    )
    assert _bag(npk, got) == _bag(pyk, want)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_distinct_agrees(data):
    domain, width, rows = data.draw(_coded(widths=(0, 1, 2, 3)))
    drawn = data.draw(rows)
    np_table, py_table = _tables(drawn, width)
    got = npk.distinct(np_table, domain)
    want = pyk.distinct(py_table, domain)
    assert _set(npk, got) == _set(pyk, want) == set(drawn)
    assert npk.width(got) == width


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_difference_rounds_agree(data, dedup_first):
    """Several rounds threading the state: every delta is the same set
    on both kernels whether or not a ``distinct`` ran in front (inputs
    hold duplicates when none did), and the deltas partition the union."""
    domain, width, rows = data.draw(_coded(widths=(0, 1, 2, 3), max_rows=12))
    rounds = data.draw(st.lists(rows, min_size=1, max_size=5), label="rounds")
    np_state, py_state = npk.empty_state(), pyk.empty_state()
    seen: set = set()
    for drawn in rounds:
        np_table, py_table = _tables(drawn, width)
        if dedup_first:
            np_table = npk.distinct(np_table, domain)
            py_table = pyk.distinct(py_table, domain)
        np_delta, np_state = npk.difference(np_table, np_state, domain)
        py_delta, py_state = pyk.difference(py_table, py_state, domain)
        fresh = set(drawn) - seen
        assert _set(npk, np_delta) == _set(pyk, py_delta) == fresh
        assert npk.width(np_delta) == width
        seen |= fresh


def _stored(rows, width):
    """The same rows as a stored numpy table and as a Python-kernel
    table."""
    columns = [[row[i] for row in rows] for i in range(width)]
    return npk.from_columns(columns, len(rows)), pyk.from_rows(rows, width)


def _viewed(data, np_table, py_table, width, label):
    """Both tables, or the same column view of each (columns permuted,
    dropped or repeated: a stored table's view shares its layouts)."""
    if not data.draw(st.booleans(), label=f"{label} viewed"):
        return np_table, py_table, width
    indices = data.draw(
        st.lists(st.integers(0, width - 1), min_size=1, max_size=3),
        label=f"{label} view",
    )
    return (
        npk.select_columns(np_table, indices),
        pyk.select_columns(py_table, indices),
        len(indices),
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_stored_join_agrees(data):
    """Single-key joins with a stored left side, right side or both (both
    may be one stored table) give the reference's bag, run after run on
    the same tables: each through its own column views and keys, so a
    layout laid out by one join is reused by the next join on that
    column, through whatever view. A stored side's codes may stop short
    of the domain, so the other side probes with codes past the stored
    column's largest."""
    domain = data.draw(_DOMAINS)
    width = data.draw(st.sampled_from([1, 2, 3]), label="width")
    ceiling = data.draw(st.integers(0, min(domain, 64) - 1), label="ceiling")
    stored_code = st.integers(0, ceiling)
    any_code = st.integers(0, domain - 1)
    stored = data.draw(
        st.sampled_from(["left", "right", "both", "shared"]), label="stored"
    )

    def side(label, is_stored):
        code = stored_code if is_stored else any_code
        rows = data.draw(
            st.lists(st.tuples(*[code] * width), max_size=24), label=label
        )
        if is_stored:
            return _stored(rows, width)
        return _tables(rows, width)

    tables = {"left": side("left", stored != "right")}
    tables["right"] = (
        tables["left"] if stored == "shared"
        else side("right", stored != "left")
    )
    for _ in range(data.draw(st.integers(2, 4), label="joins")):
        (np_left, py_left, left_width), (np_right, py_right, right_width) = (
            _viewed(data, *tables[name], width, name)
            for name in ("left", "right")
        )
        left_key = [data.draw(st.integers(0, left_width - 1), label="left key")]
        right_key = [
            data.draw(st.integers(0, right_width - 1), label="right key")
        ]
        layout = _layout(data, left_width, right_width)
        got = npk.join(np_left, np_right, left_key, right_key, layout, domain)
        want = pyk.join(py_left, py_right, left_key, right_key, layout, domain)
        assert _bag(npk, got) == _bag(pyk, want)
        assert got.index is None


def test_stored_layout_is_sized_by_the_column_and_clips_past_it():
    """A stored column's layout ends one empty slot past its largest
    code, whatever the domain; a probe code past it, or an empty stored
    table, finds no row."""
    stored, py_stored = _stored([(2, 7), (5, 8), (2, 9)], 2)
    probe_rows = [(2, 0), (5, 1), (6, 2), (7, 3), (1 << 40, 4)]
    probe, py_probe = _tables(probe_rows, 2)
    layout = [(0, 0), (0, 1), (1, 1)]
    got = npk.join(stored, probe, [0], [0], layout, 1 << 41)
    want = pyk.join(py_stored, py_probe, [0], [0], layout, 1 << 41)
    assert _bag(npk, got) == _bag(pyk, want) == [
        (2, 7, 0), (2, 9, 0), (5, 8, 1),
    ]
    order, starts, counts = stored.index[0].layout
    assert len(starts) == len(counts) == 7 and counts[-1] == 0
    assert stored.index[1].layout is None  # only the key column laid out
    empty, _ = _stored([], 2)
    for left, right in ((empty, probe), (probe, empty), (empty, empty)):
        assert npk.nrows(npk.join(left, right, [0], [0], layout, 64)) == 0
    assert len(empty.index[0].layout[1]) == 1


@pytest.mark.parametrize("mode", sorted(_COMPOSE_MODES))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compose_with_a_stored_side_agrees(mode, data):
    """``compose`` with a stored outer side, inner side or both, against
    ``distinct`` of the Python kernel's join: the same pairs, the join's
    row count, and the dedup key of the pairs it leaves."""
    domain = data.draw(st.integers(1, 12), label="domain")
    stored = data.draw(st.sampled_from(["outer", "inner", "both"]))
    sides = []
    for name in ("outer", "inner"):
        width = data.draw(st.integers(2, 3), label=f"{name} width")
        ceiling = data.draw(st.integers(0, domain - 1), label=f"{name} ceiling")
        code = st.integers(0, ceiling)
        rows = data.draw(
            st.lists(st.tuples(*[code] * width), max_size=60), label=name
        )
        make = _stored if stored in (name, "both") else _tables
        key, column = data.draw(st.permutations(range(width)))[:2]
        sides.append((*make(rows, width), key, column))
    (np_outer, py_outer, ok, oc), (np_inner, py_inner, ik, ic) = sides
    joined = pyk.join(
        py_outer, py_inner, [ok], [ik], [(0, oc), (1, ic)], domain
    )
    with _patched(**_COMPOSE_MODES[mode]):
        got, rows = npk.compose(np_outer, ok, oc, np_inner, ik, ic, domain)
    assert rows == pyk.nrows(joined)
    assert _set(npk, got) == _set(pyk, pyk.distinct(joined, domain))
    if got.key is not None:
        assert got.key[0] == domain
        assert got.key[1].tolist() == sorted(
            first * domain + second for first, second in npk.to_rows(got)
        )
