"""Property: the numpy kernel and the pure-Python kernel agree row for row.

The same random coded tables go through both kernels' ``join``,
``distinct`` and ``difference``; the Python kernel (dict-of-int hash join, sets of row tuples) is the
reference. Row *order* is not compared — it is not part of a coded
table's contract — but joins are compared as bags and every set-valued
output is checked to hold no duplicate.

The domains cover both numpy join layouts (the counting layout over the
code domain and the packed sorted one), the 16-bit boundary of the
counting layout's radix sort, a single code, and keys and rows too wide
to pack; tables are also run memmap-backed, as the spill path hands
them over.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import kernels_python as pyk
from repro.exec.kernels import kernels_numpy as npk
from repro.exec.spill import SpillManager, is_spilled, spill_kernel_table

if npk is None:
    pytest.skip("compares the numpy kernel", allow_module_level=True)

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


def _tables(rows, width, manager=None):
    """The same rows as a numpy table (memmap-backed when ``manager``)
    and as a Python-kernel table."""
    table = npk.from_rows(rows, width)
    if manager is not None and rows and width:
        table = spill_kernel_table(manager, npk, table, "prop")
        assert is_spilled(table)
    return table, pyk.from_rows(rows, width)


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


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_join_agrees(data, spilled):
    domain, width, rows = data.draw(_coded(widths=(2, 3)))
    left_rows, right_rows = data.draw(rows), data.draw(rows)
    key_width = data.draw(st.sampled_from([1, 2]), label="key width")
    columns = st.lists(
        st.integers(0, width - 1), min_size=key_width, max_size=key_width
    )
    left_key, right_key = data.draw(columns), data.draw(columns)
    layout = _layout(data, width, width)
    with SpillManager() as manager:
        spill = manager if spilled else None
        np_left, py_left = _tables(left_rows, width, spill)
        np_right, py_right = _tables(right_rows, width, spill)
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


@given(st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_distinct_agrees(data, spilled):
    domain, width, rows = data.draw(_coded(widths=(0, 1, 2, 3)))
    drawn = data.draw(rows)
    with SpillManager() as manager:
        np_table, py_table = _tables(drawn, width, manager if spilled else None)
        got = npk.distinct(np_table, domain)
        want = pyk.distinct(py_table, domain)
        assert _set(npk, got) == _set(pyk, want) == set(drawn)
        assert npk.width(got) == width


@given(st.data(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_difference_rounds_agree(data, dedup_first, spilled):
    """Several rounds threading the state: every delta is the same set
    on both kernels whether or not a ``distinct`` ran in front (inputs
    hold duplicates when none did), and the deltas partition the union."""
    domain, width, rows = data.draw(_coded(widths=(0, 1, 2, 3), max_rows=12))
    rounds = data.draw(st.lists(rows, min_size=1, max_size=5), label="rounds")
    np_state, py_state = npk.empty_state(), pyk.empty_state()
    seen: set = set()
    with SpillManager() as manager:
        for drawn in rounds:
            np_table, py_table = _tables(
                drawn, width, manager if spilled else None
            )
            if dedup_first:
                np_table = npk.distinct(np_table, domain)
                py_table = pyk.distinct(py_table, domain)
            np_delta, np_state = npk.difference(np_table, np_state, domain)
            py_delta, py_state = pyk.difference(py_table, py_state, domain)
            fresh = set(drawn) - seen
            assert _set(npk, np_delta) == _set(pyk, py_delta) == fresh
            assert npk.width(np_delta) == width
            seen |= fresh
