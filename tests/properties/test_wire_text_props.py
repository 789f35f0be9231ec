"""Property: an answer's JSON text is ``json.dumps`` of its sorted rows.

``ResultSet.json_rows()`` renders a coded answer from its columns (each
distinct value encoded once, rows joined as strings) and keeps the text.
Whatever the columns hold — nothing, no column, one column, more columns
than pack into an int64, repeated values, unicode and control
characters, floats, booleans, values that do not order among themselves —
the text is, character for character, what the encoder writes for
``sorted_rows()`` with compact separators: on every kernel, and for
answers that never were coded.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.kernels import available_kernels, get_kernel
from repro.exec.result import ResultSet

KERNELS = available_kernels()

_TEXTS = st.text(max_size=6)
#: One strategy per kind of column: the values of a column order among
#: themselves unless it is the mixed kind.
_KINDS = {
    "int": st.integers(-(2**40), 2**40),
    "float": st.floats(allow_nan=False),
    "number": st.integers(-5, 5) | st.floats(-5, 5) | st.booleans(),
    "text": _TEXTS,
    "control": st.sampled_from(
        ['"', "\\", "\n", "\r\n", "\t", "\x00", "\x1f", " ", "é", "雪",
         "\U0001f600", 'a"b\nc', ",", "],[", ""]
    ),
    "mixed": st.integers(-3, 3) | _TEXTS | st.none() | st.floats(-3, 3),
}


@st.composite
def _answers(draw):
    """``(values, coded rows)``: a value list as the dictionary keeps it
    (equal values share one code) and distinct rows of codes into it."""
    kinds = draw(
        st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4)
    )
    pools = [
        draw(st.lists(_KINDS[kind], min_size=1, max_size=6)) for kind in kinds
    ]
    values = list(dict.fromkeys(value for pool in pools for value in pool))
    code_of = {value: code for code, value in enumerate(values)}
    cells = [st.sampled_from([code_of[v] for v in pool]) for pool in pools]
    rows = draw(st.lists(st.tuples(*cells), max_size=24, unique=True))
    return values, rows


def _dumps(answer: ResultSet) -> str:
    return json.dumps(answer.sorted_rows(), separators=(",", ":"))


def _check(answer: ResultSet) -> None:
    expected = _dumps(answer)
    assert not answer.json_built
    text = answer.json_rows()
    assert text == expected
    assert answer.json_built and answer.json_rows() is text
    assert json.loads(text) == json.loads(expected)


@given(_answers())
@settings(max_examples=150, deadline=None)
def test_text_is_the_encoders_on_every_kernel(drawn):
    values, rows = drawn
    width = len(rows[0]) if rows else 2
    for name in KERNELS:
        _check(ResultSet(get_kernel(name).from_rows(rows, width), values))
    decoded = [tuple(values[code] for code in row) for row in rows]
    _check(ResultSet.from_rows(decoded))


@pytest.mark.parametrize("kernel", KERNELS)
class TestTheShapesARankedSortCanMeet:
    def test_empty_and_zero_column(self, kernel):
        kernel = get_kernel(kernel)
        assert ResultSet(kernel.empty(3), ["a"]).json_rows() == "[]"
        assert ResultSet(kernel.from_columns([], 0), []).json_rows() == "[]"
        assert ResultSet(kernel.from_columns([], 4), []).json_rows() == "[[]]"

    def test_one_column_and_duplicate_values(self, kernel):
        values = ["b", "a", "c"]
        singles = get_kernel(kernel).from_rows([(2,), (0,), (1,)], 1)
        assert ResultSet(singles, values).json_rows() == '[["a"],["b"],["c"]]'
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        answer = ResultSet(get_kernel(kernel).from_rows(pairs, 2), values)
        assert answer.json_rows() == '[["a","a"],["a","b"],["b","a"],["b","b"]]'

    def test_rows_too_wide_to_pack_into_an_int64(self, kernel):
        # Every column a permutation of 300 values: 300^8 > 2^62, so an
        # array kernel declines and the unbounded-integer path ranks.
        values = list(range(300))
        rows = [tuple((row * step) % 300 for step in (1, 7, 11, 13, 17, 19, 23, 29))
                for row in range(300)]
        table = get_kernel(kernel).from_rows(rows, 8)
        assert getattr(table, "sorted_ranks", lambda values: None)(values) is None
        _check(ResultSet(table, values))

    def test_booleans_nulls_and_floats_keep_their_spelling(self, kernel):
        values = [True, None, 2.5, -0.0, 1e300, float("inf"), "x"]
        rows = [(0, 2), (0, 3), (0, 4), (0, 5)]
        answer = ResultSet(get_kernel(kernel).from_rows(rows, 2), values)
        assert answer.json_rows() == (
            "[[true,-0.0],[true,2.5],[true,1e+300],[true,Infinity]]"
        )
        mixed = ResultSet(
            get_kernel(kernel).from_rows([(1, 6), (2, 0), (6, 1)], 2), values
        )
        assert mixed.json_rows() == _dumps(mixed)  # the repr order

    def test_values_that_are_containers_are_encoded_one_by_one(self, kernel):
        values = [(1, 2), (0, "a,b"), (3,)]
        singles = get_kernel(kernel).from_rows([(0,), (1,), (2,)], 1)
        answer = ResultSet(singles, values)
        assert answer.json_rows() == '[[[0,"a,b"]],[[1,2]],[[3]]]'
        assert answer.json_rows() == _dumps(answer)
