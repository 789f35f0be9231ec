"""Wire-model validation for the HTTP serving tier."""

from __future__ import annotations

import json

import pytest

from repro.engine.options import ExecOptions
from repro.errors import RequestError
from repro.server.models import (
    MAX_BATCH_QUERIES,
    MAX_QUERY_CHARS,
    MAX_WRITE_ROWS,
    BatchRequest,
    ExplainRequest,
    QueryRequest,
    WriteRequest,
    rows_payload,
)

QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"


class TestQueryRequest:
    def test_minimal_payload(self):
        request = QueryRequest.from_payload({"query": QUERY})
        assert request.query == QUERY
        assert request.backend == "vec"
        assert request.rewrite is True
        assert request.timeout_seconds is None
        assert request.options is None

    def test_full_payload(self):
        request = QueryRequest.from_payload(
            {
                "query": QUERY,
                "backend": "ra",
                "timeout_seconds": 2.5,
                "rewrite": False,
                "options": {"planner": "cost"},
            }
        )
        assert request.backend == "ra"
        assert request.timeout_seconds == 2.5
        assert request.rewrite is False
        assert request.options == ExecOptions(planner="cost")

    @pytest.mark.parametrize(
        "payload,field",
        [
            ([QUERY], None),  # not an object at all
            ({}, "query"),
            ({"query": 42}, "query"),
            ({"query": "   "}, "query"),
            ({"query": "x" * (MAX_QUERY_CHARS + 1)}, "query"),
            ({"query": QUERY, "backend": "warp"}, "backend"),
            # ``options.planner`` is the one spelling of the planner.
            ({"query": QUERY, "planner": "cost"}, "planner"),
            ({"query": QUERY, "timeout_seconds": "fast"}, "timeout_seconds"),
            ({"query": QUERY, "timeout_seconds": 0}, "timeout_seconds"),
            ({"query": QUERY, "timeout_seconds": True}, "timeout_seconds"),
            ({"query": QUERY, "rewrite": "yes"}, "rewrite"),
            ({"query": QUERY, "querry": "typo"}, "querry"),
            ({"query": QUERY, "options": {"planner": "psychic"}}, "options"),
        ],
    )
    def test_rejections(self, payload, field):
        with pytest.raises(RequestError) as excinfo:
            QueryRequest.from_payload(payload)
        if field is not None:
            assert excinfo.value.field == field


class TestBatchRequest:
    def test_queries_become_a_tuple(self):
        request = BatchRequest.from_payload({"queries": [QUERY, QUERY]})
        assert request.queries == (QUERY, QUERY)

    @pytest.mark.parametrize(
        "queries",
        [
            [],
            "not-a-list",
            [QUERY, ""],
            [QUERY, 7],
            ["q"] * (MAX_BATCH_QUERIES + 1),
        ],
    )
    def test_rejections(self, queries):
        with pytest.raises(RequestError):
            BatchRequest.from_payload({"queries": queries})


class TestWriteRequest:
    def test_rows_become_tuples(self):
        request = WriteRequest.from_payload(
            {"table": "isLocatedIn", "rows": [[1, 2], [2, 3]]}
        )
        assert request.rows == ((1, 2), (2, 3))

    @pytest.mark.parametrize(
        "payload",
        [
            {"table": "t"},  # missing rows
            {"rows": [[1]]},  # missing table
            {"table": "t", "rows": []},
            {"table": "t", "rows": "nope"},
            {"table": "t", "rows": ["not-a-list"]},
            {"table": "t", "rows": [[{"nested": "object"}]]},
            {"table": "t", "rows": [[1]] * (MAX_WRITE_ROWS + 1)},
        ],
    )
    def test_rejections(self, payload):
        with pytest.raises(RequestError):
            WriteRequest.from_payload(payload)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_rejected(self, text):
        # ``json.loads`` reads them; no answer holding one is valid JSON.
        payload = json.loads(f'{{"table": "t", "rows": [[1, 2.5], [3, {text}]]}}')
        with pytest.raises(RequestError) as caught:
            WriteRequest.from_payload(payload)
        assert caught.value.payload()["field"] == "rows"
        assert "rows[1]" in str(caught.value)


class TestExplainRequest:
    def test_minimal_payload(self):
        request = ExplainRequest.from_payload({"query": QUERY})
        assert request.backend == "vec"

    def test_no_timeout_field(self):
        with pytest.raises(RequestError):
            ExplainRequest.from_payload(
                {"query": QUERY, "timeout_seconds": 1.0}
            )


class TestRowsPayload:
    def test_sorted_lists(self):
        assert rows_payload(frozenset({(2,), (1,)})) == [[1], [2]]

    def test_mixed_types_fall_back_to_repr_order(self):
        payload = rows_payload(frozenset({(1,), ("a",)}))
        assert sorted(payload, key=repr) == payload or len(payload) == 2
