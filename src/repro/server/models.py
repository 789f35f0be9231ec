"""JSON request/response models for the HTTP serving tier.

Plain stdlib dataclasses with explicit validation (the wire surface is
modeled on production graph-API request schemas, but this repo is
dependency-free, so there is no pydantic): each request class has a
``from_payload`` constructor that checks presence, types and bounds and
raises :class:`~repro.errors.RequestError` — which the HTTP layer maps
to a 400 with a structured body — before anything reaches a session.

This module is also the **single place** errors become HTTP responses:
:data:`HTTP_STATUS_BY_CODE` maps every stable
:attr:`~repro.errors.ReproError.code` in the taxonomy to a status, and
:func:`error_response` renders the structured JSON error body. Handlers
never map exceptions ad hoc.
"""

from __future__ import annotations

import json
import math
from collections.abc import Set
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping

from repro.engine.options import DEFAULT_BACKEND
from repro.errors import ReproError, RequestError
from repro.exec.result import ResultSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.options import ExecOptions

#: Hard caps on request shapes — breaches are 400s, not truncations.
MAX_QUERY_CHARS = 20_000
MAX_BATCH_QUERIES = 1_024
MAX_WRITE_ROWS = 100_000

#: The one errors -> HTTP statuses table (satellite: unified taxonomy).
#: Codes come from :mod:`repro.errors`; anything unlisted is a 500.
HTTP_STATUS_BY_CODE: Mapping[str, int] = {
    "bad_request": 400,
    "parse_error": 400,
    "schema_error": 400,
    "unknown_label": 400,
    "empty_query": 400,
    "translation_error": 400,
    "unknown_tenant": 404,
    "timeout": 408,
    "consistency_error": 409,
    # A breached ResourceBudget cap (rows/bytes) is the request asking
    # for more than its governed allowance: 413 Payload Too Large.
    "resource_exhausted": 413,
    "quota_exceeded": 429,
    "evaluation_error": 500,
    "injected_fault": 500,
    "internal": 500,
    # Every substrate vetoed by an open circuit breaker: retry later.
    "backend_unavailable": 503,
    "service_closed": 503,
}

#: Statuses that carry a ``Retry-After`` header on the wire: request
#: timeout, quota rejection, and breaker-open/shutdown unavailability.
RETRY_AFTER_STATUSES = frozenset({408, 429, 503})


def retry_after_seconds(status: int, body: object) -> int | None:
    """The ``Retry-After`` value (whole seconds, >= 1) for a response.

    ``None`` for statuses outside :data:`RETRY_AFTER_STATUSES`. Errors
    that know their own horizon (breaker cool-down remaining) carry a
    ``retry_after_seconds`` hint in their payload; otherwise a 1-second
    default tells well-behaved clients to back off without idling them.
    """
    if status not in RETRY_AFTER_STATUSES:
        return None
    error = body.get("error") if isinstance(body, Mapping) else None
    hint = error.get("retry_after_seconds") if isinstance(error, Mapping) else None
    if isinstance(hint, (int, float)) and hint > 0:
        return max(1, math.ceil(hint))
    return 1


def error_response(error: BaseException) -> tuple[int, dict]:
    """Render any exception as ``(status, {"error": {...}})``.

    :class:`ReproError` subclasses carry their own code and structured
    payload; anything else is an opaque 500 — the class name is included
    but never the traceback.
    """
    if isinstance(error, ReproError):
        payload = error.payload()
        status = HTTP_STATUS_BY_CODE.get(payload["code"], 500)
        return status, {"error": payload}
    return 500, {
        "error": {
            "code": "internal",
            "message": f"{type(error).__name__}: {error}",
        }
    }


# -- validation helpers --------------------------------------------------------
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _require_mapping(payload: object, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise RequestError(
            f"{what} body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _reject_unknown_fields(payload: Mapping, allowed: frozenset[str]) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise RequestError(
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"accepted fields: {', '.join(sorted(allowed))}",
            field=unknown[0],
        )


def _string_field(
    payload: Mapping, field: str, *, max_chars: int = MAX_QUERY_CHARS
) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value.strip():
        raise RequestError(
            f"field {field!r} must be a non-empty string", field=field
        )
    if len(value) > max_chars:
        raise RequestError(
            f"field {field!r} exceeds {max_chars} characters", field=field
        )
    return value


def _backend_field(payload: Mapping) -> str:
    from repro.engine import available_backends

    backend = payload.get("backend", DEFAULT_BACKEND)
    if backend == "auto":
        # Not a registered backend: the session runs the default
        # backend under the cost planner.
        return backend
    names = available_backends()
    if backend not in names:
        raise RequestError(
            f"unknown backend {backend!r}; registered backends: "
            f"{', '.join(names)}, auto",
            field="backend",
        )
    return backend


def _options_field(payload: Mapping) -> "ExecOptions | None":
    """The request's ``options`` object as one ``ExecOptions``, validated."""
    from repro.engine.options import ExecOptions
    from repro.planner import validate_planner

    value = payload.get("options")
    if value is None:
        return None
    try:
        options = ExecOptions.from_mapping(_require_mapping(value, "options"))
        if options.planner is not None:
            validate_planner(options.planner)
    except ValueError as error:
        raise RequestError(str(error), field="options") from error
    return options


def _bool_field(payload: Mapping, field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise RequestError(
            f"field {field!r} must be a boolean", field=field
        )
    return value


def _timeout_field(payload: Mapping) -> float | None:
    value = payload.get("timeout_seconds")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            "field 'timeout_seconds' must be a number of seconds",
            field="timeout_seconds",
        )
    if value <= 0:
        raise RequestError(
            "field 'timeout_seconds' must be positive",
            field="timeout_seconds",
        )
    return float(value)


# -- request models ------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """``POST /v1/{tenant}/query`` — one UCQT against one tenant graph."""

    query: str
    backend: str = DEFAULT_BACKEND
    timeout_seconds: float | None = None
    rewrite: bool = True
    options: "ExecOptions | None" = None

    FIELDS = frozenset(
        {"query", "backend", "timeout_seconds", "rewrite", "options"}
    )

    @classmethod
    def from_payload(cls, payload: object) -> "QueryRequest":
        payload = _require_mapping(payload, "query")
        _reject_unknown_fields(payload, cls.FIELDS)
        return cls(
            query=_string_field(payload, "query"),
            backend=_backend_field(payload),
            timeout_seconds=_timeout_field(payload),
            rewrite=_bool_field(payload, "rewrite", True),
            options=_options_field(payload),
        )


@dataclass(frozen=True)
class BatchRequest:
    """``POST /v1/{tenant}/batch`` — many UCQTs, answered as one batch."""

    queries: tuple[str, ...]
    backend: str = DEFAULT_BACKEND
    timeout_seconds: float | None = None
    rewrite: bool = True
    options: "ExecOptions | None" = None

    FIELDS = frozenset(
        {"queries", "backend", "timeout_seconds", "rewrite", "options"}
    )

    @classmethod
    def from_payload(cls, payload: object) -> "BatchRequest":
        payload = _require_mapping(payload, "batch")
        _reject_unknown_fields(payload, cls.FIELDS)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise RequestError(
                "field 'queries' must be a non-empty list of strings",
                field="queries",
            )
        if len(queries) > MAX_BATCH_QUERIES:
            raise RequestError(
                f"batch of {len(queries)} exceeds the {MAX_BATCH_QUERIES} "
                "query cap",
                field="queries",
            )
        for index, query in enumerate(queries):
            if not isinstance(query, str) or not query.strip():
                raise RequestError(
                    f"queries[{index}] must be a non-empty string",
                    field="queries",
                )
            if len(query) > MAX_QUERY_CHARS:
                raise RequestError(
                    f"queries[{index}] exceeds {MAX_QUERY_CHARS} characters",
                    field="queries",
                )
        return cls(
            queries=tuple(queries),
            backend=_backend_field(payload),
            timeout_seconds=_timeout_field(payload),
            rewrite=_bool_field(payload, "rewrite", True),
            options=_options_field(payload),
        )


@dataclass(frozen=True)
class WriteRequest:
    """``POST /v1/{tenant}/write`` — append rows to one store table."""

    table: str
    rows: tuple[tuple, ...]

    FIELDS = frozenset({"table", "rows"})

    @classmethod
    def from_payload(cls, payload: object) -> "WriteRequest":
        payload = _require_mapping(payload, "write")
        _reject_unknown_fields(payload, cls.FIELDS)
        table = _string_field(payload, "table", max_chars=500)
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise RequestError(
                "field 'rows' must be a non-empty list of rows "
                "(each row a list of scalar values)",
                field="rows",
            )
        if len(rows) > MAX_WRITE_ROWS:
            raise RequestError(
                f"write of {len(rows)} rows exceeds the {MAX_WRITE_ROWS} "
                "row cap",
                field="rows",
            )
        converted = []
        for index, row in enumerate(rows):
            if not isinstance(row, list):
                raise RequestError(
                    f"rows[{index}] must be a list of scalar values",
                    field="rows",
                )
            for value in row:
                if not isinstance(value, _SCALAR_TYPES):
                    raise RequestError(
                        f"rows[{index}] holds a "
                        f"{type(value).__name__}; only strings, numbers, "
                        "booleans and null are storable",
                        field="rows",
                    )
                if isinstance(value, float) and not math.isfinite(value):
                    # json.loads reads NaN/Infinity; an answer that
                    # returned one would not be JSON.
                    raise RequestError(
                        f"rows[{index}] holds {value!r}; only finite "
                        "numbers are storable",
                        field="rows",
                    )
            converted.append(tuple(row))
        return cls(table=table, rows=tuple(converted))


@dataclass(frozen=True)
class ExplainRequest:
    """``POST /v1/{tenant}/explain`` — render the plan, don't run it."""

    query: str
    backend: str = DEFAULT_BACKEND
    rewrite: bool = True
    options: "ExecOptions | None" = None

    FIELDS = frozenset({"query", "backend", "rewrite", "options"})

    @classmethod
    def from_payload(cls, payload: object) -> "ExplainRequest":
        payload = _require_mapping(payload, "explain")
        _reject_unknown_fields(payload, cls.FIELDS)
        return cls(
            query=_string_field(payload, "query"),
            backend=_backend_field(payload),
            rewrite=_bool_field(payload, "rewrite", True),
            options=_options_field(payload),
        )


# -- response helpers ----------------------------------------------------------
def rows_payload(rows: Set) -> list[list]:
    """Row sets as deterministic JSON: sorted lists of lists
    (:meth:`~repro.exec.result.ResultSet.sorted_rows`; a coded answer is
    serialised from its columns)."""
    if not isinstance(rows, ResultSet):
        rows = ResultSet.from_rows(rows)
    return rows.sorted_rows()


def spliced_body(head: Mapping, field: str, text: str) -> bytes:
    """The compact JSON bytes of ``head`` plus one last ``field`` whose
    value is ``text``, JSON already: what ``json.dumps`` writes for the
    whole body, without walking the answer again."""
    envelope = json.dumps(head, separators=(",", ":"))
    return f'{envelope[:-1]},"{field}":{text}}}'.encode()


def quotas_payload(quotas) -> dict:
    return asdict(quotas)
