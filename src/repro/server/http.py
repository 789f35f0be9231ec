"""A dependency-free asyncio HTTP front end over a tenant registry.

Implements just enough HTTP/1.1 on :func:`asyncio.start_server` to
serve JSON request/response traffic with keep-alive — no framework, no
new dependencies, same stdlib-only rule as the rest of the repo.

Routes::

    GET  /healthz                 liveness + tenant roster
    GET  /metrics                 full per-tenant metrics surface
    GET  /tenants                 tenant configs (quotas, store version)
    POST /v1/{tenant}/query       one query            (QueryRequest)
    POST /v1/{tenant}/batch       many queries         (BatchRequest)
    POST /v1/{tenant}/write       append rows          (WriteRequest)
    POST /v1/{tenant}/explain     render the plan      (ExplainRequest)

Every error body is the structured taxonomy payload from
:func:`repro.server.models.error_response` — handlers raise
:class:`~repro.errors.ReproError` subclasses and exactly one place maps
them to statuses.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from http import HTTPStatus
from typing import Awaitable, Callable, Mapping

from repro.errors import RequestError
from repro.server.models import (
    BatchRequest,
    ExplainRequest,
    QueryRequest,
    WriteRequest,
    error_response,
    quotas_payload,
    retry_after_seconds,
)
from repro.server.tenants import TenantRegistry

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_SERVER_NAME = "repro-graph-server"


@dataclass(frozen=True)
class _Request:
    method: str
    path: str
    version: str
    headers: Mapping[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class _BadRequest(Exception):
    """A malformed HTTP envelope (distinct from a malformed JSON body:
    those become taxonomy 400s; these may have no parseable request at
    all)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class HTTPGraphServer:
    """Serve a :class:`~repro.server.tenants.TenantRegistry` over HTTP.

    ``port=0`` binds an ephemeral port; :attr:`port` holds the actual
    one after :meth:`start` — tests and the load generator rely on it.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 8080,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "HTTPGraphServer":
        if self._server is not None:
            return self
        await self.registry.start_all()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEADER_BYTES,
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        await self.registry.close_all()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() the server first"
        await self._server.serve_forever()

    async def __aenter__(self) -> "HTTPGraphServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- connection handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    status, body = error.status, {
                        "error": {
                            "code": "bad_request",
                            "message": str(error),
                        }
                    }
                    await self._write_response(writer, status, body, False)
                    break
                if request is None:
                    break
                status, body = await self._dispatch(request)
                keep_alive = request.keep_alive
                await self._write_response(writer, status, body, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF between requests
            raise _BadRequest(400, "truncated request head") from None
        except asyncio.LimitOverrunError:
            raise _BadRequest(
                431, f"request head exceeds {MAX_HEADER_BYTES} bytes"
            ) from None

        head = blob.decode("latin-1").split("\r\n")
        parts = head[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(400, f"malformed request line: {head[0]!r}")
        method, target, version = parts
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _BadRequest(505, f"unsupported protocol {version!r}")

        headers: dict[str, str] = {}
        for line in head[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _BadRequest(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()

        if "transfer-encoding" in headers:
            raise _BadRequest(
                501, "chunked request bodies are not supported"
            )
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(
                400, f"invalid Content-Length {length_text!r}"
            ) from None
        if length < 0:
            raise _BadRequest(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(method, target.split("?", 1)[0], version, headers, body)

    # -- routing -----------------------------------------------------------
    async def _dispatch(self, request: _Request) -> tuple[int, dict | bytes]:
        try:
            return await self._route(request)
        except Exception as error:  # noqa: BLE001 — one mapping for all
            return error_response(error)

    async def _route(self, request: _Request) -> tuple[int, dict | bytes]:
        path = request.path
        if path in ("/healthz", "/metrics", "/tenants"):
            if request.method != "GET":
                return self._method_not_allowed(request.method, "GET")
            if path == "/healthz":
                return 200, {
                    "status": "ok",
                    "tenants": list(self.registry.names()),
                }
            if path == "/metrics":
                return 200, self.registry.metrics_payload()
            return 200, self._tenants_payload()

        segments = [piece for piece in path.split("/") if piece]
        if len(segments) == 3 and segments[0] == "v1":
            _, tenant_name, operation = segments
            handlers: dict[str, Callable[..., Awaitable[dict | bytes]]] = {
                "query": self._op_query,
                "batch": self._op_batch,
                "write": self._op_write,
                "explain": self._op_explain,
            }
            handler = handlers.get(operation)
            if handler is None:
                return 404, self._not_found(path)
            if request.method != "POST":
                return self._method_not_allowed(request.method, "POST")
            tenant = self.registry.get(tenant_name)
            payload = self._json_body(request)
            return 200, await handler(tenant, payload)
        return 404, self._not_found(path)

    @staticmethod
    def _json_body(request: _Request) -> object:
        if not request.body:
            raise RequestError("request body must be a JSON object")
        try:
            return json.loads(request.body)
        except json.JSONDecodeError as error:
            raise RequestError(
                f"request body is not valid JSON: {error}"
            ) from None

    @staticmethod
    def _not_found(path: str) -> dict:
        return {
            "error": {
                "code": "not_found",
                "message": f"no route for {path!r}",
            }
        }

    @staticmethod
    def _method_not_allowed(method: str, allowed: str) -> tuple[int, dict]:
        return 405, {
            "error": {
                "code": "method_not_allowed",
                "message": f"{method} not allowed here; use {allowed}",
            }
        }

    def _tenants_payload(self) -> dict:
        return {
            "tenants": {
                tenant.name: {
                    "dataset": tenant.dataset,
                    "backend": tenant.backend,
                    "quotas": quotas_payload(tenant.quotas),
                    "store_version": tenant.session.store.version,
                }
                for tenant in self.registry
            }
        }

    # -- operation handlers -------------------------------------------------
    @staticmethod
    async def _op_query(tenant, payload) -> bytes:
        return await tenant.query_body(QueryRequest.from_payload(payload))

    @staticmethod
    async def _op_batch(tenant, payload) -> bytes:
        return await tenant.batch_body(BatchRequest.from_payload(payload))

    @staticmethod
    async def _op_write(tenant, payload) -> dict:
        return await tenant.write(WriteRequest.from_payload(payload))

    @staticmethod
    async def _op_explain(tenant, payload) -> dict:
        return await tenant.explain(ExplainRequest.from_payload(payload))

    # -- response writing ---------------------------------------------------
    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: dict | bytes,
        keep_alive: bool,
    ) -> None:
        # Answers arrive as bytes, rendered already (the text kept on
        # the ResultSet inside its envelope); the rest are small dicts.
        data = body if isinstance(body, bytes) else json.dumps(
            body, separators=(",", ":")
        ).encode()
        try:
            phrase = HTTPStatus(status).phrase
        except ValueError:
            phrase = "Unknown"
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            f"Server: {_SERVER_NAME}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        # Back-pressure statuses (408/429/503) tell well-behaved clients
        # when to come back; the hint comes from the error payload when
        # the failure carries one (e.g. a breaker's cool-down horizon).
        retry_after = retry_after_seconds(status, body)
        if retry_after is not None:
            lines.append(f"Retry-After: {retry_after}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + data)
        await writer.drain()
