"""End-to-end tests of the multi-tenant HTTP serving tier.

Each test boots a real :class:`HTTPGraphServer` on an ephemeral port
and speaks HTTP/1.1 to it over asyncio streams — covering routing,
per-tenant quotas (429), request deadlines (408), the structured error
taxonomy on the wire, and snapshot isolation under a concurrent write.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.datasets.ldbc import ldbc_session
from repro.engine import GraphSession
from repro.engine.options import DEFAULT_BACKEND, ExecOptions
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.server import (
    HTTPGraphServer,
    Tenant,
    TenantQuotas,
    TenantRegistry,
)
from repro.workloads import LDBC_QUERIES

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


def _session() -> GraphSession:
    return GraphSession(yago_example_graph(), yago_example_schema())


def _registry(**quota_kwargs) -> TenantRegistry:
    registry = TenantRegistry()
    registry.add(
        Tenant("toy", _session(), TenantQuotas(**quota_kwargs))
    )
    return registry


async def _request(
    port: int,
    method: str,
    path: str,
    payload: object = None,
    *,
    raw_body: bytes | None = None,
    keep_alive: bool = False,
) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, body = await _request_on(
            reader, writer, method, path, payload,
            raw_body=raw_body, keep_alive=keep_alive,
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, body


async def _request_on(
    reader, writer, method, path, payload=None, *,
    raw_body=None, keep_alive=False,
) -> tuple[int, dict]:
    if raw_body is not None:
        body = raw_body
    elif payload is not None:
        body = json.dumps(payload).encode()
    else:
        body = b""
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split(b" ")[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    data = await reader.readexactly(length)
    return status, json.loads(data)


def _run(coro):
    return asyncio.run(coro)


class TestRoutes:
    def test_healthz_and_tenants(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                health = await _request(server.port, "GET", "/healthz")
                tenants = await _request(server.port, "GET", "/tenants")
                return health, tenants

        (health_status, health), (tenants_status, tenants) = _run(drive())
        assert health_status == 200
        assert health == {"status": "ok", "tenants": ["toy"]}
        assert tenants_status == 200
        assert tenants["tenants"]["toy"]["quotas"]["max_concurrent"] == 8

    def test_query_matches_direct_execution(self):
        session = _session()
        expected = sorted(map(list, session.execute(CLOSURE, "vec")))

        async def drive():
            registry = TenantRegistry()
            registry.add(Tenant("toy", _session()))
            async with HTTPGraphServer(registry, port=0) as server:
                return await _request(
                    server.port, "POST", "/v1/toy/query", {"query": CLOSURE}
                )

        status, body = _run(drive())
        assert status == 200
        assert body["rows"] == expected
        assert body["row_count"] == len(expected)
        assert body["tenant"] == "toy"

    def test_auto_query_runs_the_default_backend_cost_planned(
        self, monkeypatch
    ):
        expected = sorted(map(list, _session().execute(CLOSURE, "vec")))
        handles: list = []
        prepare = GraphSession.prepare
        monkeypatch.setattr(
            GraphSession, "prepare",
            lambda self, *a, **k: handles.append(prepare(self, *a, **k))
            or handles[-1],
        )

        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request(
                    server.port, "POST", "/v1/toy/query",
                    {"query": CLOSURE, "backend": "auto"},
                )

        status, body = _run(drive())
        assert status == 200
        assert body["rows"] == expected
        assert [
            (handle.backend_name, handle.exec_options.planner)
            for handle in handles
        ] == [(DEFAULT_BACKEND, "cost")]

    def test_batch(self):
        session = _session()
        expected = [
            sorted(map(list, session.execute(q, "vec")))
            for q in (CLOSURE, CHAIN)
        ]

        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request(
                    server.port,
                    "POST",
                    "/v1/toy/batch",
                    {"queries": [CLOSURE, CHAIN]},
                )

        status, body = _run(drive())
        assert status == 200
        assert body["results"] == expected
        assert body["row_counts"] == [len(rows) for rows in expected]

    def test_write_bumps_store_version_and_counts(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                before = await _request(
                    server.port, "POST", "/v1/toy/query", {"query": CLOSURE}
                )
                write = await _request(
                    server.port,
                    "POST",
                    "/v1/toy/write",
                    {"table": "isLocatedIn", "rows": [[100, 101]]},
                )
                after = await _request(
                    server.port, "POST", "/v1/toy/query", {"query": CLOSURE}
                )
                return before, write, after

        (_, before), (write_status, write), (_, after) = _run(drive())
        assert write_status == 200
        assert write["rows_added"] == 1
        assert write["store_version"] == before["store_version"] + 1
        assert after["store_version"] == write["store_version"]
        assert after["row_count"] == before["row_count"] + 1

    def test_explain(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request(
                    server.port, "POST", "/v1/toy/explain", {"query": CLOSURE}
                ), await _request(
                    server.port, "POST", "/v1/toy/explain",
                    {"query": CLOSURE, "options": {"planner": "cost"}},
                )

        (status, body), (cost_status, cost_body) = _run(drive())
        assert status == 200
        assert "plan" in body and body["plan"]
        assert "planner" not in body["report"]
        assert cost_status == 200
        planner = cost_body["report"]["planner"]
        assert planner["candidates"] >= 1 and planner["plan_seconds"] > 0
        assert "plan_seconds" not in cost_body["plan"]

    def test_metrics_shape(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                await _request(
                    server.port, "POST", "/v1/toy/query", {"query": CLOSURE}
                )
                return await _request(server.port, "GET", "/metrics")

        status, body = _run(drive())
        assert status == 200
        tenant = body["tenants"]["toy"]
        assert tenant["requests"]["requests_total"] == 1
        assert tenant["requests"]["completed"] == 1
        assert tenant["service"]["submitted"] == 1
        for cache in ("rewrite", "plan", "result"):
            assert cache in tenant["caches"]
        assert {"reads", "fallbacks", "sessions_built"} <= set(
            tenant["snapshots"]
        )
        assert tenant["store"]["version"] >= 0
        assert tenant["planner"]["mode"] in ("greedy", "cost")

    def test_keep_alive_serves_multiple_requests(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    first = await _request_on(
                        reader, writer, "GET", "/healthz", keep_alive=True
                    )
                    second = await _request_on(
                        reader,
                        writer,
                        "POST",
                        "/v1/toy/query",
                        {"query": CLOSURE},
                        keep_alive=True,
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return first, second

        (first_status, _), (second_status, body) = _run(drive())
        assert first_status == 200
        assert second_status == 200
        assert body["row_count"] > 0


class TestErrorsOnTheWire:
    @pytest.mark.parametrize(
        "method,path,payload,status,code",
        [
            ("GET", "/nope", None, 404, "not_found"),
            ("POST", "/healthz", None, 405, "method_not_allowed"),
            ("GET", "/v1/toy/query", None, 405, "method_not_allowed"),
            ("POST", "/v1/ghost/query", {"query": CLOSURE}, 404,
             "unknown_tenant"),
            ("POST", "/v1/toy/nope", {"query": CLOSURE}, 404, "not_found"),
            ("POST", "/v1/toy/query", {"nope": 1}, 400, "bad_request"),
            ("POST", "/v1/toy/query", {"query": "x1 <-"}, 400,
             "parse_error"),
            ("POST", "/v1/toy/query",
             {"query": "x1, x2 <- (x1, warpDrive, x2)"}, 400,
             "unknown_label"),
            ("POST", "/v1/toy/write",
             {"table": "ghost", "rows": [[1, 2]]}, 400, "bad_request"),
            ("POST", "/v1/toy/write",
             {"table": "isLocatedIn", "rows": [[1]]}, 400, "bad_request"),
            ("POST", "/v1/toy/write",
             {"table": "isLocatedIn", "rows": [[1, float("nan")]]}, 400,
             "bad_request"),
            # A knob that was deleted is an unknown option like any other.
            ("POST", "/v1/toy/query",
             {"query": CLOSURE, "options": {"shard_workers": 2}}, 400,
             "bad_request"),
            ("POST", "/v1/toy/query",
             {"query": CLOSURE, "options": {"spill_threshold_bytes": 1}},
             400, "bad_request"),
        ],
    )
    def test_structured_errors(self, method, path, payload, status, code):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request(server.port, method, path, payload)

        got_status, body = _run(drive())
        assert got_status == status
        assert body["error"]["code"] == code
        if "options" in (payload or {}):
            assert body["error"]["field"] == "options"
            assert repr(next(iter(payload["options"]))) in (
                body["error"]["message"]
            )

    def test_unparseable_json_body(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request(
                    server.port,
                    "POST",
                    "/v1/toy/query",
                    raw_body=b"{not json",
                )

        status, body = _run(drive())
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "JSON" in body["error"]["message"]


class TestQuotas:
    def test_quota_breach_is_429_and_counted(self):
        # One slot, zero pending: while a request holds the slot (its
        # batch stalled on the session lock we hold), any overlapping
        # request must be rejected with 429 — deterministically.
        async def drive():
            tenant = Tenant(
                "toy",
                _session(),
                TenantQuotas(max_concurrent=1, max_pending=0),
            )
            registry = TenantRegistry()
            registry.add(tenant)
            async with HTTPGraphServer(registry, port=0) as server:
                lock = tenant.service._session_lock
                lock.acquire()
                try:
                    hog = asyncio.ensure_future(
                        _request(
                            server.port,
                            "POST",
                            "/v1/toy/query",
                            {"query": CLOSURE},
                        )
                    )
                    while tenant._active < 1:
                        await asyncio.sleep(0.001)
                    rejected_status, rejected = await _request(
                        server.port,
                        "POST",
                        "/v1/toy/query",
                        {"query": CLOSURE},
                    )
                finally:
                    lock.release()
                hog_status, _ = await hog
                metrics_status, metrics = await _request(
                    server.port, "GET", "/metrics"
                )
                return rejected_status, rejected, hog_status, metrics

        rejected_status, rejected, hog_status, metrics = _run(drive())
        assert hog_status == 200
        assert rejected_status == 429
        assert rejected["error"]["code"] == "quota_exceeded"
        assert rejected["error"]["quota"] == "max_pending"
        assert rejected["error"]["limit"] == 0
        assert metrics["tenants"]["toy"]["requests"]["rejected_quota"] == 1

    @pytest.mark.parametrize(
        "shape", [{}, {"rewrite": False}], ids=["plain", "no-rewrite"]
    )
    def test_request_timeout_is_408(self, shape):
        # A big batch under a vanishing deadline: the wall-clock cap
        # must fire long before the work drains, whatever the shape.
        queries = [
            "x1, x2 <- (x1, " + "/".join(["isLocatedIn+"] * n) + ", x2)"
            for n in range(1, 41)
        ]

        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request(
                    server.port,
                    "POST",
                    "/v1/toy/batch",
                    {"queries": queries, "timeout_seconds": 1e-9, **shape},
                )

        status, body = _run(drive())
        assert status == 408
        assert body["error"]["code"] == "timeout"
        assert body["error"]["budget_seconds"] == pytest.approx(1e-9)


class TestSnapshotIsolation:
    def test_reads_admitted_before_write_see_old_version(self):
        """A read admitted at version v, executing after a write bumped
        the store, must answer with exactly version v's rows.

        The interleaving is forced: the session lock is held while the
        reads are admitted (their batches block at execution), the
        write lands, and only then may the reads execute — every one of
        them runs *after* the store moved and must take the snapshot
        path.
        """

        async def drive():
            session = _session()
            tenant = Tenant("toy", session)
            registry = TenantRegistry()
            registry.add(tenant)
            async with HTTPGraphServer(registry, port=0) as server:
                service = tenant.service
                lock = service._session_lock
                lock.acquire()  # stall every batch at execution time
                try:
                    reads = [
                        asyncio.ensure_future(service.submit(CLOSURE))
                        for _ in range(6)
                    ]
                    while service.stats.submitted < 6:
                        await asyncio.sleep(0.001)
                    # The write is serialised by the very lock we hold,
                    # so apply it directly — same effect as the HTTP
                    # write path acquiring the lock next.
                    session.store.add_rows("isLocatedIn", [(100, 101)])
                finally:
                    lock.release()
                results = await asyncio.gather(*reads)
                after = await service.submit(CLOSURE)
                metrics_status, metrics = await _request(
                    server.port, "GET", "/metrics"
                )
                assert metrics_status == 200
                return results, after, service, metrics

        results, after, service, metrics = _run(drive())
        expected_before = _session().execute(CLOSURE, "vec")
        assert all(rows == expected_before for rows in results)
        assert (100, 101) in after
        assert service.snapshot_reads >= 1
        assert service.snapshot_sessions_built >= 1
        assert service.snapshot_fallbacks == 0
        snapshots = metrics["tenants"]["toy"]["snapshots"]
        assert snapshots["reads"] == service.snapshot_reads


# -- the Retry-After contract on the wire --------------------------------------
async def _request_raw(
    port: int, method: str, path: str, payload: object = None
) -> tuple[int, dict[str, str], bytes]:
    """One request on its own connection: status, response headers and
    the body bytes as sent."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split(b" ")[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _request_headers(
    port: int, method: str, path: str, payload: object = None
) -> tuple[int, dict[str, str], dict]:
    """Like :func:`_request`, but keeps the response headers."""
    status, headers, data = await _request_raw(port, method, path, payload)
    return status, headers, json.loads(data)


class TestRetryAfter:
    def test_success_carries_no_retry_after(self):
        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request_headers(
                    server.port, "POST", "/v1/toy/query", {"query": CLOSURE}
                )

        status, headers, _ = _run(drive())
        assert status == 200
        assert "retry-after" not in headers

    def test_quota_429_carries_retry_after(self):
        async def drive():
            tenant = Tenant(
                "toy",
                _session(),
                TenantQuotas(max_concurrent=1, max_pending=0),
            )
            registry = TenantRegistry()
            registry.add(tenant)
            async with HTTPGraphServer(registry, port=0) as server:
                lock = tenant.service._session_lock
                lock.acquire()
                try:
                    hog = asyncio.ensure_future(
                        _request(
                            server.port,
                            "POST",
                            "/v1/toy/query",
                            {"query": CLOSURE},
                        )
                    )
                    while tenant._active < 1:
                        await asyncio.sleep(0.001)
                    rejected = await _request_headers(
                        server.port,
                        "POST",
                        "/v1/toy/query",
                        {"query": CLOSURE},
                    )
                finally:
                    lock.release()
                await hog
                return rejected

        status, headers, body = _run(drive())
        assert status == 429
        assert body["error"]["code"] == "quota_exceeded"
        assert int(headers["retry-after"]) >= 1

    def test_deadline_408_carries_retry_after(self):
        queries = [
            "x1, x2 <- (x1, " + "/".join(["isLocatedIn+"] * n) + ", x2)"
            for n in range(1, 41)
        ]

        async def drive():
            async with HTTPGraphServer(_registry(), port=0) as server:
                return await _request_headers(
                    server.port,
                    "POST",
                    "/v1/toy/batch",
                    {"queries": queries, "timeout_seconds": 1e-9},
                )

        status, headers, body = _run(drive())
        assert status == 408
        assert body["error"]["code"] == "timeout"
        assert int(headers["retry-after"]) >= 1

    def test_breaker_open_503_carries_the_cooldown(self):
        from repro.engine import BreakerConfig
        from repro.testing.faults import FaultInjector, FaultRule, install

        async def drive():
            registry = TenantRegistry()
            registry.add(
                Tenant(
                    "toy",
                    _session(),
                    breaker_config=BreakerConfig(
                        failure_threshold=1, cooldown_seconds=600.0
                    ),
                )
            )
            with install(FaultInjector([FaultRule("backend.execute")])):
                async with HTTPGraphServer(registry, port=0) as server:
                    # Every backend trips its breaker; once the chain is
                    # exhausted the tier answers 503 + the cool-down.
                    for _ in range(8):
                        response = await _request_headers(
                            server.port,
                            "POST",
                            "/v1/toy/query",
                            {"query": CLOSURE},
                        )
                        if response[0] == 503:
                            return response
            return response

        status, headers, body = _run(drive())
        assert status == 503
        assert body["error"]["code"] == "backend_unavailable"
        # The header reflects the breaker horizon, not the 1s default.
        assert int(headers["retry-after"]) >= 2


# -- answers are rendered once ---------------------------------------------------
def _compact(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode()


class TestAnswersAreRenderedOnce:
    """The text kept on a cached answer is what every later read sends;
    the bodies stay the bytes ``json.dumps`` writes for the whole dict."""

    QUERIES = [CLOSURE, CHAIN, CLOSURE]

    @staticmethod
    def _cached_registry() -> TenantRegistry:
        registry = TenantRegistry()
        session = GraphSession(
            yago_example_graph(), yago_example_schema(), result_cache_size=8
        )
        registry.add(Tenant("toy", session))
        return registry

    def test_repeated_reads_and_batches_send_the_same_bytes(self):
        async def drive():
            async with HTTPGraphServer(
                self._cached_registry(), port=0
            ) as server:
                singles = [
                    await _request_raw(
                        server.port, "POST", "/v1/toy/query", {"query": query}
                    )
                    for query in self.QUERIES
                ]
                batch = await _request_raw(
                    server.port, "POST", "/v1/toy/batch",
                    {"queries": self.QUERIES},
                )
                _, metrics = await _request(server.port, "GET", "/metrics")
            return singles, batch, metrics["tenants"]["toy"]["wire"]

        singles, batch, wire = _run(drive())
        assert [status for status, _, _ in singles] == [200] * 3
        first, chain, again = (data for _, _, data in singles)
        assert first == again and first != chain
        oracle = _session()
        for query, data in zip(self.QUERIES, (first, chain, again)):
            rows = [list(r) for r in sorted(oracle.execute(query, "reference"))]
            assert data == _compact({
                "tenant": "toy", "backend": "vec",
                "store_version": oracle.store.version,
                "row_count": len(rows), "rows": rows,
            })
        status, _, data = batch
        assert status == 200
        bodies = [json.loads(data) for _, _, data in singles]
        assert data == _compact({
            "tenant": "toy", "backend": "vec",
            "store_version": oracle.store.version,
            "queries": 3,
            "row_counts": [body["row_count"] for body in bodies],
            "results": [body["rows"] for body in bodies],
        })
        # Two distinct answers were rendered; the repeat and the whole
        # batch reused their texts.
        assert wire["texts_built"] == 2 and wire["texts_reused"] == 4
        assert wire["bytes_sent"] == sum(
            len(data) for _, _, data in (*singles, batch)
        )

    def test_a_write_that_changes_no_answer_keeps_the_text(self):
        async def drive():
            async with HTTPGraphServer(
                self._cached_registry(), port=0
            ) as server:
                query = (server.port, "POST", "/v1/toy/query",
                         {"query": CLOSURE, "rewrite": False})
                before = await _request_raw(*query)
                # 1 -> 6 -> 5 is there already: (1, 5) adds no answer row.
                await _request(
                    server.port, "POST", "/v1/toy/write",
                    {"table": "isLocatedIn", "rows": [[1, 5]]},
                )
                after = await _request_raw(*query)
                _, metrics = await _request(server.port, "GET", "/metrics")
            return before, after, metrics["tenants"]["toy"]

        (_, _, before), (_, _, after), tenant = _run(drive())
        assert json.loads(after)["store_version"] == (
            json.loads(before)["store_version"] + 1
        )
        assert json.loads(after)["rows"] == json.loads(before)["rows"]
        assert tenant["caches"]["maintenance"]["results_maintained"] == 1
        assert tenant["wire"]["texts_built"] == 1
        assert tenant["wire"]["texts_reused"] == 1

    def test_an_append_a_rewritten_plan_reads_keeps_the_text(self):
        # IC2 (knows/-hasCreator) is fixpoint-free once rewritten. Two
        # registered newcomers who created no message befriend each
        # other: the plan's knows scan changed, its answer did not.
        session = ldbc_session(0.1, result_cache_size=8)
        person_columns = session.store.table("Person").columns
        a = max(session.graph.node_ids()) + 1
        people = [
            [person if column == "Sr" else None for column in person_columns]
            for person in (a, a + 1)
        ]
        ic2 = next(q.text for q in LDBC_QUERIES if q.qid == "IC2")

        async def drive():
            registry = TenantRegistry()
            registry.add(Tenant("ldbc", session))
            async with HTTPGraphServer(registry, port=0) as server:
                port = server.port

                async def write(table, rows):
                    status, _ = await _request(
                        port, "POST", "/v1/ldbc/write",
                        {"table": table, "rows": rows},
                    )
                    assert status == 200

                async def metrics():
                    _, body = await _request(port, "GET", "/metrics")
                    return body["tenants"]["ldbc"]

                query = (port, "POST", "/v1/ldbc/query", {"query": ic2})
                await write("Person", people)
                before = await _request_raw(*query)
                counters = await metrics()
                await write("knows", [[a, a + 1], [a + 1, a]])
                after = await _request_raw(*query)
                return before, after, counters, await metrics()

        (status, _, before), (_, _, after), old, new = _run(drive())
        assert status == 200 and json.loads(before)["row_count"] > 0
        # Byte-identical but for the store version the envelope reports.
        version = json.loads(before)["store_version"]
        assert after == before.replace(
            b'"store_version":%d' % version,
            b'"store_version":%d' % (version + 1),
        )
        was, now = (m["caches"]["maintenance"] for m in (old, new))
        assert now["results_invalidated"] == was["results_invalidated"]
        assert now["results_maintained"] == was["results_maintained"] + 1
        assert now["delta_rows_applied"] == was["delta_rows_applied"] + 2
        assert new["wire"]["texts_reused"] == old["wire"]["texts_reused"] + 1
        assert new["wire"]["texts_built"] == old["wire"]["texts_built"]

    def test_error_bodies_and_retry_after_are_the_dict_path(self):
        async def drive():
            async with HTTPGraphServer(
                _registry(timeout_seconds=1e-6), port=0
            ) as server:
                return (
                    await _request_raw(
                        server.port, "POST", "/v1/toy/query", {"query": "x1 <-"}
                    ),
                    await _request_raw(
                        server.port, "POST", "/v1/toy/query", {"query": CLOSURE}
                    ),
                )

        (status, headers, data), (late, late_headers, late_data) = _run(drive())
        assert status == 400 and "retry-after" not in headers
        assert data == _compact(json.loads(data))
        assert json.loads(data)["error"]["code"] == "parse_error"
        assert late == 408 and late_headers["retry-after"] == "1"
        assert late_data == _compact(json.loads(late_data))


class TestNestedRepetition:
    def test_seed_770_query_answers_within_its_budget(self):
        """A repetition nested three deep once kept the rewriter busy
        for 42 s before a ``MemoryError``; the bounded rewrite keeps the
        relation as written and the read answers inside 1 s."""
        from repro.datasets.random_graphs import random_graph, random_schema

        schema = random_schema(770)
        query = "x1, x2 <- (x1, (((e0)2..4)1..3)2..4, x2)"
        reference = GraphSession(random_graph(schema, 770), schema)
        expected = sorted(
            map(list, reference.execute(query, "reference", rewrite=False))
        )

        async def drive():
            registry = TenantRegistry()
            registry.add(
                Tenant("rand", GraphSession(random_graph(schema, 770), schema))
            )
            async with HTTPGraphServer(registry, port=0) as server:
                return await _request(
                    server.port, "POST", "/v1/rand/query",
                    {"query": query, "timeout_seconds": 1.0},
                )

        status, body = _run(drive())
        assert status == 200, body
        assert expected and body["rows"] == expected
