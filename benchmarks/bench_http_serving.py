"""HTTP serving tier under concurrent mixed-tenant load.

The serving-tier acceptance gate: an asyncio load generator drives well
over a thousand concurrent requests — every request is its own task,
multiplexed over a pool of keep-alive connections — against one
:class:`~repro.server.http.HTTPGraphServer` hosting a YAGO tenant, an
LDBC tenant and a deliberately tiny-quota ``throttled`` tenant:

* **read-heavy traffic** — workload queries whose expected rows are
  precomputed per tenant before the server boots; every response is
  checked against them, so *any* torn read, cross-tenant mix-up or
  snapshot violation shows up as a leak (the gate requires zero),
* **write trickle** (~3% of requests) — appends to an edge table
  *outside* every read query's scan set (the tables its ``vec`` plan
  scans), so expected read rows stay constant while store versions
  advance under the readers,
* **quota pressure** — a concurrent burst at the ``throttled`` tenant
  (one slot, two pending) must produce 429s, and the count must agree
  with the tenant's ``rejected_quota`` metric.

p50/p99 latency and throughput land in
``benchmarks/output/http_serving.json`` together with the server's own
``/metrics`` snapshot. The latency gate is a generous p99 ceiling —
the point is catching serving-tier stalls (lost wakeups, lock
convoys), not micro-benchmarking the HTTP parser.

Profiles (``REPRO_HTTP_BENCH_PROFILE``):

* ``quick`` (default) — YAGO scale 0.4, LDBC SF 0.3, 1200 requests,
* ``smoke`` — tiny datasets, 1000 requests; the CI step.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

import pytest

from conftest import OUTPUT_DIR

_PROFILES = {
    # name: (yago scale, ldbc sf, total requests, connection pool,
    #        p99 ceiling seconds)
    "quick": (0.4, 0.3, 1200, 96, 15.0),
    "smoke": (0.15, 0.1, 1000, 64, 30.0),
}
PROFILE = os.environ.get("REPRO_HTTP_BENCH_PROFILE", "quick")
YAGO_SCALE, LDBC_SF, REQUESTS, POOL_SIZE, P99_CEILING = _PROFILES[PROFILE]

READS_PER_TENANT = 6
WRITE_FRACTION = 0.03
THROTTLE_BURST = 48
FRESH_ID_BASE = 10_000_000  # row ids no generated graph ever uses


# -- minimal keep-alive HTTP client -------------------------------------------
async def _request_on(reader, writer, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
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


# -- workload construction ----------------------------------------------------
def _read_queries(workload) -> list:
    return list(workload[:READS_PER_TENANT])


def _expanded_read_set(session, queries) -> set[str]:
    """Every store relation the read queries may scan, aliases expanded."""
    reads: set[str] = set()
    for workload_query in queries:
        plan = session.prepare(workload_query.text, "vec").plan
        if plan is not None:
            reads.update(plan.program.scan_tables)
    for alias, members in session.store.aliases.items():
        if alias in reads:
            reads.update(members)
    return reads


def _write_target(session, queries) -> str:
    """An edge table no read query scans: appends to it must never
    change a read's rows — which is what makes leakage observable."""
    reads = _expanded_read_set(session, queries)
    for name in sorted(session.store.edge_tables):
        if name not in reads:
            return name
    raise RuntimeError("no edge table outside the read set")


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


# -- the load generator -------------------------------------------------------
async def _drive(server, tenants: dict) -> dict:
    """Run the full mixed load; returns the raw record stream."""
    rng = random.Random(20250808)
    jobs: list[dict] = []
    write_counters = {name: 0 for name in tenants}
    for index in range(REQUESTS):
        tenant = rng.choice(list(tenants))
        spec = tenants[tenant]
        if rng.random() < WRITE_FRACTION:
            offset = FRESH_ID_BASE + 2 * write_counters[tenant]
            write_counters[tenant] += 1
            jobs.append(
                {
                    "kind": "write",
                    "tenant": tenant,
                    "path": f"/v1/{tenant}/write",
                    "payload": {
                        "table": spec["write_table"],
                        "rows": [[offset, offset + 1]],
                    },
                }
            )
        else:
            query = rng.choice(list(spec["expected"]))
            jobs.append(
                {
                    "kind": "read",
                    "tenant": tenant,
                    "path": f"/v1/{tenant}/query",
                    "payload": {"query": query},
                    "expected": spec["expected"][query],
                }
            )

    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(POOL_SIZE):
        pool.put_nowait(
            await asyncio.open_connection("127.0.0.1", server.port)
        )

    records: list[dict] = []

    async def run_job(job: dict) -> None:
        connection = await pool.get()
        try:
            start = time.perf_counter()
            status, body = await _request_on(
                *connection, "POST", job["path"], job["payload"]
            )
            elapsed = time.perf_counter() - start
        finally:
            pool.put_nowait(connection)
        leaked = (
            job["kind"] == "read"
            and status == 200
            and body["rows"] != job["expected"]
        )
        records.append(
            {
                "kind": job["kind"],
                "tenant": job["tenant"],
                "status": status,
                "seconds": elapsed,
                "leaked": leaked,
            }
        )

    started = time.perf_counter()
    # Every request is a live task from the start: REQUESTS-way
    # concurrency at the generator, POOL_SIZE requests in flight.
    await asyncio.gather(*(run_job(job) for job in jobs))
    wall_seconds = time.perf_counter() - started

    # Quota pressure: a one-slot tenant under a concurrent burst.
    async def throttled_probe() -> int:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        try:
            status, _ = await _request_on(
                reader,
                writer,
                "POST",
                "/v1/throttled/query",
                {"query": "x1, x2 <- (x1, isLocatedIn+, x2)"},
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return status

    throttle_statuses = await asyncio.gather(
        *(throttled_probe() for _ in range(THROTTLE_BURST))
    )

    for _ in range(POOL_SIZE):
        reader, writer = pool.get_nowait()
        writer.close()

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", server.port
    )
    try:
        _, metrics = await _request_on(reader, writer, "GET", "/metrics")
    finally:
        writer.close()
    return {
        "records": records,
        "wall_seconds": wall_seconds,
        "throttle_statuses": list(throttle_statuses),
        "metrics": metrics,
    }


@pytest.fixture(scope="module")
def serving_results():
    from repro.datasets.ldbc import ldbc_session
    from repro.datasets.yago import yago_session
    from repro.engine import GraphSession
    from repro.graph.model import yago_example_graph
    from repro.schema.builder import yago_example_schema
    from repro.server import (
        HTTPGraphServer,
        Tenant,
        TenantQuotas,
        TenantRegistry,
    )
    from repro.workloads.ldbc_queries import LDBC_QUERIES
    from repro.workloads.yago_queries import YAGO_QUERIES

    sessions = {
        "yago": yago_session(scale=YAGO_SCALE, result_cache_size=256),
        "ldbc": ldbc_session(scale_factor=LDBC_SF, result_cache_size=256),
    }
    workloads = {
        "yago": _read_queries(YAGO_QUERIES),
        "ldbc": _read_queries(LDBC_QUERIES),
    }
    tenants: dict[str, dict] = {}
    for name, session in sessions.items():
        queries = workloads[name]
        tenants[name] = {
            "write_table": _write_target(session, queries),
            # Expected rows per read query, as the wire renders them —
            # computed before the server ever runs.
            "expected": {
                workload_query.text: sorted(
                    map(list, session.execute(workload_query.text, "vec"))
                )
                for workload_query in queries
            },
        }

    registry = TenantRegistry()
    serving_quotas = TenantQuotas(
        max_concurrent=16, max_pending=4096, timeout_seconds=120.0
    )
    for name, session in sessions.items():
        registry.add(
            Tenant(name, session, serving_quotas, dataset=name)
        )
    registry.add(
        Tenant(
            "throttled",
            GraphSession(yago_example_graph(), yago_example_schema()),
            TenantQuotas(
                max_concurrent=1, max_pending=2, timeout_seconds=30.0
            ),
        )
    )

    async def run() -> dict:
        async with HTTPGraphServer(registry, port=0) as server:
            return await _drive(server, tenants)

    raw = asyncio.run(run())

    records = raw["records"]
    reads = [r for r in records if r["kind"] == "read"]
    writes = [r for r in records if r["kind"] == "write"]
    latencies = [r["seconds"] for r in records]
    rejected = sum(1 for s in raw["throttle_statuses"] if s == 429)
    tenant_metrics = raw["metrics"]["tenants"]
    results = {
        "profile": PROFILE,
        "requests": len(records),
        "reads": len(reads),
        "writes": len(writes),
        "pool_size": POOL_SIZE,
        "wall_seconds": raw["wall_seconds"],
        "throughput_rps": len(records) / max(raw["wall_seconds"], 1e-9),
        "latency": {
            "p50_seconds": _percentile(latencies, 0.50),
            "p99_seconds": _percentile(latencies, 0.99),
            "max_seconds": max(latencies),
        },
        "read_failures": sum(1 for r in reads if r["status"] != 200),
        "write_failures": sum(1 for r in writes if r["status"] != 200),
        "leaks": sum(1 for r in reads if r["leaked"]),
        "throttled": {
            "burst": THROTTLE_BURST,
            "rejected_429": rejected,
            "metric_rejected_quota": tenant_metrics["throttled"][
                "requests"
            ]["rejected_quota"],
        },
        "snapshots": {
            name: tenant_metrics[name]["snapshots"]
            for name in ("yago", "ldbc")
        },
        "store_versions": {
            name: tenant_metrics[name]["store"]["version"]
            for name in ("yago", "ldbc")
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "http_serving.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    for session in sessions.values():
        session.close()
    return results


def test_all_traffic_served(serving_results):
    """The gate's table stakes: >= 1000 concurrent requests, every read
    and every write answered 200 under the full mixed load."""
    assert serving_results["requests"] >= 1000
    assert serving_results["read_failures"] == 0
    assert serving_results["write_failures"] == 0
    assert serving_results["writes"] > 0


def test_zero_leakage(serving_results):
    """No read ever saw a torn write, a stale-beyond-admission row set,
    or another tenant's data."""
    assert serving_results["leaks"] == 0


def test_writes_advanced_the_stores(serving_results):
    for name, version in serving_results["store_versions"].items():
        assert version > 0, name


def test_quota_breaches_observed_and_counted(serving_results):
    throttled = serving_results["throttled"]
    assert throttled["rejected_429"] > 0
    assert throttled["metric_rejected_quota"] == throttled["rejected_429"]


def test_latency_within_ceiling(serving_results):
    latency = serving_results["latency"]
    assert latency["p50_seconds"] <= latency["p99_seconds"]
    assert latency["p99_seconds"] <= P99_CEILING, serving_results


def test_artifact_written(serving_results):
    artifact = json.loads((OUTPUT_DIR / "http_serving.json").read_text())
    assert artifact["profile"] == PROFILE
    assert artifact["requests"] == serving_results["requests"]
    assert "p99_seconds" in artifact["latency"]
