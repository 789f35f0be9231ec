"""Chaos suite: injected faults never corrupt shared state.

Every trust boundary named in :data:`repro.testing.faults.KNOWN_SITES`
is driven to failure here, and the invariants the fault harness exists
to defend are asserted directly:

* a failed execution returns *nothing* — no partial rows, no partially
  populated result-cache entry, no telemetry from the aborted run;
* contained sites (cache store/load, incremental maintenance) degrade —
  skip the store, miss, invalidate — without changing observable rows;
* the HTTP tier renders every injected failure as a structured taxonomy
  error, and a tenant with fallback serves correct rows *through* the
  faults.

``REPRO_CHAOS_SEED`` (the CI chaos matrix) seeds the probabilistic
rules, so each leg explores a different deterministic fault schedule.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re

import pytest

import repro
from repro.engine import BreakerConfig, GraphSession, available_backends
from repro.engine.options import ExecOptions
from repro.errors import InjectedFault, ReproError
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.serve import QueryService, execute_batch
from repro.server import (
    HTTPGraphServer,
    QueryRequest,
    Tenant,
    TenantRegistry,
)
from repro.storage.relational import Table
from repro.testing.faults import (
    KNOWN_SITES,
    FaultInjector,
    FaultRule,
    install,
)

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
BACKENDS = ("ra", "vec", "sqlite", "reference")
CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


def _session(**kwargs) -> GraphSession:
    return GraphSession(yago_example_graph(), yago_example_schema(), **kwargs)


@pytest.fixture(scope="module")
def expected():
    with _session() as control:
        return control.execute(CLOSURE, "vec")


def _injector(site: str, **rule_kwargs) -> FaultInjector:
    return FaultInjector([FaultRule(site, **rule_kwargs)], seed=SEED)


# -- raising sites: the failure surfaces, nothing leaks ------------------------
class TestBackendFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_injected_failure_leaves_no_trace(self, backend, expected):
        with _session(result_cache_size=8) as session:
            recorded_before = session.telemetry.total_recorded
            with install(_injector(f"backend.execute.{backend}")):
                with pytest.raises(InjectedFault):
                    session.execute(CLOSURE, backend)
            # The aborted run contributed no telemetry and cached nothing.
            assert (
                session.telemetry.total_recorded == recorded_before
            )
            assert session.cache_stats["result"].size == 0
            # A healthy rerun on the same session is complete and correct.
            assert session.execute(CLOSURE, backend) == expected

    def test_kernel_fault_aborts_the_vec_program_cleanly(self, expected):
        with _session(result_cache_size=8) as session:
            with install(_injector("kernel.op", limit=1)):
                with pytest.raises(InjectedFault):
                    session.execute(CLOSURE, "vec", rewrite=False)
            assert session.cache_stats["result"].size == 0
            assert session.execute(CLOSURE, "vec", rewrite=False) == expected

    def test_kernel_fault_degrades_past_both_exec_backends(self, expected):
        # vec and ra run on one executor, so an unlimited kernel fault
        # fails them both; the chain still reaches an independent
        # substrate within the retry budget.
        with _session() as session:
            with install(_injector("kernel.op")):
                rows = session.execute(
                    CLOSURE,
                    exec_options=ExecOptions(backend="vec", fallback=True),
                )
            assert rows == expected
            stats = session.resilience_stats()
            assert stats["degraded"] == 1
            failures = {
                name: breaker["consecutive_failures"]
                for name, breaker in stats["breakers"].items()
            }
            assert failures["vec"] == 1 and failures["ra"] == 1
            answered = [name for name, n in failures.items() if n == 0]
            assert len(answered) == 1
            assert answered[0] in ("sqlite", "reference")

    def test_snapshot_rebuild_fault_surfaces(self):
        with _session() as session:
            pinned = session.store.version
            session.store.add_rows("isLocatedIn", [(100, 101)])
            with install(_injector("snapshot.rebuild")):
                with pytest.raises(InjectedFault):
                    session.snapshot_session(pinned)
            # Without the fault the same reconstruction succeeds.
            snapshot = session.snapshot_session(pinned)
            assert snapshot is not None
            snapshot.close()

    def test_sqlite_mirror_rebuild_fault_surfaces(self, expected):
        with _session() as session:
            assert session.execute(CLOSURE, "sqlite") == expected
            # A barrier write (new table) forces a full mirror rebuild.
            session.store.add_table(
                Table("ChaosEdge", ("Sr", "Tr"), {(1, 2)}), node_label=False
            )
            with install(_injector("snapshot.rebuild.sqlite")):
                with pytest.raises(InjectedFault):
                    session.execute(CLOSURE, "sqlite")
            assert session.execute(CLOSURE, "sqlite") == expected


# -- contained sites: degrade without changing observable rows -----------------
class TestContainedFaults:
    def test_store_fault_skips_caching_but_returns_rows(self, expected):
        with _session(result_cache_size=8) as session:
            with install(_injector("result_cache.store")):
                assert session.execute(CLOSURE, "vec") == expected
            assert session.cache_stats["result"].size == 0

    def test_load_fault_degrades_to_a_miss(self, expected):
        with _session(result_cache_size=8) as session:
            assert session.execute(CLOSURE, "vec") == expected
            assert session.cache_stats["result"].size >= 1
            with install(_injector("result_cache.load")):
                assert session.execute(CLOSURE, "vec") == expected

    def test_maintenance_fault_falls_back_to_invalidation(self):
        with _session(result_cache_size=8) as session:
            before = session.execute(CLOSURE, "vec")
            session.store.add_rows("isLocatedIn", [(100, 101)])
            with install(_injector("maintain.apply")):
                after_faulted = session.execute(CLOSURE, "vec")
            # Rows reflect the write, and a healthy rerun agrees exactly.
            assert after_faulted >= before
            assert session.execute(CLOSURE, "vec") == after_faulted


# -- the sweep: every site, probabilistic schedule -----------------------------
class TestChaosSweep:
    def test_wildcard_chaos_never_yields_partial_results(self, expected):
        """Under a 50% fire rate at *every* site, each call either fails
        with a taxonomy error or returns exactly the correct rows."""
        completed = 0
        with _session(result_cache_size=8) as session:
            with install(
                FaultInjector([FaultRule("*", rate=0.5)], seed=SEED)
            ):
                for backend in BACKENDS:
                    for _ in range(4):
                        try:
                            rows = session.execute(CLOSURE, backend)
                        except ReproError:
                            continue
                        completed += 1
                        assert rows == expected
            # Injection off: the session is fully serviceable again.
            assert session.execute(CLOSURE, "vec") == expected
        assert completed > 0  # the sweep exercised the success path too

    def test_wildcard_chaos_through_the_shared_runner(self):
        """The same chaos through batches: every request — of a direct
        ``execute_batch`` or of a ``QueryService`` admission batch — gets
        its reference rows or a taxonomy error, never partial rows."""
        queries = [CLOSURE, CHAIN, CLOSURE]
        with _session() as control:
            reference = [control.execute(q, "reference") for q in queries]
        options = ExecOptions(backend="vec", fallback=True)

        async def serve(session):
            async with QueryService(
                session, "vec", exec_options=options, max_batch_size=4
            ) as service:
                return await asyncio.gather(
                    *(service.submit(q) for q in queries * 2),
                    return_exceptions=True,
                )

        answered = 0
        with _session(result_cache_size=8) as session:
            with install(
                FaultInjector([FaultRule("*", rate=0.5)], seed=SEED)
            ):
                for _ in range(4):
                    try:
                        outcome = execute_batch(
                            session, queries, exec_options=options
                        )
                    except ReproError:
                        continue
                    answered += len(queries)
                    assert list(outcome.results) == reference
                served = asyncio.run(serve(session))
            for rows, expected_rows in zip(served, reference * 2):
                if isinstance(rows, BaseException):
                    assert isinstance(rows, ReproError), rows
                    continue
                answered += 1
                assert rows == expected_rows
            # Injection off: the batch path is fully serviceable again.
            outcome = execute_batch(session, queries, exec_options=options)
            assert list(outcome.results) == reference
        assert answered > 0

        # One tenant serving a concurrent mix of request shapes: each
        # shape is its own admission batch, and all of them get the same
        # guarantee.
        shapes = (
            {},
            {"rewrite": False},
            {"backend": "sqlite"},
            {"options": {"planner": "cost"}},
        )
        requests = [
            (QueryRequest.from_payload({"query": query, **shape}), rows)
            for shape in shapes
            for query, rows in zip(queries, reference)
        ]
        # Breakers half-open at once: whatever the schedule tripped, the
        # tenant is serviceable the moment injection stops.
        tenant = Tenant(
            "toy",
            _session(result_cache_size=8),
            breaker_config=BreakerConfig(cooldown_seconds=0.0),
        )

        async def mix():
            bodies = await asyncio.gather(
                *(tenant.query(request) for request, _ in requests),
                return_exceptions=True,
            )
            return list(zip(bodies, (rows for _, rows in requests)))

        async def serve_tenant():
            await tenant.service.start()
            try:
                with install(
                    FaultInjector([FaultRule("*", rate=0.5)], seed=SEED)
                ):
                    chaotic = await mix()
                return chaotic, await mix()
            finally:
                await tenant.service.close()
                tenant.session.close()

        chaotic, clean = asyncio.run(serve_tenant())
        for body, expected_rows in chaotic:
            if isinstance(body, BaseException):
                assert isinstance(body, ReproError), body
                continue
            assert {tuple(row) for row in body["rows"]} == expected_rows
        # Injection off: the tenant serves every shape cleanly again.
        for body, expected_rows in clean:
            assert not isinstance(body, BaseException), body
            assert {tuple(row) for row in body["rows"]} == expected_rows

    def test_known_sites_is_the_complete_roster(self):
        # Exactly the sites the source instruments: every literal
        # ``fault_point("...")`` under ``src/`` plus the one each
        # registered backend's ``execute`` names. A site that lost its
        # call, or a call missing from the roster, fails here.
        source = pathlib.Path(repro.__file__).parent
        literal = {
            match.group(1)
            for path in source.rglob("*.py")
            for match in re.finditer(
                r'fault_point\(\s*"([^"]+)"', path.read_text()
            )
        }
        backends = {f"backend.execute.{name}" for name in available_backends()}
        assert backends == {f"backend.execute.{name}" for name in BACKENDS}
        assert len(KNOWN_SITES) == len(set(KNOWN_SITES))
        assert set(KNOWN_SITES) == literal | backends


# -- the HTTP surface ----------------------------------------------------------
async def _request(port: int, method: str, path: str, payload=None):
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
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestChaosOverHTTP:
    def test_injected_fault_is_a_structured_taxonomy_error(self):
        async def drive():
            registry = TenantRegistry()
            registry.add(Tenant("toy", _session(), fallback=False))
            with install(_injector("backend.execute.vec")):
                async with HTTPGraphServer(registry, port=0) as server:
                    return await _request(
                        server.port,
                        "POST",
                        "/v1/toy/query",
                        {"query": CLOSURE},
                    )

        status, body = asyncio.run(drive())
        assert status == 500
        assert body["error"]["code"] == "injected_fault"
        assert body["error"]["site"] == "backend.execute.vec"

    def test_tenant_fallback_serves_through_the_faults(self, expected):
        async def drive():
            registry = TenantRegistry()
            registry.add(Tenant("toy", _session()))  # fallback defaults on
            with install(_injector("backend.execute.vec")):
                async with HTTPGraphServer(registry, port=0) as server:
                    return await _request(
                        server.port,
                        "POST",
                        "/v1/toy/query",
                        {"query": CLOSURE},
                    )

        status, body = asyncio.run(drive())
        assert status == 200
        assert body["rows"] == sorted(map(list, expected))
