"""Tenancy: named graphs, admission quotas, snapshot-isolated reads.

Each :class:`Tenant` owns one :class:`~repro.engine.session.GraphSession`
and one :class:`~repro.serve.service.QueryService` (the admission
batcher). Every ``/query`` and ``/batch``, whatever its backend,
``rewrite`` or options, takes the same path:

1. **the quota gate** — a per-tenant semaphore sized
   ``max_concurrent``, with at most ``max_pending`` requests allowed to
   wait for a slot and a per-request deadline. Breaches surface as
   :class:`~repro.errors.QuotaExceededError` (HTTP 429) or
   :class:`~repro.errors.QueryTimeout` (HTTP 408) *before* the request
   touches the batcher, so one tenant's burst cannot occupy another
   tenant's service.
2. **the admission batcher** — the tenant's service is sized so the
   quota gate is the only place requests ever queue
   (``max_pending == max_concurrent``); whatever the gate admits is
   accepted immediately, with the request's configuration (its
   resource caps held to the quota) and what is left of its deadline.

**Snapshot isolation.** The service files a request under the store
version current at admission, which is the ``store_version`` the answer
reports, and runs a batch that executes after append-only writes on a
view pinned at that version — reads never see a torn half-write and
never see rows newer than the version they report (``ra``/``vec``; the
other backends read the live session and count a snapshot fallback).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

from repro.engine.options import DEFAULT_BACKEND, ExecOptions
from repro.engine.resilience import BreakerConfig, RetryPolicy
from repro.engine.session import GraphSession
from repro.errors import (
    QueryTimeout,
    QuotaExceededError,
    ReproError,
    RequestError,
    UnknownTenantError,
)
from repro.exec.result import ResultSet
from repro.serve.service import QueryService
from repro.server.models import (
    BatchRequest,
    ExplainRequest,
    QueryRequest,
    WriteRequest,
    rows_payload,
    spliced_body,
)


@dataclass(frozen=True)
class TenantQuotas:
    """Admission limits for one tenant.

    ``max_concurrent`` requests may execute at once; ``max_pending``
    more may wait for a slot; each request gets at most
    ``timeout_seconds`` of wall clock (slot wait included) — a smaller
    per-request ``timeout_seconds`` is honoured, a larger one clamped.
    ``max_rows``/``max_bytes`` cap what one request may materialise
    (enforced by the engine's :class:`~repro.graph.evaluator
    .ResourceBudget`); per-request caps below the quota are honoured,
    caps above it are clamped down.
    """

    max_concurrent: int = 8
    max_pending: int = 64
    timeout_seconds: float = 30.0
    max_rows: int | None = None
    max_bytes: int | None = None

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        for name in ("max_rows", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 when set")

    def clamp(self, requested: float | None) -> float:
        return (
            self.timeout_seconds
            if requested is None
            else min(requested, self.timeout_seconds)
        )

    def clamp_options(
        self, options: ExecOptions | None
    ) -> ExecOptions | None:
        """Per-request exec options with resource caps held to the quota.

        A request may *lower* its row/byte caps below the tenant limits
        but never raise them: unset or too-large request caps are pinned
        to the quota values.
        """
        if options is None or (
            self.max_rows is None and self.max_bytes is None
        ):
            return options
        updates: dict = {}
        if self.max_rows is not None and (
            options.max_rows is None or options.max_rows > self.max_rows
        ):
            updates["max_rows"] = self.max_rows
        if self.max_bytes is not None and (
            options.max_bytes is None or options.max_bytes > self.max_bytes
        ):
            updates["max_bytes"] = self.max_bytes
        return replace(options, **updates) if updates else options


@dataclass
class TenantMetrics:
    """Request-level counters for one tenant (all lifetime totals)."""

    requests_total: int = 0
    completed: int = 0
    rejected_quota: int = 0
    timeouts: int = 0
    errors: int = 0
    writes: int = 0
    rows_appended: int = 0


@dataclass
class WireMetrics:
    """What answers cost on the wire: JSON texts rendered against texts
    an earlier read had left on the same ``ResultSet``, and the bytes of
    the ``/query`` and ``/batch`` bodies they went out in."""

    texts_built: int = 0
    texts_reused: int = 0
    bytes_sent: int = 0


class Tenant:
    """One named graph: a session, its service, quotas and counters."""

    def __init__(
        self,
        name: str,
        session: GraphSession,
        quotas: TenantQuotas | None = None,
        *,
        backend: str = DEFAULT_BACKEND,
        exec_options: ExecOptions | None = None,
        dataset: str | None = None,
        fallback: bool = True,
        breaker_config: BreakerConfig | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.name = name
        self.session = session
        self.quotas = quotas or TenantQuotas()
        self.metrics = TenantMetrics()
        self.wire = WireMetrics()
        self.dataset = dataset
        self.backend = backend
        # ``exec_options`` are this tenant's server-level defaults (the
        # ``repro serve`` flags), which a request's own options overlay.
        # Served sessions degrade gracefully by default: retryable
        # failures walk the backend chain instead of surfacing, and the
        # quota's resource caps become the session-wide defaults.
        session.exec_options = session.exec_options.merged(
            exec_options
        ).merged(
            ExecOptions(
                max_rows=self.quotas.max_rows,
                max_bytes=self.quotas.max_bytes,
                fallback=True if fallback else None,
            )
        )
        if breaker_config is not None:
            session.dispatcher.breaker_config = breaker_config
            session.dispatcher.breakers.clear()
        if retry_policy is not None:
            session.dispatcher.retry_policy = retry_policy
        self.service = QueryService(
            session,
            backend,
            # The quota gate is the only queue: the service accepts
            # whatever the gate admits, immediately.
            max_pending=self.quotas.max_concurrent,
            timeout_seconds=self.quotas.timeout_seconds,
        )
        self._slots = asyncio.Semaphore(self.quotas.max_concurrent)
        self._active = 0
        self._waiting = 0

    # -- admission (the quota gate) ----------------------------------------
    async def _admit(self, timeout_seconds: float) -> None:
        if self._slots.locked():
            if self._waiting >= self.quotas.max_pending:
                raise QuotaExceededError(
                    self.name, "max_pending", self.quotas.max_pending
                )
            self._waiting += 1
            try:
                await asyncio.wait_for(
                    self._slots.acquire(), timeout_seconds
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise QueryTimeout(timeout_seconds) from None
            finally:
                self._waiting -= 1
        else:
            await self._slots.acquire()
        self._active += 1

    def _release(self) -> None:
        self._active -= 1
        self._slots.release()

    async def _guard(self, op):
        """Run one op coroutine, translating outcomes into counters."""
        self.metrics.requests_total += 1
        try:
            result = await op
            self.metrics.completed += 1
            return result
        except QuotaExceededError:
            self.metrics.rejected_quota += 1
            raise
        except QueryTimeout:
            self.metrics.timeouts += 1
            raise
        except ReproError:
            self.metrics.errors += 1
            raise

    # -- operations --------------------------------------------------------
    async def query(self, request: QueryRequest) -> dict:
        head, rows = await self._guard(self._query(request))
        return {**head, "rows": rows_payload(rows)}

    async def query_body(self, request: QueryRequest) -> bytes:
        """:meth:`query` as the bytes of its compact JSON."""
        head, rows = await self._guard(self._query(request))
        return self._body(head, "rows", self._wire_text(rows))

    async def _query(self, request: QueryRequest) -> tuple[dict, ResultSet]:
        version, rows = await self._read(
            request, self.service.submit, request.query
        )
        return {
            "tenant": self.name,
            "backend": request.backend,
            "store_version": version,
            "row_count": len(rows),
        }, rows

    async def batch_body(self, request: BatchRequest) -> bytes:
        """A ``/batch`` answer as the bytes of its compact JSON."""
        head, results = await self._guard(self._batch(request))
        texts = ",".join(map(self._wire_text, results))
        return self._body(head, "results", f"[{texts}]")

    async def _batch(
        self, request: BatchRequest
    ) -> tuple[dict, list[ResultSet]]:
        version, results = await self._read(
            request, self.service.map, request.queries
        )
        return {
            "tenant": self.name,
            "backend": request.backend,
            "store_version": version,
            "queries": len(results),
            "row_counts": [len(rows) for rows in results],
        }, results

    async def _read(self, request, submit, queries):
        """One read through the quota gate and the admission batcher:
        ``submit(queries)`` with the request's configuration, under its
        deadline. Returns the store version the answer is from, and the
        answer."""
        timeout = self.quotas.clamp(request.timeout_seconds)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        await self._admit(timeout)
        try:
            # Read in the same step as ``submit`` files the request under
            # its version: nothing suspends in between.
            version = self.session.store.version
            try:
                async with asyncio.timeout_at(deadline):
                    answer = await submit(
                        queries,
                        backend=request.backend,
                        rewrite=request.rewrite,
                        exec_options=self.quotas.clamp_options(
                            request.options
                        ),
                        timeout_seconds=deadline - loop.time(),
                    )
            except (TimeoutError, QueryTimeout):
                # A batch that ran out of budget ran out of this one.
                raise QueryTimeout(timeout) from None
            return version, answer
        finally:
            self._release()

    async def write(self, request: WriteRequest) -> dict:
        return await self._guard(self._write(request))

    async def _write(self, request: WriteRequest) -> dict:
        timeout = self.quotas.timeout_seconds
        await self._admit(timeout)
        try:
            store = self.session.store
            if request.table in store.aliases:
                raise RequestError(
                    f"{request.table!r} is an alias view; append to one of "
                    "its member tables instead",
                    field="table",
                )
            if not store.has_table(request.table):
                raise RequestError(
                    f"unknown table {request.table!r}", field="table"
                )
            arity = len(store.table(request.table).columns)
            for index, row in enumerate(request.rows):
                if len(row) != arity:
                    raise RequestError(
                        f"rows[{index}] has {len(row)} values; table "
                        f"{request.table!r} has {arity} columns",
                        field="rows",
                    )

            def run() -> tuple[int, int]:
                # The same lock every read batch executes under: a write
                # can never interleave with a half-finished read.
                with self.service._session_lock:
                    added = store.add_rows(request.table, request.rows)
                    return added, store.version

            added, version = await asyncio.to_thread(run)
            self.metrics.writes += 1
            self.metrics.rows_appended += added
            return {
                "tenant": self.name,
                "table": request.table,
                "rows_received": len(request.rows),
                "rows_added": added,
                "store_version": version,
            }
        finally:
            self._release()

    async def explain(self, request: ExplainRequest) -> dict:
        return await self._guard(self._explain(request))

    async def _explain(self, request: ExplainRequest) -> dict:
        await self._admit(self.quotas.timeout_seconds)
        try:
            def run():
                with self.service._session_lock:
                    return self.session.explain(
                        request.query,
                        request.backend,
                        rewrite=request.rewrite,
                        exec_options=request.options,
                    )

            report = await asyncio.to_thread(run)
            # "plan" stays the rendered text (the pre-report wire shape);
            # "report" is the same ExplainReport, structured.
            return {
                "tenant": self.name,
                "backend": report.backend,
                "plan": report.render(),
                "report": report.to_dict(),
            }
        finally:
            self._release()

    # -- rendering for the wire --------------------------------------------
    def _wire_text(self, rows: ResultSet) -> str:
        """The answer's JSON text, which it keeps: a result-cache hit
        (or a maintained answer that gained no row) is rendered once."""
        if rows.json_built:
            self.wire.texts_reused += 1
        else:
            self.wire.texts_built += 1
        return rows.json_rows()

    def _body(self, head: dict, field: str, text: str) -> bytes:
        body = spliced_body(head, field, text)
        self.wire.bytes_sent += len(body)
        return body

    # -- introspection -----------------------------------------------------
    def metrics_payload(self) -> dict:
        session = self.session
        service = self.service
        store = session.store
        return {
            "dataset": self.dataset,
            "backend": self.backend,
            "quotas": asdict(self.quotas),
            "requests": asdict(self.metrics),
            "wire": asdict(self.wire),
            "admission": {
                "active": self._active,
                "waiting": self._waiting,
            },
            "service": {
                **asdict(service.stats),
                "mean_batch_size": round(service.stats.mean_batch_size, 3),
            },
            "snapshots": {
                "reads": service.snapshot_reads,
                "fallbacks": service.snapshot_fallbacks,
                "sessions_built": service.snapshot_sessions_built,
                "cached": len(service._snapshots),
            },
            "caches": {
                name: asdict(stats)
                for name, stats in session.cache_stats.items()
            },
            "planner": session.planner_stats,
            "store": {**store.stats(), "version": store.version},
        }


class TenantRegistry:
    """The set of tenants one server instance manages."""

    def __init__(self):
        self._tenants: "dict[str, Tenant]" = {}

    def add(self, tenant: Tenant) -> Tenant:
        if tenant.name in self._tenants:
            raise ValueError(f"tenant {tenant.name!r} already registered")
        self._tenants[tenant.name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise UnknownTenantError(name) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    async def start_all(self) -> None:
        for tenant in self:
            await tenant.service.start()

    async def close_all(self) -> None:
        for tenant in self:
            await tenant.service.close()
            tenant.session.close()

    def metrics_payload(self) -> dict:
        return {
            "tenants": {
                tenant.name: tenant.metrics_payload() for tenant in self
            }
        }
