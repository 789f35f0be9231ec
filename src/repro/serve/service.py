"""``QueryService`` — the asyncio front door over batched execution.

Callers ``await service.submit(query)`` individually; the service
admission-batches concurrent submissions and answers each batch through
:func:`repro.serve.batch.execute_batch`, so traffic that arrives
together shares plans, the dictionary encoding and common subprograms
without the callers coordinating. Construct the session with
``result_cache_size > 0`` and repeated traffic across batches skips
execution entirely (whole result sets cached per store version).

Mechanics:

* **per-fingerprint admission batching** — every submission is filed
  under the session's schema fingerprint *at submission time*; a worker
  drains up to ``max_batch_size`` requests of one fingerprint per batch,
  so requests straddling a ``session.update_schema`` never share a
  batch. (Plans are still prepared under the schema current when the
  batch *executes* — the grouping guarantees batch homogeneity, not a
  snapshot of the schema at submission.)
* **bounded worker pool** — ``workers`` drain tasks; admission control
  blocks ``submit`` once ``max_pending`` requests are queued
  (backpressure, not an exception). Batches *execute* one at a time —
  the session's derived state is not safe under concurrent mutation, so
  a lock serialises execution; extra workers overlap draining and
  result fan-out with execution, they do not run batches in parallel.
* **event-loop hygiene** — batches run in a worker thread
  (:func:`asyncio.to_thread`) serialised by one lock, keeping the loop
  responsive; ``sqlite`` batches run inline on the loop instead
  (:func:`offload`, which the tenants use too).
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Sequence

from repro.engine.options import DEFAULT_BACKEND, ExecOptions
from repro.engine.session import GraphSession
from repro.errors import QueryTimeout, ServiceClosedError
from repro.exec.result import ResultSet
from repro.query.model import UCQT
from repro.serve.batch import BatchOutcome, execute_batch

#: Backends whose work runs on a worker thread; the rest (``sqlite``, and
#: ``auto``, which may pick it) run inline on the loop.
_THREAD_SAFE_BACKENDS = frozenset({"ra", "vec", "gdb", "reference"})


async def offload(backend: str, fn):
    """Run ``fn`` for ``backend``: on a worker thread for the backends in
    ``_THREAD_SAFE_BACKENDS``, inline on the loop for the rest — the one
    thread choice of the service and the tenants."""
    if backend in _THREAD_SAFE_BACKENDS:
        return await asyncio.to_thread(fn)
    return fn()


@dataclass
class ServiceStats:
    """Aggregate counters over the service's lifetime."""

    submitted: int = 0
    completed: int = 0
    batches: int = 0
    batched_queries: int = 0
    shared_plans: int = 0  # duplicate queries answered from a batch peer

    @property
    def mean_batch_size(self) -> float:
        return self.batched_queries / self.batches if self.batches else 0.0


@dataclass
class _Request:
    query: UCQT
    future: "asyncio.Future[ResultSet]"


class QueryService:
    """Async serving layer over one :class:`GraphSession`.

    Use as an async context manager::

        async with QueryService(session, backend="vec") as service:
            rows = await service.submit("x1, x2 <- (x1, isLocatedIn+, x2)")

    or drive a whole workload with :meth:`map`. All batching parameters
    are fixed at construction; per-request rewrite options are not
    supported — a service serves one configuration, which is what makes
    its batches shareable.
    """

    def __init__(
        self,
        session: GraphSession,
        backend: str = DEFAULT_BACKEND,
        *,
        max_batch_size: int = 16,
        max_pending: int = 1024,
        workers: int = 2,
        timeout_seconds: float | None = None,
        rewrite: bool = True,
        exec_options: "ExecOptions | None" = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.session = session
        self.backend = backend
        self.max_batch_size = max_batch_size
        self.max_pending = max_pending
        self.workers = workers
        self.timeout_seconds = timeout_seconds
        self.rewrite = rewrite
        #: Execution options applied to every batch, overlaid on the
        #: session's defaults (``planner="cost"`` routes all admission
        #: batches through the shared cost model and its corrections).
        self.exec_options = exec_options
        self.stats = ServiceStats()
        # Pending requests, grouped by the admission key (by default the
        # schema fingerprint) they were submitted under; OrderedDict
        # keeps key arrival order so draining is fair across a schema
        # change.
        self._pending: "OrderedDict[object, deque[_Request]]" = OrderedDict()
        self._pending_count = 0
        self._wakeup: asyncio.Condition | None = None
        self._tasks: list[asyncio.Task] = []
        self._session_lock = threading.Lock()
        self._closed = False
        self._was_closed = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._tasks:
            return self
        self._closed = False
        self._was_closed = False
        self._wakeup = asyncio.Condition()
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"query-service-{i}")
            for i in range(self.workers)
        ]
        return self

    async def close(self) -> None:
        """Graceful shutdown: drain every accepted request, then stop.

        New submissions are rejected with
        :class:`~repro.errors.ServiceClosedError` the moment close
        begins (including submitters blocked on backpressure); the
        workers keep draining until every already-accepted request has
        its rows or its error. Any request still pending after the
        workers stopped (a worker task died or was cancelled from
        outside) is failed with the same error rather than abandoned —
        no future ever dangles past ``close()``.
        """
        if self._wakeup is None:
            return
        self._closed = True
        self._was_closed = True
        async with self._wakeup:
            self._wakeup.notify_all()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        leftovers = [
            request
            for queue in self._pending.values()
            for request in queue
        ]
        self._pending.clear()
        self._pending_count = 0
        for request in leftovers:
            if not request.future.done():
                request.future.set_exception(
                    ServiceClosedError(
                        "QueryService closed before this request was served"
                    )
                )
        self._tasks = []
        self._wakeup = None

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- the front door ----------------------------------------------------
    async def submit(self, query: UCQT | str) -> ResultSet:
        """Enqueue one query; resolves with its rows once its batch ran.

        Raises :class:`~repro.errors.ServiceClosedError` once
        :meth:`close` has begun — accepted requests drain, new ones are
        rejected immediately.
        """
        if self._wakeup is None:
            if self._was_closed:
                raise ServiceClosedError("QueryService is closed")
            raise RuntimeError(
                "QueryService is not running; use 'async with' or start()"
            )
        # Parse before enqueueing: a malformed query fails its own
        # submitter here and never reaches (or poisons) a batch.
        query = self.session._as_query(query)
        request = _Request(query, asyncio.get_running_loop().create_future())
        async with self._wakeup:
            while self._pending_count >= self.max_pending:
                if self._closed:
                    raise ServiceClosedError("QueryService is closing")
                await self._wakeup.wait()
            if self._closed:
                raise ServiceClosedError("QueryService is closing")
            key = self._admission_key()
            self._pending.setdefault(key, deque()).append(request)
            self._pending_count += 1
            self.stats.submitted += 1
            self._wakeup.notify_all()
        return await request.future

    async def map(
        self, queries: Sequence[UCQT | str]
    ) -> list[ResultSet]:
        """Submit many queries concurrently; results in input order."""
        return list(
            await asyncio.gather(*(self.submit(query) for query in queries))
        )

    # -- admission ---------------------------------------------------------
    def _admission_key(self) -> object:
        """The bucket a submission is filed under (hashable).

        Requests only share a batch when their keys are equal. The base
        service groups by the session's schema fingerprint at submission
        time; the HTTP tier's subclass extends the key with the store
        version, which is what pins snapshot-isolated reads.
        """
        return self.session.schema_fingerprint

    # -- workers -----------------------------------------------------------
    async def _worker(self) -> None:
        assert self._wakeup is not None
        while True:
            async with self._wakeup:
                while not self._pending and not self._closed:
                    await self._wakeup.wait()
                if not self._pending and self._closed:
                    return
                key, batch = self._drain_one_key()
                self._pending_count -= len(batch)
                self._wakeup.notify_all()  # room for blocked submitters
            await self._run_batch(key, batch)

    def _drain_one_key(self) -> tuple[object, list[_Request]]:
        """Up to ``max_batch_size`` requests of the oldest admission key."""
        key, queue = next(iter(self._pending.items()))
        batch = [
            queue.popleft()
            for _ in range(min(self.max_batch_size, len(queue)))
        ]
        if not queue:
            del self._pending[key]
        return key, batch

    async def _run_batch(self, key: object, batch: list[_Request]) -> None:
        try:
            outcome = await self._execute([r.query for r in batch], key)
        except QueryTimeout as error:
            # The budget bounds the *batch*; retrying its requests one
            # by one with fresh budgets would multiply the very work the
            # caller bounded. Everyone shares the timeout.
            for request in batch:
                if not request.future.cancelled():
                    request.future.set_exception(error)
            return
        except Exception:
            # One bad request (unknown label, strict-schema violation,
            # ...) must not fail its batch peers: retry each request on
            # its own so every future gets *its* rows or *its* error.
            await self._run_requests_individually(key, batch)
            return
        self.stats.batches += 1
        self.stats.batched_queries += outcome.report.queries
        self.stats.shared_plans += outcome.report.duplicate_queries
        for request, rows in zip(batch, outcome.results):
            if not request.future.cancelled():
                request.future.set_result(rows)
                self.stats.completed += 1

    async def _execute(
        self, queries: list[UCQT], key: object = None
    ) -> BatchOutcome:
        """Run one admission batch on the session its admission ``key``
        routes to (:meth:`_session_for`)."""
        def run() -> BatchOutcome:
            with self._session_lock:
                return execute_batch(
                    self._session_for(key),
                    queries,
                    self.backend,
                    timeout_seconds=self.timeout_seconds,
                    rewrite=self.rewrite,
                    exec_options=self.exec_options,
                )

        return await offload(self.backend, run)

    def _session_for(self, key: object) -> GraphSession:
        """The session a batch admitted under ``key`` runs on; the base
        service always uses the live one (subclasses route on the key —
        e.g. to a snapshot session). Caller holds ``_session_lock``."""
        return self.session

    async def _run_requests_individually(
        self, key: object, batch: list[_Request]
    ) -> None:
        for request in batch:
            try:
                outcome = await self._execute([request.query], key)
            except Exception as error:
                if not request.future.cancelled():
                    request.future.set_exception(error)
                continue
            self.stats.batches += 1
            self.stats.batched_queries += 1
            if not request.future.cancelled():
                request.future.set_result(outcome.results[0])
                self.stats.completed += 1


async def serve_queries(
    session: GraphSession,
    queries: Sequence[UCQT | str],
    backend: str = DEFAULT_BACKEND,
    **service_kwargs,
) -> tuple[list[ResultSet], ServiceStats]:
    """Convenience: run one workload through a temporary service."""
    async with QueryService(session, backend, **service_kwargs) as service:
        results = await service.map(queries)
    return results, service.stats
