"""``QueryService`` — the asyncio front door over batched execution.

Callers ``await service.submit(query)`` individually; the service
admission-batches concurrent submissions and answers each batch through
:func:`repro.serve.batch.execute_batch`, so traffic that arrives
together shares plans, the dictionary encoding and common subprograms
without the callers coordinating. Construct the session with
``result_cache_size > 0`` and repeated traffic across batches skips
execution entirely (whole result sets cached per store version).

Mechanics:

* **admission per configuration and store version** — every submission
  is filed under ``(schema fingerprint, store version, backend, rewrite,
  effective exec options)`` as they stand *at submission time*; a
  worker drains up to ``max_batch_size`` requests of one key per batch,
  so only requests that would run the same way share a batch, and
  requests straddling a ``session.update_schema`` or a write never do.
  (Plans are still prepared under the schema current when the batch
  *executes* — the grouping guarantees batch homogeneity, not a
  snapshot of the schema at submission.)
* **snapshot-isolated reads** — a batch that executes *after*
  append-only writes moved the store on runs on a session pinned at the
  version it was admitted under
  (:meth:`~repro.engine.session.GraphSession.snapshot_session`), so a
  read never sees rows newer than its admission. Pinned views exist
  for the backends that read the store (``ra``/``vec``); the others
  fall back to the live session and ``snapshot_fallbacks`` says so.
* **one budget per batch** — a request carries its remaining wall
  clock into the queue; a batch runs under the longest remaining
  budget of its members, so an abandoned batch stops at its members'
  deadline.
* **bounded worker pool** — ``workers`` drain tasks; admission control
  blocks ``submit`` once ``max_pending`` requests are queued
  (backpressure, not an exception). Batches *execute* one at a time on
  a worker thread (:func:`asyncio.to_thread`), serialised by one lock —
  the session's derived state is not safe under concurrent mutation —
  so the loop stays responsive while a batch waits or runs; extra
  workers overlap draining and result fan-out with execution, they do
  not run batches in parallel.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Sequence

from repro.engine.options import DEFAULT_BACKEND, ExecOptions
from repro.engine.session import GraphSession
from repro.errors import QueryTimeout, ServiceClosedError
from repro.exec.result import ResultSet
from repro.query.model import UCQT
from repro.serve.batch import BatchOutcome, execute_batch

#: Backends that evaluate against ``session.store`` and therefore have a
#: meaningful pinned view; the rest derive state from the graph object
#: and fall back to the live session.
_SNAPSHOT_BACKENDS = frozenset({"ra", "vec"})

#: Pinned sessions kept per ``(pinned, live)`` store-version pair.
_SNAPSHOT_CACHE_SIZE = 4


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
    #: ``time.monotonic()`` past which the caller no longer waits.
    deadline: float | None
    future: "asyncio.Future[ResultSet]"


class QueryService:
    """Async serving layer over one :class:`GraphSession`.

    Use as an async context manager::

        async with QueryService(session, backend="vec") as service:
            rows = await service.submit("x1, x2 <- (x1, isLocatedIn+, x2)")

    or drive a whole workload with :meth:`map`. Batching parameters are
    fixed at construction; the constructor's ``backend``, ``rewrite``,
    ``exec_options`` and ``timeout_seconds`` are the defaults a
    submission may override, and submissions that end up configured
    alike share batches.
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
        self.exec_options = exec_options
        self.stats = ServiceStats()
        # Pending requests, grouped by the admission key they were
        # submitted under; OrderedDict keeps key arrival order so
        # draining is fair across configurations and versions.
        self._pending: "OrderedDict[tuple, deque[_Request]]" = OrderedDict()
        self._pending_count = 0
        self._wakeup: asyncio.Condition | None = None
        self._tasks: list[asyncio.Task] = []
        self._session_lock = threading.Lock()
        self._closed = False
        self._was_closed = False
        # Pinned sessions per (pinned, live) version pair — the live half
        # matters because a snapshot shares unchanged tables with the
        # live store *by reference*: once another write lands, a view
        # built earlier could watch shared tables mutate, so keying on
        # the live version retires it instead.
        self._snapshots: "OrderedDict[tuple[int, int], GraphSession]" = (
            OrderedDict()
        )
        self.snapshot_reads = 0
        self.snapshot_fallbacks = 0
        self.snapshot_sessions_built = 0

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
            if not request.future.cancelled():
                request.future.set_exception(
                    ServiceClosedError(
                        "QueryService closed before this request was served"
                    )
                )
        self._tasks = []
        self._wakeup = None
        for snapshot in self._snapshots.values():
            snapshot.close()
        self._snapshots.clear()

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- the front door ----------------------------------------------------
    async def submit(
        self,
        query: UCQT | str,
        *,
        backend: str | None = None,
        rewrite: bool | None = None,
        exec_options: "ExecOptions | None" = None,
        timeout_seconds: float | None = None,
    ) -> ResultSet:
        """Enqueue one query; resolves with its rows once its batch ran.

        Unset arguments take the constructor's values; a
        ``timeout_seconds`` above the service's is capped to it. The
        rows are those of the store version current when ``submit`` was
        called.

        Raises :class:`~repro.errors.ServiceClosedError` once
        :meth:`close` has begun — accepted requests drain, new ones are
        rejected immediately.
        """
        key, deadline = self._admission(
            backend, rewrite, exec_options, timeout_seconds
        )
        return await self._enqueue(query, key, deadline)

    async def map(
        self,
        queries: Sequence[UCQT | str],
        *,
        backend: str | None = None,
        rewrite: bool | None = None,
        exec_options: "ExecOptions | None" = None,
        timeout_seconds: float | None = None,
    ) -> list[ResultSet]:
        """:meth:`submit` for many queries at once, all configured alike
        and admitted at one store version; results in input order."""
        key, deadline = self._admission(
            backend, rewrite, exec_options, timeout_seconds
        )
        return list(
            await asyncio.gather(
                *(self._enqueue(query, key, deadline) for query in queries)
            )
        )

    # -- admission ---------------------------------------------------------
    def _admission(
        self, backend, rewrite, exec_options, timeout_seconds
    ) -> tuple[tuple, float | None]:
        """A call's admission key and deadline.

        Read before the call can suspend, so a caller that read the
        store version just before calling is answered from that version.
        """
        if self._wakeup is None:
            if self._was_closed:
                raise ServiceClosedError("QueryService is closed")
            raise RuntimeError(
                "QueryService is not running; use 'async with' or start()"
            )
        session = self.session
        key = (
            session.schema_fingerprint,
            session.store.version,
            self.backend if backend is None else backend,
            self.rewrite if rewrite is None else rewrite,
            session.exec_options.merged(
                self.exec_options if exec_options is None else exec_options
            ),
        )
        timeout = self.timeout_seconds
        if timeout_seconds is not None and (
            timeout is None or timeout_seconds < timeout
        ):
            timeout = timeout_seconds
        return key, None if timeout is None else time.monotonic() + timeout

    async def _enqueue(
        self, query: UCQT | str, key: tuple, deadline: float | None
    ) -> ResultSet:
        # Parse before enqueueing: a malformed query fails its own
        # submitter here and never reaches (or poisons) a batch.
        request = _Request(
            self.session.frontend.parse(query),
            deadline,
            asyncio.get_running_loop().create_future(),
        )
        if self._closed:
            raise ServiceClosedError("QueryService is closing")
        async with self._wakeup:
            while self._pending_count >= self.max_pending:
                if self._closed:
                    raise ServiceClosedError("QueryService is closing")
                await self._wakeup.wait()
            if self._closed:
                raise ServiceClosedError("QueryService is closing")
            self._pending.setdefault(key, deque()).append(request)
            self._pending_count += 1
            self.stats.submitted += 1
            self._wakeup.notify_all()
        return await request.future

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

    def _drain_one_key(self) -> tuple[tuple, list[_Request]]:
        """Up to ``max_batch_size`` requests of the oldest admission key."""
        key, queue = next(iter(self._pending.items()))
        batch = [
            queue.popleft()
            for _ in range(min(self.max_batch_size, len(queue)))
        ]
        if not queue:
            del self._pending[key]
        return key, batch

    async def _run_batch(self, key: tuple, batch: list[_Request]) -> None:
        # A caller that stopped waiting (its deadline passed) has
        # nothing left to receive: its query is not run.
        batch = [r for r in batch if not r.future.cancelled()]
        if not batch:
            return
        try:
            outcome = await self._execute(key, batch)
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
        self, key: tuple, batch: list[_Request]
    ) -> BatchOutcome:
        """Run one admission batch as its key configures it, on the
        session pinned at its admission version, under the longest
        remaining budget of its members."""
        _fingerprint, version, backend, rewrite, options = key
        queries = [request.query for request in batch]
        deadlines = [request.deadline for request in batch]

        def run() -> BatchOutcome:
            with self._session_lock:
                budget = (
                    None
                    if None in deadlines
                    else max(max(deadlines) - time.monotonic(), 0.0)
                )
                return execute_batch(
                    self._session_at(version, backend),
                    queries,
                    backend,
                    timeout_seconds=budget,
                    rewrite=rewrite,
                    exec_options=options,
                )

        return await asyncio.to_thread(run)

    def _session_at(self, version: int, backend: str) -> GraphSession:
        """The session a batch admitted at store ``version`` runs on.

        Caller holds ``_session_lock`` — the lock every write holds too,
        so nothing can move the store between these checks and the
        batch's execution.
        """
        live = self.session.store.version
        if version == live:
            return self.session
        if backend not in _SNAPSHOT_BACKENDS:
            self.snapshot_fallbacks += 1
            return self.session
        cache_key = (version, live)
        cached = self._snapshots.get(cache_key)
        if cached is not None:
            self._snapshots.move_to_end(cache_key)
            self.snapshot_reads += 1
            return cached
        snapshot = self.session.snapshot_session(version)
        if snapshot is None or snapshot is self.session:
            # A non-append write barrier (or a truncated delta log)
            # means the pinned view is unreconstructable; the live
            # session is the best available answer.
            self.snapshot_fallbacks += 1
            return self.session
        self.snapshot_sessions_built += 1
        self._snapshots[cache_key] = snapshot
        while len(self._snapshots) > _SNAPSHOT_CACHE_SIZE:
            _, evicted = self._snapshots.popitem(last=False)
            evicted.close()
        self.snapshot_reads += 1
        return snapshot

    async def _run_requests_individually(
        self, key: tuple, batch: list[_Request]
    ) -> None:
        for request in batch:
            try:
                outcome = await self._execute(key, [request])
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
