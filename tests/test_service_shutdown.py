"""Graceful shutdown of :class:`QueryService`: drain, reject, never
abandon a future."""

from __future__ import annotations

import asyncio
from collections.abc import Set

import pytest

from repro.engine import GraphSession
from repro.errors import ServiceClosedError
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.serve import QueryService

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"


@pytest.fixture
def session():
    with GraphSession(yago_example_graph(), yago_example_schema()) as s:
        yield s


class TestGracefulShutdown:
    def test_submit_after_close_raises_service_closed(self, session):
        async def drive():
            service = QueryService(session)
            await service.start()
            await service.close()
            with pytest.raises(ServiceClosedError):
                await service.submit(CLOSURE)

        asyncio.run(drive())

    def test_never_started_service_raises_runtime_error(self, session):
        # Distinct from closed: a programming error, not a lifecycle
        # state, and not catchable via the taxonomy.
        async def drive():
            with pytest.raises(RuntimeError, match="not running"):
                await QueryService(session).submit(CLOSURE)

        asyncio.run(drive())

    def test_accepted_requests_drain_before_close_returns(self, session):
        async def drive():
            service = QueryService(session, max_batch_size=4)
            await service.start()
            futures = [
                asyncio.ensure_future(service.submit(CLOSURE))
                for _ in range(8)
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await service.close()
            return await asyncio.gather(*futures)

        results = asyncio.run(drive())
        expected = session.execute(CLOSURE, "vec")
        assert all(rows == expected for rows in results)

    def test_backpressured_submitter_rejected_on_close(self, session):
        async def drive():
            service = QueryService(session, max_pending=1, workers=1)
            await service.start()
            first = asyncio.ensure_future(service.submit(CLOSURE))
            await asyncio.sleep(0)
            # The queue is full: this submitter blocks on backpressure.
            blocked = asyncio.ensure_future(service.submit(CLOSURE))
            await asyncio.sleep(0)
            await service.close()
            return await asyncio.gather(
                first, blocked, return_exceptions=True
            )

        first, blocked = asyncio.run(drive())
        # The accepted request drains (or, if the worker already raced
        # past it, is failed with the close error — never abandoned).
        assert isinstance(first, (Set, ServiceClosedError))
        assert isinstance(blocked, (Set, ServiceClosedError))

    def test_leftover_futures_failed_not_abandoned(self, session):
        async def drive():
            service = QueryService(session, workers=1)
            await service.start()
            # Kill the worker from outside — the pathological case.
            for task in service._tasks:
                task.cancel()
            await asyncio.sleep(0)
            orphan = asyncio.ensure_future(service.submit(CLOSURE))
            await asyncio.sleep(0)
            await service.close()
            with pytest.raises(ServiceClosedError, match="closed before"):
                await orphan

        asyncio.run(drive())

    def test_service_restartable_after_close(self, session):
        async def drive():
            service = QueryService(session)
            await service.start()
            await service.close()
            await service.start()
            try:
                return await service.submit(CLOSURE)
            finally:
                await service.close()

        assert asyncio.run(drive()) == session.execute(CLOSURE, "vec")

    def test_close_is_idempotent(self, session):
        async def drive():
            service = QueryService(session)
            await service.start()
            await service.close()
            await service.close()

        asyncio.run(drive())
