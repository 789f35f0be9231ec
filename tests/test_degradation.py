"""Graceful degradation: retries, the backend chain, circuit breakers.

Covers the :class:`CircuitBreaker` state machine under an injected
clock, the bounded :class:`RetryPolicy` backoff schedule, and the
session's degradation loop end to end: a retryable failure on the
planned backend retries down the chain and returns the *same rows* a
healthy run produces, breakers trip after repeated failures and
half-open after the cool-down, and the whole story surfaces in
``planner_stats``/``explain``/:class:`ExecutionStats`.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.datasets.ldbc import ldbc_session
from repro.engine import BreakerConfig, CircuitBreaker, GraphSession, RetryPolicy
from repro.engine.options import ExecOptions
from repro.errors import (
    BackendUnavailableError,
    QueryTimeout,
    ReproError,
)
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.serve import QueryService, execute_batch
from repro.testing.faults import FaultInjector, FaultRule, install
from repro.workloads.ldbc_queries import LDBC_QUERIES

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
FALLBACK = ExecOptions(fallback=True)
LDBC = {query.qid: query.text for query in LDBC_QUERIES}


def _session(**kwargs) -> GraphSession:
    return GraphSession(yago_example_graph(), yago_example_schema(), **kwargs)


@pytest.fixture()
def expected_rows():
    with _session() as control:
        yield control.execute(CLOSURE, "vec")


# -- the breaker state machine -------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, threshold=2, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(
            BreakerConfig(
                failure_threshold=threshold, cooldown_seconds=cooldown
            ),
            clock=lambda: now[0],
        )
        return breaker, now

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        assert breaker.state == "closed"
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # the opening transition
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # streak restarted
        assert breaker.state == "closed"

    def test_half_open_grants_one_probe(self):
        breaker, now = self._breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 10.5
        assert breaker.state == "half_open"
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # only one probe at a time

    def test_failed_probe_reopens_without_a_new_open(self):
        breaker, now = self._breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] = 10.5
        assert breaker.allow()
        assert not breaker.record_failure()  # re-open, not a new open
        assert breaker.state == "open"
        assert breaker.snapshot()["opens"] == 1

    def test_successful_probe_closes(self):
        breaker, now = self._breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] = 10.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_retry_after_counts_down_the_cooldown(self):
        breaker, now = self._breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        now[0] = 6.0
        assert breaker.retry_after() == pytest.approx(4.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_seconds=-1.0)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            max_attempts=4,
            backoff_seconds=0.01,
            multiplier=2.0,
            max_backoff_seconds=0.03,
        )
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.03)  # capped
        assert policy.backoff(9) == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)


# -- the session degradation loop ----------------------------------------------
class TestSessionDegradation:
    def test_retryable_failure_degrades_with_identical_rows(
        self, expected_rows
    ):
        with _session() as session:
            with install(FaultInjector([FaultRule("backend.execute.vec")])):
                rows = session.execute(
                    CLOSURE, "vec", exec_options=FALLBACK
                )
            assert rows == expected_rows
            stats = session.resilience_stats()
            assert stats["retries"] == 1
            assert stats["degraded"] == 1
            assert session.planner_stats["resilience"] == stats

    def test_execution_stats_carry_the_counters(self):
        with _session() as session:
            prepared = session.prepare(
                CLOSURE, "vec", exec_options=FALLBACK
            )
            with install(FaultInjector([FaultRule("backend.execute.vec")])):
                prepared.execute()
            stats = prepared.last_execution_stats
            assert stats is not None
            assert stats.retries == 1
            assert stats.degraded == 1

    def test_per_call_knobs_survive_a_degradation_step(self, expected_rows):
        # The next substrate is prepared from the failing handle's own
        # options, not from the session's defaults.
        pinned = ExecOptions(fallback=True, kernel="python", max_rows=10**6)
        with _session() as session:
            prepared = session.prepare(CLOSURE, "ra", exec_options=pinned)
            step = session.dispatcher._fallback_handle(prepared, "vec")
            assert step.backend_name == "vec"
            assert step.plan.kernel == "python"
            assert step.exec_options.max_rows == 10**6
            with install(FaultInjector([FaultRule("backend.execute.ra")])):
                assert prepared.execute() == expected_rows
            assert session.resilience_stats()["degraded"] == 1

    @pytest.mark.parametrize(
        "primary, chain",
        [
            ("vec", ["vec", "ra", "sqlite", "reference"]),
            ("ra", ["ra", "sqlite", "reference"]),
            ("sqlite", ["sqlite", "reference"]),
        ],
    )
    def test_chain_is_a_fixed_list(self, primary, chain):
        with _session() as session:
            prepared = session.prepare(CLOSURE, primary, exec_options=FALLBACK)
            assert session.dispatcher.chain(prepared) == chain
            # Computing it planned nothing.
            assert session.planner_stats["candidates_enumerated"] == 0

    def test_kernel_fault_on_vec_answers_from_ra(self):
        # The kernel step: the same executor on the pure-Python kernel.
        with _session() as session:
            expected = session.execute(CLOSURE, "reference")
            with install(FaultInjector([FaultRule("kernel.op", limit=1)])):
                rows = session.execute(CLOSURE, "vec", exec_options=FALLBACK)
            assert rows == expected
            breakers = session.resilience_stats()["breakers"]
            assert sorted(breakers) == ["ra", "vec"]
            assert breakers["vec"]["consecutive_failures"] == 1
            assert breakers["ra"]["consecutive_failures"] == 0

    def test_degraded_read_ranks_under_the_handles_growth(
        self, expected_rows
    ):
        # The next step reuses the planner entry the handle was drawn
        # from: no second enumeration, no second plan-cache entry.
        options = ExecOptions(backend="vec", planner="cost", fallback=True)
        with _session() as session:
            prepared = session.prepare(CLOSURE, exec_options=options)
            enumerated = session.planner_stats["candidates_enumerated"]
            entries = session.cache_stats["plan"].size
            with install(FaultInjector([FaultRule("kernel.op", limit=1)])):
                assert prepared.execute() == expected_rows
            assert session.resilience_stats()["degraded"] == 1
            assert session.planner_stats["candidates_enumerated"] == enumerated
            assert session.cache_stats["plan"].size == entries

    def test_without_fallback_the_failure_surfaces(self):
        with _session() as session:
            with install(FaultInjector([FaultRule("backend.execute.vec")])):
                with pytest.raises(ReproError):
                    session.execute(CLOSURE, "vec")
            assert session.resilience_stats()["degraded"] == 0

    def test_non_retryable_errors_never_degrade(self):
        with _session() as session:
            # rewrite=False keeps the fixpoint (the schema rewrite would
            # eliminate it on this graph, leaving no deadline check).
            with pytest.raises(QueryTimeout):
                session.execute(
                    CLOSURE,
                    "vec",
                    timeout_seconds=-1.0,
                    rewrite=False,
                    exec_options=FALLBACK,
                )
            assert session.resilience_stats()["degraded"] == 0

    def test_breaker_trips_then_skips_the_broken_backend(
        self, expected_rows
    ):
        config = BreakerConfig(failure_threshold=2, cooldown_seconds=600.0)
        with _session(breaker_config=config) as session:
            with install(FaultInjector([FaultRule("backend.execute.vec")])):
                for _ in range(3):
                    rows = session.execute(
                        CLOSURE, "vec", exec_options=FALLBACK
                    )
                    assert rows == expected_rows
            stats = session.resilience_stats()
            assert stats["breaker_opens"] == 1
            assert stats["breaker_skips"] >= 1  # third call skipped vec
            assert stats["breakers"]["vec"]["state"] == "open"

    def test_breaker_half_opens_and_recovers(self, expected_rows):
        config = BreakerConfig(failure_threshold=1, cooldown_seconds=60.0)
        now = [0.0]
        with _session(breaker_config=config) as session:
            # The vec breaker reads a clock the test drives, so the
            # cool-down lapses exactly when the test says, not when a
            # busy box happens to get round to the next assertion.
            session.dispatcher.breakers["vec"] = CircuitBreaker(
                config, clock=lambda: now[0]
            )
            # One injected failure opens the vec breaker...
            with install(
                FaultInjector([FaultRule("backend.execute.vec", limit=1)])
            ):
                session.execute(CLOSURE, "vec", exec_options=FALLBACK)
                assert (
                    session.resilience_stats()["breakers"]["vec"]["state"]
                    == "open"
                )
                now[0] += 60.0
                # ...the cool-down elapses, the probe succeeds (the
                # rule's limit is spent) and the breaker closes again.
                rows = session.execute(CLOSURE, "vec", exec_options=FALLBACK)
            assert rows == expected_rows
            assert (
                session.resilience_stats()["breakers"]["vec"]["state"]
                == "closed"
            )

    def test_all_backends_broken_is_backend_unavailable(self):
        config = BreakerConfig(failure_threshold=1, cooldown_seconds=600.0)
        with _session(breaker_config=config) as session:
            with install(FaultInjector([FaultRule("backend.execute")])):
                outcome: ReproError | None = None
                for _ in range(8):
                    try:
                        session.execute(CLOSURE, "vec", exec_options=FALLBACK)
                    except BackendUnavailableError as error:
                        outcome = error
                        break
                    except ReproError:
                        continue  # breakers still accumulating opens
            assert isinstance(outcome, BackendUnavailableError)
            assert outcome.retry_after_seconds > 0
            assert outcome.payload()["code"] == "backend_unavailable"
            # Every backend of the chain was vetoed, named in chain order.
            prepared = session.prepare(CLOSURE, "vec", exec_options=FALLBACK)
            assert outcome.backends == tuple(
                session.dispatcher.chain(prepared)
            )
            assert set(outcome.backends) >= {"vec", "ra", "sqlite", "reference"}

    def test_degrades_to_sqlite_from_worker_threads(self, expected_rows):
        # Served vec batches run on worker threads, while this thread
        # opened sqlite's connection: the degradation steps share it,
        # serialised by the service's session lock.
        with _session() as session:
            assert session.execute(CLOSURE, "sqlite") == expected_rows

            async def serve():
                async with QueryService(
                    session, "vec", exec_options=FALLBACK,
                    max_batch_size=1, workers=4,
                ) as service:
                    return await asyncio.wait_for(
                        asyncio.gather(
                            *(service.submit(CLOSURE) for _ in range(16))
                        ),
                        60.0,
                    )

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with install(
                    FaultInjector(
                        [
                            FaultRule("backend.execute.vec"),
                            FaultRule("backend.execute.ra"),
                        ]
                    )
                ):
                    answers = asyncio.run(serve())
            finally:
                sys.setswitchinterval(interval)
            assert answers == [expected_rows] * 16
            assert session.resilience_stats()["degraded"] == 16

    def test_failed_shared_run_is_each_plans_first_attempt(self):
        # The shared vec run of a batch fails once: every plan it carried
        # retries alone on vec (one retry each, nothing degraded), and
        # each key is still one result-cache miss for the read.
        batch = [LDBC[qid] for qid in ("IC1", "IC2", "IC6")]
        options = ExecOptions(backend="vec", fallback=True)
        with ldbc_session(0.1) as control:
            expected = [control.execute(query, "vec") for query in batch]
        with ldbc_session(0.1, result_cache_size=64) as session:
            with install(
                FaultInjector([FaultRule("backend.execute.vec", limit=1)])
            ):
                outcome = execute_batch(session, batch, exec_options=options)
            assert list(outcome.results) == expected
            stats = session.resilience_stats()
            assert stats["retries"] == 3
            assert stats["degraded"] == 0
            assert session.cache_stats["result"].misses == 3

    def test_failed_shared_run_is_one_breaker_failure(self):
        # With a one-failure threshold the shared failure opens vec's
        # breaker exactly once; the plans then skip vec and degrade.
        batch = [LDBC[qid] for qid in ("IC1", "IC2", "IC6")]
        config = BreakerConfig(failure_threshold=1, cooldown_seconds=600.0)
        with ldbc_session(0.1) as control:
            expected = [control.execute(query, "vec") for query in batch]
        with ldbc_session(0.1, breaker_config=config) as session:
            with install(
                FaultInjector([FaultRule("backend.execute.vec", limit=1)])
            ):
                outcome = execute_batch(
                    session, batch,
                    exec_options=ExecOptions(backend="vec", fallback=True),
                )
            assert list(outcome.results) == expected
            stats = session.resilience_stats()
            assert stats["breaker_opens"] == 1
            assert stats["breakers"]["vec"]["opens"] == 1
            assert stats["breaker_skips"] == 3
            assert stats["degraded"] == 3

    def test_explain_reports_resilience_only_after_degradation(self):
        with _session() as session:
            assert "resilience" not in session.explain(CLOSURE, "vec")
            with install(FaultInjector([FaultRule("backend.execute.vec")])):
                session.execute(CLOSURE, "vec", exec_options=FALLBACK)
            report = session.explain(CLOSURE, "vec")
            assert "-- resilience: 1 retrie(s), 1 degraded execution(s)" in (
                report.render()
            )
            assert report.to_dict()["resilience"]["degraded"] == 1
