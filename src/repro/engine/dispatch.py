"""Running prepared plans: the one runner and its degradation loop.

:class:`Dispatcher` alone decides how prepared handles execute, in two
steps. :meth:`Dispatcher.answer` looks each plan up in its session's
result cache and groups the misses: the columnar (``vec``/``ra``) plans
of one backend and option set together, any other plan alone.
:meth:`Dispatcher.run` runs one group with one backend call under one
budget, then stores the answers and writes one Q-error record. A single ``execute`` is a batch of one. A
``fallback`` group takes the degradation loop instead, which calls
:meth:`Dispatcher.run` once per attempt down the backend chain, a
fixed list that consults no planner (:meth:`Dispatcher.chain`). The
breakers, retry policy and counters are the dispatcher's state; snapshot
sessions share their live session's dispatcher.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.resilience import BreakerConfig, CircuitBreaker, RetryPolicy
from repro.errors import BackendUnavailableError, QueryTimeout, ReproError
from repro.exec.executor import ExecutionStats
from repro.exec.result import EMPTY, ResultSet
from repro.graph.evaluator import EvalBudget, as_budget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import PreparedQuery


class Dispatcher:
    """The runner of prepared handles, with per-backend breakers."""

    def __init__(
        self,
        breaker_config: BreakerConfig | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.breaker_config = breaker_config or BreakerConfig()
        self.retry_policy = retry_policy or RetryPolicy()
        #: One circuit breaker per backend (sessions are per tenant in
        #: the serving tier, so breakers are per (tenant, backend) there).
        self.breakers: dict[str, CircuitBreaker] = {}
        self.counters = dict.fromkeys(
            ("retries", "degraded", "breaker_opens", "breaker_skips"), 0
        )

    @property
    def idle(self) -> bool:
        """No retry, degradation or breaker event, every breaker closed."""
        return not any(self.counters.values()) and all(
            breaker.state == "closed" for breaker in self.breakers.values()
        )

    def stats(self, fallback: bool) -> dict:
        """Degradation counters + per-backend breaker state (JSON-ready)."""
        return {
            **self.counters,
            "fallback": fallback,
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self.breakers.items())
            },
        }

    # -- answering handles -------------------------------------------------
    def answer(
        self,
        handles: "Sequence[PreparedQuery]",
        timeout_seconds: "float | EvalBudget | None" = None,
    ) -> "tuple[list[ResultSet], ExecutionStats | None]":
        """Answer prepared handles: the one code path that executes them.

        Each handle is refreshed (schema, conformance gate), an empty
        plan answers ``EMPTY`` and only result-cache misses run. A
        ``fallback`` group under a wall-clock timeout (not a budget
        object) takes the degradation loop (:meth:`_degrade`). Returns
        the answers in handle order and — when any handle is columnar —
        the pooled counters of the columnar runs plus the cache hits and
        misses (``None`` otherwise).
        """
        answers: list = [None] * len(handles)
        keys: list[tuple | None] = [None] * len(handles)
        groups: dict[object, list[int]] = {}
        pooled = ExecutionStats()
        any_columnar = False
        for index, handle in enumerate(handles):
            handle.refresh()
            columnar = hasattr(handle.backend, "run_plans")
            any_columnar = any_columnar or columnar
            if handle.plan is None:  # the schema proved it unsatisfiable
                answers[index] = EMPTY
                continue
            results = handle.session.results
            key = keys[index] = results.key(handle)
            if key is not None:
                hit = results.lookup(
                    handle, key, handle.budget(timeout_seconds)
                )
                if hit is not None:
                    answers[index] = hit
                    pooled.result_cache_hits += 1
                    continue
                pooled.result_cache_misses += 1
            slot = (
                (handle.backend_name, handle.exec_options)
                if columnar
                else index
            )
            groups.setdefault(slot, []).append(index)
        for indices in groups.values():
            group = [handles[i] for i in indices]
            group_keys = [keys[i] for i in indices]
            if group[0].exec_options.fallback and not isinstance(
                timeout_seconds, EvalBudget
            ):
                rows = self._degrade(group, group_keys, timeout_seconds)
            else:
                budget = group[0].budget(timeout_seconds)
                rows = self.run(group, group_keys, budget)
            for index, answer in zip(indices, rows):
                answers[index] = answer
            if hasattr(group[0].backend, "run_plans"):
                # A shared run's plans carry its one stats object; plans
                # that retried alone carry their own.
                distinct = {
                    id(handle.last_execution_stats): handle.last_execution_stats
                    for handle in group
                }
                for stats in distinct.values():
                    if stats is not None:
                        pooled.merge(stats)
        return answers, pooled if any_columnar else None

    def run(
        self,
        group: "Sequence[PreparedQuery]",
        keys: "Sequence[tuple | None]",
        budget: "float | EvalBudget | None",
    ) -> list[ResultSet]:
        """Run one group of plans on its backend under one budget:
        ``run_plans`` for several (one encoding, one operator memo),
        ``execute_with_stats`` for a lone columnar plan, else ``execute``.

        Answers with a result-cache key are stored with the fixpoint
        totals their maintenance needs, cost-planned plans add their
        root estimate next to their result size, and the handles report
        the run's counters as ``last_execution_stats``. Failures raise
        as they are.
        """
        first = group[0]
        session = first.session
        # run_plans / execute_with_stats are optional protocol hooks.
        backend: Any = first.backend
        stats: ExecutionStats | None = None
        captures: list[dict | None] | None = None
        if hasattr(backend, "run_plans"):
            stats = ExecutionStats()
            captures = [None if key is None else {} for key in keys]
        version = session.store.version
        if len(group) > 1:
            rows = backend.run_plans(
                session, [handle.plan for handle in group],
                as_budget(budget), stats, captures,
            )
        elif captures is not None:
            rows = [
                backend.execute_with_stats(
                    session, first.plan, budget, stats,
                    fix_capture=captures[0],
                )
            ]
        else:
            rows = [backend.execute(session, first.plan, budget)]
        cost_planned = any(handle.choice is not None for handle in group)
        if cost_planned and stats is None:
            stats = ExecutionStats(programs=1)
        for position, (handle, key, answer) in enumerate(
            zip(group, keys, rows)
        ):
            if stats is not None:
                choice = handle.choice
                if choice is not None:
                    stats.estimated_rows += choice.winner.rows
                    stats.actual_rows += len(answer)
                    stats.peak_estimate_bytes = max(
                        stats.peak_estimate_bytes, choice.peak_bytes
                    )
                handle.last_execution_stats = stats
            if key is not None:
                session.results.put(
                    key, answer, version,
                    captures[position] if captures else None,
                )
        session.telemetry.record(group, rows, stats)
        return rows

    # -- graceful degradation ----------------------------------------------
    def _breaker(self, backend: str) -> CircuitBreaker:
        breaker = self.breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_config)
            self.breakers[backend] = breaker
        return breaker

    def _degrade(
        self,
        group: "Sequence[PreparedQuery]",
        keys: "Sequence[tuple | None]",
        timeout_seconds: float | None,
    ) -> list[ResultSet]:
        """Answer one ``fallback`` group through the degradation loop.

        A lone plan walks its backend chain (:meth:`_walk`). Several
        plans first run once, shared, on their planned backend; a
        retryable failure there is one failure on that backend's breaker
        and one retry of each plan the run carried, each of which then
        walks the chain alone, its own backend first.
        """
        if len(group) == 1:
            return [self._walk(group[0], timeout_seconds)]
        try:
            return self.run(group, keys, group[0].budget(timeout_seconds))
        except ReproError as error:
            if not error.retryable:
                raise
            if self._breaker(group[0].backend_name).record_failure():
                self.counters["breaker_opens"] += 1
        answers = []
        for handle in group:
            answers.append(self._walk(handle, timeout_seconds))
            stats = handle.last_execution_stats
            if stats is not None:
                stats.retries += 1
            self.counters["retries"] += 1
        return answers

    def _walk(
        self, prepared: "PreparedQuery", timeout_seconds: float | None
    ) -> ResultSet:
        """Answer one plan with retries down its backend chain.

        One wall-clock deadline spans every attempt (row/byte budgets
        are fresh per attempt). A retryable failure feeds its backend's
        breaker and steps to the next backend after a bounded backoff;
        an open breaker skips its backend; other errors raise. An answer
        from another backend stamps ``retries``/``degraded``/
        ``breaker_opens`` onto the handle's ``last_execution_stats``.
        """
        policy = self.retry_policy
        counters = self.counters
        deadline = (
            None
            if timeout_seconds is None
            else time.monotonic() + timeout_seconds
        )
        attempts = opens = 0
        last_error: ReproError | None = None

        def attempt(
            handle: "PreparedQuery", breaker: CircuitBreaker
        ) -> ResultSet | None:
            nonlocal attempts, opens, last_error
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            attempts += 1
            try:
                rows = self.run(
                    [handle],
                    [handle.session.results.key(handle)],
                    handle.budget(remaining),
                )[0]
            except ReproError as error:
                if not error.retryable:
                    raise
                last_error = error
                if breaker.record_failure():
                    opens += 1
                    counters["breaker_opens"] += 1
                return None
            breaker.record_success()
            return rows

        # Fast path: the planned backend, healthy breaker, first try —
        # no chain is computed and nothing extra is allocated, so the
        # governed-but-healthy hot path stays at budget-check cost.
        primary = prepared.backend_name
        vetoed_or_tried = [primary]
        breaker = self._breaker(primary)
        if breaker.allow():
            rows = attempt(prepared, breaker)
            if rows is not None:
                return rows
        else:
            counters["breaker_skips"] += 1
        for backend_name in self.chain(prepared)[1:]:
            if attempts >= policy.max_attempts:
                break
            breaker = self._breaker(backend_name)
            if not breaker.allow():
                counters["breaker_skips"] += 1
                vetoed_or_tried.append(backend_name)
                continue
            if attempts > 0:
                delay = policy.backoff(attempts - 1)
                if deadline is not None:
                    delay = min(delay, max(deadline - time.monotonic(), 0.0))
                if delay > 0:
                    time.sleep(delay)
            if deadline is not None and time.monotonic() >= deadline:
                raise QueryTimeout(timeout_seconds or 0.0)
            handle = self._fallback_handle(prepared, backend_name)
            if handle is None:
                continue
            vetoed_or_tried.append(backend_name)
            rows = attempt(handle, breaker)
            if rows is not None:
                stats = handle.last_execution_stats
                if stats is None:
                    stats = ExecutionStats(programs=1)
                stats.retries += attempts - 1
                stats.degraded += 1
                stats.breaker_opens += opens
                handle.last_execution_stats = stats
                prepared.last_execution_stats = stats
                counters["retries"] += attempts - 1
                counters["degraded"] += 1
                return rows
        if last_error is not None:
            raise last_error
        # Nothing was even attempted: every substrate vetoed (or
        # unpreparable). Tell the client when the first breaker
        # half-opens.
        horizons = [
            self.breakers[name].retry_after()
            for name in vetoed_or_tried
            if self.breakers[name].state != "closed"
        ]
        raise BackendUnavailableError(
            tuple(vetoed_or_tried),
            retry_after_seconds=min(horizons) if horizons else 1.0,
        )

    @staticmethod
    def chain(prepared: "PreparedQuery") -> list[str]:
        """Backends to try for one handle, in a fixed order: the primary;
        ``ra`` after ``vec``, the same executor on the pure-Python
        kernel; then ``sqlite`` and ``reference``, which share nothing
        with :mod:`repro.exec`, so a kernel fault cannot follow the
        query down the whole chain."""
        primary = prepared.backend_name
        kernel_step = ("ra",) if primary == "vec" else ()
        return list(
            dict.fromkeys((primary, *kernel_step, "sqlite", "reference"))
        )

    @staticmethod
    def _fallback_handle(
        prepared: "PreparedQuery", backend: str
    ) -> "PreparedQuery | None":
        """Re-prepare one handle's query, every knob kept, on another
        backend (None: it cannot be prepared there)."""
        try:
            return prepared.session.prepare(
                prepared.query,
                rewrite=prepared.rewrite,
                options=prepared.options,
                exec_options=replace(prepared.exec_options, backend=backend),
            )
        except ReproError:
            return None
