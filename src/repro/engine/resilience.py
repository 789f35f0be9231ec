"""Circuit breakers and retry policy for graceful backend degradation.

When a backend fails with a *retryable* error
(:attr:`~repro.errors.ReproError.retryable` — kernel faults, injected
faults, per-substrate resource exhaustion), the session retries the same
query down the cost-ranked backend chain: cheapest surviving substrate
next, bounded backoff between attempts, one shared wall-clock deadline
across the whole sequence. A per-backend :class:`CircuitBreaker`
remembers consecutive failures so a misbehaving substrate is skipped
outright instead of burning every request's budget rediscovering it;
after a cool-down the breaker *half-opens* and lets exactly one probe
through — success closes it, failure re-opens it for another cool-down.

The breaker is the classic three-state machine:

* ``closed`` — healthy; failures count toward ``failure_threshold``;
* ``open`` — vetoing all requests until ``cooldown_seconds`` elapse;
* ``half_open`` — cool-down over; one probe allowed, its outcome decides.

Breakers live per ``(session, backend)`` — and the serving tier holds
one session per tenant, so they are per ``(tenant, backend)`` exactly as
tenancy isolation requires. State is surfaced in ``planner_stats``,
``explain`` and ``/metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class BreakerConfig:
    """Trip threshold and cool-down for one :class:`CircuitBreaker`."""

    failure_threshold: int = 5
    cooldown_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {self.cooldown_seconds}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt bound and backoff schedule for the degradation loop.

    ``max_attempts`` counts *executions* (first try included).
    ``backoff(i)`` is the sleep before attempt ``i`` (0-based first
    retry): ``backoff_seconds * multiplier**i`` capped at
    ``max_backoff_seconds``. Defaults keep the whole schedule well under
    typical request deadlines — the deadline, not the backoff, is the
    real bound.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.01
    multiplier: float = 2.0
    max_backoff_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_backoff_seconds < 0:
            raise ValueError(
                "max_backoff_seconds must be >= 0, "
                f"got {self.max_backoff_seconds}"
            )

    def backoff(self, retry_index: int) -> float:
        return min(
            self.backoff_seconds * self.multiplier ** max(retry_index, 0),
            self.max_backoff_seconds,
        )


class CircuitBreaker:
    """Three-state (closed / open / half-open) failure latch.

    The clock is injectable so tests drive state transitions without
    sleeping. Not thread-safe by itself — the session serialises access
    under its own lock.
    """

    def __init__(self, config: BreakerConfig | None = None, clock=time.monotonic):
        self.config = config or BreakerConfig()
        self._clock = clock
        self.consecutive_failures = 0
        self.opens = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.config.cooldown_seconds:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """Whether a request may try this backend right now.

        In ``half_open``, only the first caller gets the probe slot;
        concurrent requests keep being vetoed until the probe reports.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half_open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> bool:
        """Count a failure; True when this call newly opened the breaker."""
        was_open = self._opened_at is not None
        self.consecutive_failures += 1
        self._probing = False
        if was_open:
            # A failed half-open probe re-opens for another cool-down
            # (not a *new* open for the counters).
            self._opened_at = self._clock()
            return False
        if self.consecutive_failures >= self.config.failure_threshold:
            self._opened_at = self._clock()
            self.opens += 1
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until this breaker half-opens (0 when not open)."""
        if self._opened_at is None:
            return 0.0
        remaining = self.config.cooldown_seconds - (self._clock() - self._opened_at)
        return max(remaining, 0.0)

    def snapshot(self) -> dict:
        """JSON-ready state for planner_stats / explain / metrics."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
        }
