"""Q-error telemetry: the cost model's estimates next to what happened.

Every ``ra``/``vec`` execution appends a :class:`CalibrationRecord` to
the session's bounded :class:`CalibrationLog`: per-operator-kind
(estimated, actual) cardinality pairs and the root pair.
:func:`q_error_summary` reports the estimator's Q-error distribution
(p50/p90/max of ``max(est, act)/min(est, act)``, both floored at one
row) over the roots and per operator kind. Backends without per-operator
telemetry (``sqlite``: the executor is a black box behind the SQL text)
log the root pair only. The planner ranks under the built-in
:class:`~repro.planner.cost.CostProfile` weights; the log measures how
far its row estimates are off.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.planner.cost import OPERATOR_KINDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.executor import ExecutionStats

#: Default bound on the per-session telemetry log (oldest drop first).
DEFAULT_LOG_SIZE = 2048


def q_error(estimated: float | None, actual: float) -> float | None:
    """``max(est, act) / min(est, act)`` with both sides floored at 1.

    ``None`` when no estimate was recorded (e.g. greedy executions of
    plans with no root estimate). Zero-actual results and cold-statistics
    zero estimates are both floored — an estimator that said 0 for a
    0-row result scores a perfect 1.0, not a division error.
    """
    if estimated is None:
        return None
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est, act) / min(est, act)


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty value list."""
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def _distribution(values: list[float]) -> dict | None:
    if not values:
        return None
    return {
        "count": len(values),
        "p50": _percentile(values, 0.50),
        "p90": _percentile(values, 0.90),
        "max": max(values),
    }


@dataclass(frozen=True)
class CalibrationRecord:
    """Telemetry of one execution: what was estimated, what happened.

    ``op_rows`` holds the executor's actual output rows per operator
    kind, ``op_estimates`` the planner-side estimates from the same plan
    (:func:`~repro.planner.cost.estimate_kind_rows`). Backends without
    per-operator telemetry leave both empty and carry only the root
    (estimated, actual) pair.
    """

    backend: str
    op_rows: Mapping[str, int]
    op_estimates: Mapping[str, float]
    estimated_rows: float | None = None
    actual_rows: int = 0

    @property
    def root_q_error(self) -> float | None:
        return q_error(self.estimated_rows, self.actual_rows)

    def kind_q_errors(self) -> dict[str, float]:
        """Q-error per operator kind with any estimated or actual rows."""
        errors: dict[str, float] = {}
        for kind in OPERATOR_KINDS:
            estimated = self.op_estimates.get(kind)
            actual = self.op_rows.get(kind)
            if not estimated and not actual:
                continue  # the kind does not occur in this plan
            error = q_error(estimated or 0.0, actual or 0)
            if error is not None:
                errors[kind] = error
        return errors


def q_error_summary(records: Iterable[CalibrationRecord]) -> dict:
    """Q-error distributions over ``records``, root and per operator kind.

    ``{"count", "root": {count,p50,p90,max} | None, "by_kind": {kind:
    {...}}}``: ``root`` is ``None`` when no record carried a root
    estimate (cold greedy executions).
    """
    records = list(records)
    roots = [
        error
        for error in (record.root_q_error for record in records)
        if error is not None
    ]
    kinds: dict[str, list[float]] = {}
    for record in records:
        for kind, error in record.kind_q_errors().items():
            kinds.setdefault(kind, []).append(error)
    return {
        "count": len(records),
        "root": _distribution(roots),
        "by_kind": {kind: _distribution(kinds[kind]) for kind in sorted(kinds)},
    }


class CalibrationLog:
    """Bounded per-session telemetry log (oldest records drop first)."""

    def __init__(self, max_records: int = DEFAULT_LOG_SIZE):
        if max_records < 1:
            raise ValueError(
                f"calibration log size must be >= 1, got {max_records!r}"
            )
        self._records: deque[CalibrationRecord] = deque(maxlen=max_records)
        #: Total records ever offered, including those the bound dropped.
        self.total_recorded = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[CalibrationRecord, ...]:
        return tuple(self._records)

    def record(self, record: CalibrationRecord) -> None:
        self._records.append(record)
        self.total_recorded += 1

    def record_execution(
        self,
        *,
        backend: str,
        stats: "ExecutionStats | None" = None,
        op_estimates: Mapping[str, float] | None = None,
        estimated_rows: float | None = None,
        actual_rows: int = 0,
    ) -> CalibrationRecord:
        """Append one execution's telemetry; returns the record."""
        record = CalibrationRecord(
            backend=backend,
            op_rows=stats.operator_rows() if stats is not None else {},
            op_estimates=dict(op_estimates or {}),
            estimated_rows=estimated_rows,
            actual_rows=actual_rows,
        )
        self.record(record)
        return record

    def summary(self) -> dict:
        """Q-error distributions over the whole log."""
        return q_error_summary(self._records)

    def backend_summary(self, backend: str) -> dict | None:
        """Root-cardinality Q-error distribution for one backend."""
        roots = [
            error
            for record in self._records
            if record.backend == backend
            for error in (record.root_q_error,)
            if error is not None
        ]
        return _distribution(roots)
