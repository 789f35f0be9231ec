"""Q-error telemetry: the cost model's estimates next to what happened.

:class:`Telemetry` alone decides what an execution leaves behind for
the cost model. Every run appends one :class:`TelemetryRecord` to the
session's bounded log (:data:`LOG_SIZE`, oldest first out): per-operator
estimated rows next to the actual ones, and the root estimate next to
the result size. Backends without per-operator telemetry (``sqlite``:
the executor is a black box behind the SQL text; ``reference``) log the
root pair only. :func:`q_error_summary` reports the estimator's Q-error
distribution (p50/p90/max of ``max(est, act)/min(est, act)``, both
floored at one row) over the roots and per operator kind; it is what
``explain``, ``planner_stats`` and ``/metrics`` show. The planner ranks
under the built-in :class:`~repro.planner.cost.CostProfile` weights; the
log measures how far its row estimates are off, and never moves a plan.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.engine.cache import MEMO_SIZE
from repro.exec.executor import ExecutionStats
from repro.exec.result import ResultSet
from repro.planner.cost import OPERATOR_KINDS, estimate_kind_rows
from repro.ra.stats import Estimator
from repro.ra.terms import RaTerm
from repro.storage.relational import RelationalStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import PreparedQuery

#: Bound on a session's telemetry log (oldest records drop first).
LOG_SIZE = 2048


def q_error(estimated: float | None, actual: float) -> float | None:
    """``max(est, act) / min(est, act)`` with both sides floored at 1.

    ``None`` when no estimate was recorded (``sqlite`` and ``reference``
    runs of greedy plans). Zero-actual results and cold-statistics zero
    estimates are both floored — an estimator that said 0 for a 0-row
    result scores a perfect 1.0, not a division error.
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
class TelemetryRecord:
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


def q_error_summary(
    records: Iterable[TelemetryRecord], backend: str | None = None
) -> dict:
    """Q-error distributions over ``records`` (those of ``backend``
    alone, when given), root and per operator kind.

    ``{"count", "root": {count,p50,p90,max} | None, "by_kind": {kind:
    {...}}}``: ``root`` is ``None`` when no record carried a root
    estimate — only greedy ``sqlite`` and ``reference`` runs lack one;
    columnar greedy runs take theirs from the estimator walk.
    """
    count = 0
    roots: list[float] = []
    kinds: dict[str, list[float]] = {}
    for record in records:
        if backend is not None and record.backend != backend:
            continue
        count += 1
        root = q_error(record.estimated_rows, record.actual_rows)
        if root is not None:
            roots.append(root)
        for kind in OPERATOR_KINDS:
            estimated = record.op_estimates.get(kind)
            actual = record.op_rows.get(kind)
            if estimated or actual:  # else the kind is not in this plan
                kinds.setdefault(kind, []).append(
                    q_error(estimated or 0.0, actual or 0)
                )
    return {
        "count": count,
        "root": _distribution(roots),
        "by_kind": {kind: _distribution(kinds[kind]) for kind in sorted(kinds)},
    }


@dataclass(frozen=True)
class _Estimates:
    """What the telemetry log records as estimated for one term.

    Valid while the store is at ``version``: a fresh :class:`Estimator`
    walks the same numbers until a write. Telemetry memoises one per
    executed term (:meth:`Telemetry.estimates`), so every handle of a
    cached plan shares it.
    """

    version: int
    op_rows: Mapping[str, float]
    root_rows: float

    @classmethod
    def walk(cls, term: RaTerm, estimator: Estimator) -> "_Estimates":
        return cls(
            estimator.version,
            estimate_kind_rows(term, estimator.store, estimator),
            estimator.rows(term),
        )


class Telemetry:
    """A session's bounded telemetry log and estimate memo."""

    def __init__(self):
        #: Per-operator (estimate, actual) telemetry of the latest
        #: executions, which the Q-error summaries are computed over.
        self._records: deque[TelemetryRecord] = deque(maxlen=LOG_SIZE)
        #: Total records ever logged, including those the bound dropped.
        self.total_recorded = 0
        #: Executed term -> its telemetry estimates; see :meth:`estimates`.
        self._estimates: dict[RaTerm, _Estimates] = {}

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[TelemetryRecord, ...]:
        return tuple(self._records)

    def record(
        self,
        handles: "Sequence[PreparedQuery]",
        answers: Sequence[ResultSet],
        stats: ExecutionStats | None,
    ) -> None:
        """Append one run's telemetry to the log.

        One record per run: a shared run memoises common subtrees, so
        its operator counters cannot be attributed per plan, and its
        estimates are the sums over the plans it carried. Per-operator
        estimates come from the cost model's own cardinality walk over
        each executed term (ra/vec; black-box backends contribute
        root-only records), a root estimate from the planner's winning
        candidate when cost-planned, else from the estimator directly.
        The walk is what a fresh estimator sees at the time of the
        execution, memoised per executed term (:meth:`estimates`).
        """
        store = handles[0].session.store
        op_estimates: Counter = Counter()
        estimated: float | None = None
        for handle in handles:
            choice = handle.choice
            root = None if choice is None else choice.winner.rows
            term = getattr(handle.plan, "term", None)
            if term is not None:
                estimates = self.estimates(store, term)
                op_estimates.update(estimates.op_rows)
                if root is None:
                    root = estimates.root_rows
            if root is not None:
                estimated = root if estimated is None else estimated + root
        self._records.append(
            TelemetryRecord(
                backend=handles[0].backend_name,
                op_rows=stats.operator_rows() if stats is not None else {},
                op_estimates=dict(op_estimates),
                estimated_rows=estimated,
                actual_rows=sum(map(len, answers)),
            )
        )
        self.total_recorded += 1

    def estimates(
        self,
        store: RelationalStore,
        term: RaTerm,
        estimator: Estimator | None = None,
    ) -> _Estimates:
        """The telemetry estimates of one executed term, walked once.

        Keyed by the term, so every handle drawn from one cached plan —
        a fresh handle per ``execute(text)`` — shares one walk. The walk
        is redone (over ``estimator``, else a fresh one) after a write.
        Plain dict operations: two threads racing here cost at most a
        duplicate walk.
        """
        estimates = self._estimates.get(term)
        if estimates is None or estimates.version != store.version:
            if estimator is None:
                estimator = Estimator(store)
            estimates = _Estimates.walk(term, estimator)
            if len(self._estimates) >= MEMO_SIZE:
                self._estimates.clear()
            self._estimates[term] = estimates
        return estimates

    def clear(self) -> None:
        """Forget the estimate memo (walked over a store being dropped)."""
        self._estimates.clear()

    def stats(self) -> dict:
        """The log's size and its Q-error summary."""
        return {
            "records": len(self._records),
            "total_recorded": self.total_recorded,
            "q_error": q_error_summary(self._records),
        }
