"""Q-error telemetry: what each run logs about the cost model's estimates.

:class:`Telemetry` alone decides what an execution leaves behind for
the cost model. Every run appends one record to the session's
:class:`~repro.planner.CalibrationLog`: per-operator estimated rows
next to the actual ones, and the root estimate next to the result size.
``explain``, ``planner_stats`` and ``/metrics`` report the Q-error
distributions of that log.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.cache import MEMO_SIZE
from repro.exec.executor import ExecutionStats
from repro.exec.result import ResultSet
from repro.planner import CalibrationLog, estimate_kind_rows
from repro.ra.stats import Estimator
from repro.ra.terms import RaTerm
from repro.storage.relational import RelationalStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import PreparedQuery


@dataclass(frozen=True)
class _Estimates:
    """What the calibration log records as estimated for one term.

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
    """A session's calibration log and estimate memo."""

    def __init__(self):
        #: Per-operator (estimate, actual) telemetry of every execution,
        #: which the Q-error summaries are computed over.
        self.log = CalibrationLog()
        #: Executed term -> its telemetry estimates; see :meth:`estimates`.
        self._estimates: dict[RaTerm, _Estimates] = {}

    def record(
        self,
        handles: "Sequence[PreparedQuery]",
        answers: Sequence[ResultSet],
        stats: ExecutionStats | None,
    ) -> None:
        """Append one run's telemetry to the calibration log.

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
        op_estimates: Counter | None = None
        estimated: float | None = None
        for handle in handles:
            choice = handle.choice
            root = None if choice is None else choice.winner.rows
            term = getattr(handle.plan, "term", None)
            if term is not None:
                estimates = self.estimates(store, term)
                if op_estimates is None:
                    op_estimates = Counter()
                op_estimates.update(estimates.op_rows)
                if root is None:
                    root = estimates.root_rows
            if root is not None:
                estimated = root if estimated is None else estimated + root
        self.log.record_execution(
            backend=handles[0].backend_name,
            stats=stats,
            op_estimates=op_estimates,
            estimated_rows=estimated,
            actual_rows=sum(map(len, answers)),
        )

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
            "records": len(self.log),
            "total_recorded": self.log.total_recorded,
            "q_error": self.log.summary(),
        }
