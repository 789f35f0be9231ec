"""Calibration telemetry: what each run logs, and the profiles fitted from it.

:class:`Telemetry` alone decides what an execution leaves behind for
the cost model. Every run appends one record to the session's
:class:`~repro.planner.CalibrationLog` — per-operator estimated rows
next to the actual ones and their seconds, the root estimate, the
predicted cost — and :meth:`Telemetry.calibrate` least-squares fits
per-backend cost profiles from the log. The fitted
:class:`~repro.planner.CalibrationState` is what the planner ranks with
and what ``explain`` reports Q-error against.
"""

from __future__ import annotations

import pathlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.cache import MEMO_SIZE
from repro.exec.executor import ExecutionStats
from repro.exec.result import ResultSet
from repro.planner import (
    CalibrationLog,
    CalibrationState,
    CostProfile,
    calibrate_from_log,
    estimate_kind_rows,
)
from repro.ra.stats import Estimator, unpinned_fixpoint_growth
from repro.ra.terms import Fix, RaTerm
from repro.storage.relational import RelationalStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import PreparedQuery


@dataclass(frozen=True)
class _Estimates:
    """What the calibration log records as estimated for one term.

    Valid while a fresh unpinned :class:`Estimator` over the store would
    walk the same numbers: at store ``version`` and, when the term holds
    a fixpoint, under closure growth ``growth`` (``None``: no fixpoint,
    the estimates do not depend on it). Telemetry memoises one per
    executed term (:meth:`Telemetry.estimates`), so every handle of a
    cached plan shares it.
    """

    version: int
    growth: float | None
    op_rows: Mapping[str, float]
    root_rows: float

    def current(self, store: RelationalStore) -> bool:
        return self.version == store.version and (
            self.growth is None
            or self.growth == unpinned_fixpoint_growth(store)
        )

    @classmethod
    def walk(cls, term: RaTerm, estimator: Estimator) -> "_Estimates":
        recursive = any(isinstance(node, Fix) for node in term.walk())
        return cls(
            estimator.version,
            estimator.fixpoint_growth if recursive else None,
            estimate_kind_rows(term, estimator.store, estimator),
            estimator.rows(term),
        )


class Telemetry:
    """A session's calibration log, fitted state and estimate memo."""

    def __init__(
        self, calibration: "CalibrationState | str | pathlib.Path | None"
    ):
        #: Per-operator (estimate, actual, seconds) telemetry of every
        #: execution — the raw material ``calibrate()`` fits cost
        #: profiles from and Q-error summaries are computed over.
        self.log = CalibrationLog()
        if calibration is not None and not isinstance(
            calibration, CalibrationState
        ):
            calibration = CalibrationState.load(calibration)
        #: Fitted cost profiles the planner ranks with (None until
        #: ``calibrate()`` runs or a persisted state is loaded).
        self.state: CalibrationState | None = calibration
        #: Executed term -> its telemetry estimates; see :meth:`estimates`.
        self._estimates: dict[RaTerm, _Estimates] = {}

    def record(
        self,
        handles: "Sequence[PreparedQuery]",
        answers: Sequence[ResultSet],
        stats: ExecutionStats | None,
        seconds: float,
        workload: str,
    ) -> None:
        """Append one run's telemetry to the calibration log.

        One record per run: a shared run memoises common subtrees, so
        its operator timings cannot be attributed per plan, and its
        estimates are the sums over the plans it carried. Per-operator
        estimates come from the cost model's own cardinality walk over
        each executed term (ra/vec; black-box backends contribute
        totals-only records), a root estimate from the planner's winning
        candidate when cost-planned, else from the estimator directly;
        the predicted cost is known when every plan was cost-planned.
        The walk is what a fresh unpinned estimator sees at the time of
        the execution, memoised per executed term (:meth:`estimates`).
        """
        store = handles[0].session.store
        op_estimates: Counter | None = None
        estimated: float | None = None
        predicted: float | None = 0.0
        for handle in handles:
            choice = handle.choice
            root: float | None = None
            if choice is not None:
                root = choice.winner.rows
                if predicted is not None:
                    predicted += choice.winner.cost
            else:
                predicted = None
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
            workload=workload,
            seconds=seconds,
            stats=stats,
            op_estimates=op_estimates,
            estimated_rows=estimated,
            actual_rows=sum(map(len, answers)),
            predicted_cost=predicted,
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
        is redone (over ``estimator``, else a fresh unpinned one) only
        when a write or a change in fixpoint growth could have moved its
        numbers (:meth:`_Estimates.current`). Plain dict operations: two
        threads racing here cost at most a duplicate walk.
        """
        estimates = self._estimates.get(term)
        if estimates is None or not estimates.current(store):
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

    # -- calibration (telemetry → fit → exploit) ---------------------------
    def profile(self, backend: str) -> CostProfile | None:
        """The fitted cost profile for ``backend`` (None: uncalibrated)."""
        if self.state is None:
            return None
        return self.state.profile_for(backend)

    def calibrate(
        self,
        persist_path: "str | pathlib.Path | None" = None,
        backends: Sequence[str] | None = None,
    ) -> CalibrationState:
        """Fit per-backend cost profiles from the log and make them the
        active state; ``persist_path`` also writes it as JSON."""
        state = calibrate_from_log(self.log, backends=backends)
        self.state = state
        if persist_path is not None:
            state.save(persist_path)
        return state

    def stats(self) -> dict:
        """The log's size, the fitted backends and the Q-error summary."""
        state = self.state
        return {
            "records": len(self.log),
            "total_recorded": self.log.total_recorded,
            "fitted_backends": (
                list(state.fitted_backends) if state is not None else []
            ),
            "q_error": self.log.summary(),
        }

    def q_error(self, backend: str) -> dict | None:
        """Root-cardinality Q-error summary for explain (None: no data)."""
        summary = self.log.backend_summary(backend)
        if summary is None:
            return None
        summary = dict(summary)
        summary["calibrated"] = (
            self.state is not None and backend in self.state.fitted_backends
        )
        return summary
