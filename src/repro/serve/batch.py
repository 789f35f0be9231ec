"""Batched multi-query execution over one :class:`GraphSession`.

A *batch* is a sequence of queries answered together. The planner side
leans entirely on the session's cache layers — each **distinct**
normalised query is rewritten and prepared once, however many times it
occurs in the batch — and the execution side shares physical work:

* on the ``vec`` backend the whole batch runs through one
  :meth:`~repro.engine.backends.VecBackend.run_plans` call — the same
  function a single ``vec``/``ra`` execution goes through, so the
  kernel pin and the spill knobs of the batch's
  :class:`~repro.engine.options.ExecOptions` hold here too — and the
  store's dictionary encoding is built once for the union of every
  program's scan manifest and equal closed µ-RA subtrees (common scans,
  joins, transitive-closure fixpoints) are materialised exactly once for
  the batch — the compiler hands equal subtrees the same operator node,
  and the shared runner memoises by node;
* on every other backend the batch still collapses duplicates: each
  distinct prepared plan executes once and fans its rows out to all the
  requests that asked for it.

When the session's **result-set cache** is enabled, every distinct plan
is first looked up by ``(backend, structural plan token, schema
fingerprint, the option values the backend reads)`` — plans answered
under the current store version skip execution entirely, entries stale
only by an append-only write are incrementally *maintained* from the
store delta (still a hit), and only true misses enter the shared runner.
Hits and misses are counted on the batch's
:class:`~repro.exec.executor.ExecutionStats`.

:class:`BatchReport` records what was shared so callers (benchmarks,
the CLI, tests) can see the batching effect instead of trusting it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.backends import VecPlan
from repro.errors import ReproError
from repro.exec.executor import ExecutionStats
from repro.exec.result import EMPTY, ResultSet
from repro.graph.evaluator import EvalBudget, ResourceBudget
from repro.planner import OPERATOR_KINDS, estimate_kind_rows
from repro.query.model import UCQT
from repro.ra.stats import Estimator, store_statistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rewriter import RewriteOptions
    from repro.engine.options import ExecOptions
    from repro.engine.session import GraphSession, PreparedQuery


@dataclass(frozen=True)
class BatchReport:
    """What one batch execution actually did.

    ``queries`` is the batch size, ``distinct_plans`` how many plans were
    prepared after collapsing duplicates (unsatisfiable queries count —
    their "plan" is the empty result), and ``execution`` the operator
    counters of the shared ``vec`` runner (``None`` on other backends).
    """

    backend: str
    fingerprint: str
    queries: int
    distinct_plans: int
    execution: ExecutionStats | None = None
    #: Distinct plans per concrete backend when the batch ran with
    #: ``backend="auto"`` (the calibrated cost model picks a substrate
    #: per query); ``None`` for a uniform-backend batch.
    backend_choices: Mapping[str, int] | None = None

    @property
    def duplicate_queries(self) -> int:
        return self.queries - self.distinct_plans


@dataclass(frozen=True)
class BatchOutcome:
    """Results (input order) plus the sharing report for one batch."""

    results: tuple[ResultSet, ...]
    report: BatchReport


def execute_batch(
    session: "GraphSession",
    queries: Sequence[UCQT | str],
    backend: str | None = None,
    *,
    timeout_seconds: float | None = None,
    rewrite: bool = True,
    options: "RewriteOptions | None" = None,
    exec_options: "ExecOptions | None" = None,
) -> BatchOutcome:
    """Prepare and execute ``queries`` as one batch on ``backend``.

    ``timeout_seconds`` bounds the *whole batch* (one shared budget on
    ``vec``, per distinct plan elsewhere). Results are returned in input
    order; submitting the same query twice returns the same row set
    twice at the cost of one execution. ``exec_options`` overlays the
    session's defaults for the whole batch; its ``planner="cost"`` plans
    every distinct query through the shared cost model (the per-store
    statistics snapshot and its adaptive corrections are shared across
    the whole batch), and the batch's :class:`ExecutionStats` then carry
    the summed estimated-vs-actual root cardinalities.

    With ``backend="auto"`` each distinct query is planned onto the
    backend the (calibrated) cost model ranks cheapest for it — one
    batch can execute on several substrates, with every ``vec``-chosen
    plan still going through the shared batch runner and the rest
    executing per plan. ``BatchReport.backend_choices`` records the
    split.
    """
    requested = backend
    if requested is None:
        merged = session.exec_options.merged(exec_options)
        requested = merged.backend or "vec"
    parsed = [session._as_query(query) for query in queries]
    # Collapse duplicates on the normalised query text — the same key the
    # session's caches use, so "distinct" here means "distinct plan".
    prepared: dict[str, "PreparedQuery"] = {}
    keys: list[str] = []
    for query in parsed:
        key = str(query)
        keys.append(key)
        if key not in prepared:
            prepared[key] = session.prepare(
                query,
                requested,
                rewrite=rewrite,
                options=options,
                exec_options=exec_options,
            )
    vec_handles = {
        key: handle
        for key, handle in prepared.items()
        if handle.backend_name == "vec"
    }
    rows_by_key: dict[str, ResultSet] = {}
    stats: ExecutionStats | None = None
    if vec_handles:
        rows_by_key, stats = _execute_vec_shared(
            session, vec_handles, timeout_seconds
        )
    for key, handle in prepared.items():
        if key not in vec_handles:
            rows_by_key[key] = handle.execute(timeout_seconds)
    backend_choices: dict[str, int] | None = None
    if requested == "auto":
        backend_choices = {}
        for handle in prepared.values():
            name = handle.backend_name
            backend_choices[name] = backend_choices.get(name, 0) + 1
    report = BatchReport(
        backend=requested,
        fingerprint=session.schema_fingerprint,
        queries=len(parsed),
        distinct_plans=len(prepared),
        execution=stats,
        backend_choices=backend_choices,
    )
    return BatchOutcome(
        results=tuple(rows_by_key[key] for key in keys), report=report
    )


def _execute_vec_shared(
    session: "GraphSession",
    prepared: Mapping[str, "PreparedQuery"],
    timeout_seconds: float | None,
) -> tuple[dict[str, ResultSet], ExecutionStats]:
    """Run every distinct ``vec`` plan through one shared batch runner.

    Plans whose result set is already cached (result cache enabled,
    store unchanged) never reach the runner; only the misses execute,
    then back-fill the cache for the next batch.

    The handles were prepared under one :class:`ExecOptions`, which
    supplies the batch-wide resource caps (``max_rows`` and
    ``max_bytes`` govern the shared runner as a whole, matching the
    whole-batch semantics of ``timeout_seconds``) and the ``fallback``
    flag: when set, a retryable failure of the shared runner degrades to
    per-plan resilient execution instead of failing the batch.
    """
    runnable: list[tuple[str, "PreparedQuery", VecPlan, tuple | None]] = []
    rows_by_key: dict[str, ResultSet] = {}
    stats = ExecutionStats()
    for key, handle in prepared.items():
        handle._refresh_if_stale()
        plan = handle.plan
        if plan is None:  # schema proved the query unsatisfiable
            rows_by_key[key] = EMPTY
            continue
        if not isinstance(plan, VecPlan):  # pragma: no cover - misuse guard
            raise TypeError(
                f"backend 'vec' produced a {type(plan).__name__}, "
                "not a VecPlan"
            )
        cache_key = handle.result_cache_key()
        if cache_key is not None:
            hit = session._lookup_result(handle, cache_key, timeout_seconds)
            if hit is not None:
                rows_by_key[key] = hit
                stats.result_cache_hits += 1
                continue
            stats.result_cache_misses += 1
        runnable.append((key, handle, plan, cache_key))
    if runnable:
        first = runnable[0][1]
        exec_options = first.exec_options
        version_before = session.store.version
        captures: list[dict | None] | None = None
        if session._incremental_active():
            # Capture closed-fixpoint totals for cacheable plans so the
            # stored entries can be maintained after append-only writes.
            captures = [
                {} if cache_key is not None else None
                for _, _, _, cache_key in runnable
            ]
        if (
            exec_options.max_rows is not None
            or exec_options.max_bytes is not None
        ):
            budget: EvalBudget = ResourceBudget(
                timeout_seconds,
                max_rows=exec_options.max_rows,
                max_bytes=exec_options.max_bytes,
            )
        else:
            budget = EvalBudget(timeout_seconds)
        started = time.perf_counter()
        try:
            results = first.backend.run_plans(
                session,
                [plan for _, _, plan, _ in runnable],
                budget,
                stats,
                captures,
            )
        except ReproError as error:
            if not (error.retryable and exec_options.fallback):
                raise
            # The shared runner failed on a retryable fault. Its partial
            # work and telemetry are discarded wholesale; each plan then
            # re-executes on its own through the session's degradation
            # loop (breakers, retries, cheaper substrates).
            for key, handle, _, _ in runnable:
                rows_by_key[key] = session._execute_resilient(
                    handle, timeout_seconds
                )
            return rows_by_key, stats
        elapsed = time.perf_counter() - started
        cost_planned = False
        actual_total = 0
        for index, ((key, handle, _, cache_key), rows) in enumerate(
            zip(runnable, results)
        ):
            rows_by_key[key] = rows
            actual_total += len(rows)
            if cache_key is not None:
                capture = captures[index] if captures is not None else None
                session._store_result(cache_key, rows, version_before, capture)
            if handle.choice is not None:
                # Cost-planned batches close the adaptive loop per plan
                # and surface summed estimated-vs-actual cardinalities.
                cost_planned = True
                stats.estimated_rows += handle.choice.winner.rows
                stats.actual_rows += len(rows)
                session._observe_execution(handle, len(rows))
        if cost_planned:
            # The shared runner's fixpoint counters span the whole batch,
            # so the growth observation cannot be attributed per plan —
            # feed the pooled ratio into the correction table once.
            growth = stats.observed_fixpoint_growth
            if growth is not None:
                store_statistics(session.store).observe_fixpoint_growth(
                    growth
                )
        _record_batch_telemetry(
            session, runnable, stats, elapsed, actual_total
        )
    return rows_by_key, stats


def _record_batch_telemetry(
    session: "GraphSession",
    runnable: "list[tuple[str, PreparedQuery, VecPlan, tuple | None]]",
    stats: ExecutionStats,
    seconds: float,
    actual_total: int,
) -> None:
    """One pooled calibration record for a shared batch execution.

    The shared runner memoises common subtrees across plans, so
    per-plan attribution of operator timings is impossible — the batch
    contributes a single record with estimates summed over the plans
    that actually executed (cache hits excluded). Root estimates come
    from each plan's cost-planner winner when available, else from the
    estimator.
    """
    estimator = Estimator(session.store)
    op_estimates = {kind: 0.0 for kind in OPERATOR_KINDS}
    estimated_total = 0.0
    predicted_total = 0.0
    predicted_known = True
    for _, handle, plan, _ in runnable:
        for kind, rows in estimate_kind_rows(
            plan.term, session.store, estimator
        ).items():
            op_estimates[kind] += rows
        if handle.choice is not None:
            estimated_total += handle.choice.winner.rows
            predicted_total += handle.choice.winner.cost
        else:
            estimated_total += estimator.rows(plan.term)
            predicted_known = False
    session.calibration_log.record_execution(
        backend="vec",
        workload=session.workload_tag,
        seconds=seconds,
        stats=stats,
        op_estimates=op_estimates,
        estimated_rows=estimated_total,
        actual_rows=actual_total,
        predicted_cost=predicted_total if predicted_known else None,
    )
