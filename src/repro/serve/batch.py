"""Batched multi-query execution over one :class:`GraphSession`.

A *batch* is a sequence of queries answered together. The planner side
leans entirely on the session's cache layers — each **distinct**
normalised query is rewritten and prepared once, however many times it
occurs in the batch — and the execution side is the session's one
runner (:meth:`~repro.engine.dispatch.Dispatcher.answer`), the same
code a single ``execute`` goes through: a single read is a batch of one.

What a batch shares:

* on the columnar backends (``vec`` and ``ra``, which is the same
  executor pinned to the pure-Python kernel) the plans of one backend
  run through one :meth:`~repro.engine.backends.VecBackend.run_plans`
  call under one budget: the store's dictionary encoding is built once
  for the union of every program's scan manifest, and equal closed
  µ-RA subtrees (common scans, joins, transitive-closure fixpoints) are
  materialised exactly once — the compiler hands equal subtrees the
  same operator node, and the shared runner memoises by node;
* on every backend duplicates collapse: each distinct prepared plan
  executes once and fans its rows out to all the requests that asked
  for it.

When the session's **result-set cache** is enabled, every distinct plan
is first looked up by ``(backend, structural plan token, schema
fingerprint, the option values the backend reads)`` — plans answered
under the current store version skip execution entirely, entries stale
only by an append-only write are incrementally *maintained* from the
store delta (still a hit), and only true misses run. Hits and misses are
counted on the batch's :class:`~repro.exec.executor.ExecutionStats`.

:class:`BatchReport` records what was shared so callers (benchmarks,
the CLI, tests) can see the batching effect instead of trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engine.options import DEFAULT_BACKEND
from repro.exec.executor import ExecutionStats
from repro.exec.result import ResultSet
from repro.query.model import UCQT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rewriter import RewriteOptions
    from repro.engine.options import ExecOptions
    from repro.engine.session import GraphSession, PreparedQuery


@dataclass(frozen=True)
class BatchReport:
    """What one batch execution actually did.

    ``queries`` is the batch size, ``distinct_plans`` how many plans were
    prepared after collapsing duplicates (unsatisfiable queries count —
    their "plan" is the empty result), and ``execution`` the pooled
    counters of the batch's columnar (``vec``/``ra``) runs plus its
    result-cache hits and misses (``None`` when no plan is columnar).
    """

    backend: str
    fingerprint: str
    queries: int
    distinct_plans: int
    execution: ExecutionStats | None = None

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

    ``timeout_seconds`` bounds each run of the batch (one shared budget
    per columnar backend, one per plan elsewhere); so do the
    ``max_rows``/``max_bytes`` caps of the options. Results are returned
    in input order; submitting the same query twice returns the same row
    set twice at the cost of one execution. ``exec_options`` overlays
    the session's defaults for the whole batch; its ``planner="cost"``
    plans every distinct query through the shared cost model (the
    per-store statistics snapshot is shared across the whole batch),
    and each run's record in the session's telemetry
    (:class:`~repro.engine.telemetry.Telemetry`) then carries the
    summed estimated-vs-actual root cardinalities. With ``fallback``
    set, a retryable failure of a shared run re-executes only the plans
    that run carried, each through the session's degradation loop.
    ``backend="auto"`` runs the whole batch on the default backend under
    the cost planner (:meth:`~repro.engine.session.GraphSession.prepare`).
    """
    requested = backend
    if requested is None:
        merged = session.exec_options.merged(exec_options)
        requested = merged.backend or DEFAULT_BACKEND
    parsed = [session.frontend.parse(query) for query in queries]
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
    answers, stats = session.dispatcher.answer(
        list(prepared.values()), timeout_seconds
    )
    rows_by_key = dict(zip(prepared, answers))
    report = BatchReport(
        backend=requested,
        fingerprint=session.schema_fingerprint,
        queries=len(parsed),
        distinct_plans=len(prepared),
        execution=stats,
    )
    return BatchOutcome(
        results=tuple(rows_by_key[key] for key in keys), report=report
    )
