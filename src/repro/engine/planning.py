"""Plan selection: which compiled plan a query runs.

:class:`Planning` alone decides how a query becomes an executable plan
on one backend, and owns the plan cache that memoises the decision.
``greedy`` compiles the rewriter's own choice; ``cost`` plans the
query's two candidates once (the original and its schema rewrite),
ranks them once under the one cost profile and compiles the winner for
the backend asked for. Either way a query is planned once per
plan-cache lifetime: the choice depends on the query, the schema and the
store snapshot, never on what ran before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.rewriter import RewriteOptions
from repro.engine.cache import LruCache
from repro.engine.options import ExecOptions
from repro.engine.protocol import Backend
from repro.exec.kernels import default_kernel, get_kernel
from repro.exec.spill import default_spill_threshold, spill_supported
from repro.planner import PlanChoice, PlanningPass
from repro.query.model import UCQT, drop_unsatisfiable_disjuncts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import GraphSession

#: Compiled winners one cost-planned entry keeps (one per backend /
#: option-values / byte-cap combination asked for; oldest dropped).
_MAX_COMPILED_PER_QUERY = 8


@dataclass
class PlannedQuery:
    """A query's plan-cache entry under the cost planner.

    Everything planning decided for one (query, rewrite, schema,
    options): the pass itself and each winner compiled so far. One
    entry, so evicting it re-plans all of it.
    """

    planning: PlanningPass
    #: Wall-clock spent planning this entry (reported, never decided on).
    seconds: float = 0.0
    #: (backend, its option values, max_bytes) -> (plan, choice).
    compiled: dict[tuple, tuple[object | None, PlanChoice]] = field(
        default_factory=dict
    )


class Planning:
    """A session's plan cache and plan choice."""

    def __init__(self, cache_size: int):
        self.plans = LruCache(cache_size)
        self.candidates_enumerated = 0
        self.plan_seconds = 0.0
        #: Memory-dimension planning counters (``planner_stats``).
        self.spill_decisions = 0
        self.last_peak_estimate = 0.0

    def plan(
        self,
        session: "GraphSession",
        query: UCQT,
        backend: Backend,
        rewrite: bool,
        options: RewriteOptions | None,
        exec_options: ExecOptions,
    ) -> tuple:
        """Plan ``query`` on ``backend`` (``rewrite``: the front end lets
        the schema rewrite run). Returns the executed query, the rewrite
        behind it, the plan (None: unsatisfiable) and, cost-planned, the
        ranked choice and the plan-cache entry it was drawn from."""
        if exec_options.planner == "cost":
            return self._plan_cost(
                session, query, backend, rewrite, options, exec_options
            )
        rewrite_result = None
        executed = query
        if rewrite:
            rewrite_result = session.frontend.rewrite(
                query, options or session.rewrite_options
            )
            executed = rewrite_result.query
        executed = drop_unsatisfiable_disjuncts(executed)
        plan = None
        if not executed.is_empty:
            key = (
                backend.name,
                str(query),
                rewrite,
                session.schema_fingerprint,
                options,
                exec_options.key_for(backend),
            )
            plan = self.plans.get_or_create(
                key, lambda: backend.prepare(session, executed, exec_options)
            )
        return executed, rewrite_result, plan, None, None

    def _plan_cost(
        self,
        session: "GraphSession",
        query: UCQT,
        backend: Backend,
        rewrite: bool,
        options: RewriteOptions | None,
        exec_options: ExecOptions,
    ) -> tuple:
        """The cost-based path of :meth:`plan`: rank the query's
        planning pass (:meth:`planned`) and compile the winner for the
        backend, kept inside the query's planner entry."""
        planned = self.planned(session, query, rewrite, options)
        compiled_key = (
            backend.name,
            exec_options.key_for(backend),
            exec_options.max_bytes,
        )
        compiled = planned.compiled.get(compiled_key)
        if compiled is None:
            started = time.perf_counter()
            store = session.store
            choice = planned.planning.choice(store)
            term = choice.winner.candidate.term
            if term is not None and hasattr(backend, "prepare_from_term"):
                # The backend executes this very term, so what telemetry
                # will log for it is already in the pass's estimator.
                session.telemetry.estimates(
                    store, term, planned.planning.estimator
                )
            # Planned: what stays cached is the candidates and the
            # ranking, not every estimate behind them.
            planned.planning.release()
            self._charge(planned, started)
            compiled = self._compile_winner(
                session, backend, choice, exec_options
            )
            if len(planned.compiled) >= _MAX_COMPILED_PER_QUERY:
                del planned.compiled[next(iter(planned.compiled))]
            planned.compiled[compiled_key] = compiled
        plan, choice = compiled
        self.last_peak_estimate = choice.peak_bytes
        winner = choice.winner.candidate
        return winner.query, winner.rewrite_result, plan, choice, planned

    def planned(
        self,
        session: "GraphSession",
        query: UCQT,
        rewrite: bool,
        options: RewriteOptions | None,
    ) -> PlannedQuery:
        """The query's cost-planner cache entry, enumerating the
        candidates on a miss — the one enumeration every compiled plan
        of the query is drawn from."""
        key = (
            "planner",
            str(query),
            rewrite,
            session.schema_fingerprint,
            options,
        )

        def plan() -> PlannedQuery:
            started = time.perf_counter()
            planned = PlannedQuery(
                PlanningPass.for_query(
                    query, session.schema, session.store,
                    rewrite=rewrite, options=options,
                )
            )
            self.candidates_enumerated += len(planned.planning.candidates)
            self._charge(planned, started)
            return planned

        return self.plans.get_or_create(key, plan)

    def _charge(self, planned: PlannedQuery, started: float) -> None:
        elapsed = time.perf_counter() - started
        planned.seconds += elapsed
        self.plan_seconds += elapsed

    def _compile_winner(
        self,
        session: "GraphSession",
        backend: Backend,
        choice: PlanChoice,
        exec_options: ExecOptions,
    ) -> tuple[object | None, PlanChoice]:
        winner = choice.winner.candidate
        if winner.term is None:
            return None, choice
        if backend.name == "vec":
            exec_options, choice = self._memory_decision(choice, exec_options)
        from_term = getattr(backend, "prepare_from_term", None)
        if from_term is not None:
            plan = from_term(session, winner.term, winner.query, exec_options)
        else:
            plan = backend.prepare(session, winner.query, exec_options)
        return plan, choice

    def _memory_decision(self, choice: PlanChoice, options: ExecOptions):
        """The out-of-core decision for one cost-planned vec query.

        Spill turns on when the peak-memory estimate exceeds the
        configured ``spill_threshold_bytes`` (option or
        ``REPRO_SPILL_THRESHOLD_BYTES``) or, with none configured, the
        hard ``max_bytes`` cap — which then becomes the threshold the
        plan is compiled under (it spills rather than aborts). A kernel
        that cannot memmap gets no decision. Returns the options and the
        choice, the decision recorded.
        """
        threshold = options.spill_threshold_bytes
        if threshold is None:
            threshold = default_spill_threshold()
        limit = threshold if threshold is not None else options.max_bytes
        if limit is None or choice.peak_bytes <= limit:
            return options, choice
        if not spill_supported(
            get_kernel(options.kernel) if options.kernel else default_kernel()
        ):
            return options, choice
        self.spill_decisions += 1
        if threshold is None:
            options = replace(options, spill_threshold_bytes=limit)
        return options, choice.with_memory(spill=True)
