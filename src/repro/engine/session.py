"""``GraphSession`` — the single entry point over all execution substrates.

A session over one graph and schema lazily builds and owns the derived
artefacts (relational store, SQLite database, pattern engine) and
answers ``prepare`` / ``execute`` / ``explain`` on every
registered backend, under one resolved
:class:`~repro.engine.options.ExecOptions` per call (session defaults,
then ``exec_options=``, then the positional ``backend``; unset is
``vec``). It is a façade over five owners, one decision each:
``frontend`` (parse, rewrite, conformance gate), ``planning`` (plan
choice, plan cache), ``dispatcher`` (running plans, degradation),
``results`` (the opt-in result cache) and ``telemetry`` (Q-error).
``planner_stats``, ``cache_stats`` and ``resilience_stats`` assemble
their counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.rewriter import RewriteOptions, RewriteResult
from repro.engine import backends as _backends  # noqa: F401 - registers adapters
from repro.engine.cache import CacheStats, ResultCache
from repro.engine.dispatch import Dispatcher
from repro.engine.frontend import Frontend
from repro.engine.options import (
    DEFAULT_BACKEND,
    DEFAULT_EXEC_OPTIONS,
    ExecOptions,
)
from repro.engine.planning import PlannedQuery, Planning
from repro.engine.protocol import Backend, available_backends, get_backend
from repro.engine.report import ExplainReport
from repro.engine.resilience import BreakerConfig, RetryPolicy
from repro.engine.telemetry import Telemetry, q_error_summary
from repro.exec.dictionary import (
    closures_kept,
    encoding_appends,
    tables_encoded,
)
from repro.exec.executor import ExecutionStats
from repro.exec.result import ResultSet
from repro.graph.evaluator import EvalBudget, ResourceBudget
from repro.graph.model import PropertyGraph
from repro.planner import PlanChoice, validate_planner
from repro.query.model import UCQT
from repro.schema.model import GraphSchema
from repro.sql.sqlite_backend import SqliteBackend
from repro.storage.relational import RelationalStore
from repro.testing.faults import fault_point


@dataclass
class PreparedQuery:
    """A query bound to one backend with its compiled plan.

    Executing it touches neither the rewriter nor the optimiser. A
    ``plan`` of None means the schema proved the query unsatisfiable.
    After a schema change (or a conformance flip) the next ``execute``/
    ``explain`` re-prepares it first. Under the cost planner ``choice``
    holds the ranked candidate table, and ``last_execution_stats`` the
    actual cardinalities next to the winner's estimate.
    """

    session: "GraphSession"
    backend: Backend
    query: UCQT
    executed: UCQT
    rewrite_result: RewriteResult | None
    plan: object | None
    fingerprint: str
    rewrite: bool
    options: "RewriteOptions | None"
    #: The resolved options, ``backend`` / ``planner`` set to what ran: a
    #: re-prepare from them (schema change, degradation) keeps every knob.
    exec_options: ExecOptions
    choice: PlanChoice | None = None
    #: The plan-cache entry a cost-planned handle was drawn from.
    planned: PlannedQuery | None = None
    last_execution_stats: ExecutionStats | None = None
    #: Whether the schema rewrite ran: ``rewrite`` (the request) unless
    #: the conformance gate refused it (paper Def. 3).
    rewrite_applied: bool = True

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def reverted(self) -> bool:
        """True when the executed query is the original (the rewriter
        kept it, or the cost planner chose it over the rewrites)."""
        return self.rewrite_result.reverted if self.rewrite_result else True

    def refresh(self) -> None:
        """Re-prepare in place if the schema or the gate moved on."""
        stale = self.fingerprint != self.session.schema_fingerprint
        if not stale and self.rewrite:
            # Data writes can flip instance conformance, and with it
            # whether the schema rewrite is sound to execute — the plan
            # must follow the gate, not the fingerprint alone.
            stale = self.session.rewrite_sound() != self.rewrite_applied
        if stale:
            renewed = self.session.prepare(
                self.query,
                rewrite=self.rewrite,
                options=self.options,
                exec_options=self.exec_options,
            )
            self.__dict__.update(renewed.__dict__)

    def result_cache_key(self) -> tuple | None:
        """This plan's result-set cache key (None: not cacheable)."""
        return self.session.results.key(self)

    def budget(self, timeout_seconds: "float | EvalBudget | None"):
        """The budget one execution runs under: a budget handed in, the
        timeout wrapped with the options' ``max_rows`` / ``max_bytes``
        caps, or (ungoverned) the plain timeout."""
        if isinstance(timeout_seconds, EvalBudget):
            return timeout_seconds
        caps = self.exec_options
        if caps.max_rows is None and caps.max_bytes is None:
            return timeout_seconds
        return ResourceBudget(timeout_seconds, caps.max_rows, caps.max_bytes)

    def execute(
        self, timeout_seconds: "float | EvalBudget | None" = None
    ) -> ResultSet:
        """Answer the query: a batch of one (:meth:`Dispatcher.answer`)."""
        return self.session.dispatcher.answer([self], timeout_seconds)[0][0]

    def explain(self) -> ExplainReport:
        """The structured explain report (renders to the classic text)."""
        self.refresh()
        session = self.session
        plan_text = None
        result_cache = maintenance = None
        if self.plan is not None:
            plan_text = self.backend.explain(session, self.plan)
            if self.result_cache_key() is not None:
                result_cache = session.results.stats()
                counters = session.results.maintenance
                if counters.results_maintained or counters.results_invalidated:
                    maintenance = counters
        # An untouched session renders byte-identical: no resilience.
        resilience = (
            None if session.dispatcher.idle else session.resilience_stats()
        )
        return ExplainReport(
            backend=self.backend_name,
            query=str(self.query),
            plan_text=plan_text,
            choice=self.choice,
            result_cache=result_cache,
            maintenance=maintenance,
            q_error=q_error_summary(
                session.telemetry.records, self.backend_name
            )["root"],
            resilience=resilience,
            planner=None if self.planned is None else {
                "candidates": len(self.planned.planning.candidates),
                "plan_seconds": self.planned.seconds,
            },
        )


class GraphSession:
    """Unified engine façade over one property graph and its schema."""

    def __init__(
        self,
        graph: PropertyGraph,
        schema: GraphSchema,
        *,
        store: RelationalStore | None = None,
        aliases: Mapping[str, tuple[str, ...]] | None = None,
        rewrite_options: RewriteOptions | None = None,
        cache_size: int = 256,
        result_cache_size: int = 0,
        exec_options: ExecOptions | None = None,
        breaker_config: BreakerConfig | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        #: Session-default execution options; a call's ``exec_options``
        #: (and its positional ``backend``) overlay these.
        self.exec_options = DEFAULT_EXEC_OPTIONS.merged(exec_options)
        validate_planner(self.planner)
        self._store = store
        self.rewrite_options = rewrite_options or RewriteOptions()
        self.frontend = Frontend(graph, schema, aliases, store, cache_size)
        self.planning = Planning(cache_size)
        self.dispatcher = Dispatcher(breaker_config, retry_policy)
        self.results = ResultCache(result_cache_size)
        self.telemetry = Telemetry()
        self._sqlite: SqliteBackend | None = None

    # -- derived artefacts (built lazily, owned by the session) -----------
    @property
    def schema(self) -> GraphSchema:
        return self.frontend.schema

    @property
    def schema_fingerprint(self) -> str:
        return self.frontend.fingerprint

    @property
    def graph(self) -> PropertyGraph:
        """The property graph, caught up with any store appends."""
        return self.frontend.graph(self._store)

    @property
    def planner(self) -> str:
        """The default planning mode (unset is ``"greedy"``)."""
        return self.exec_options.planner or "greedy"

    @property
    def store(self) -> RelationalStore:
        if self._store is None:
            self._store = self.frontend.build_store()
        return self._store

    @property
    def sqlite(self) -> SqliteBackend:
        if self._sqlite is None:
            self._sqlite = SqliteBackend(self.store)
        else:
            self._sqlite.sync()
        return self._sqlite

    def snapshot_session(self, version: int) -> "GraphSession | None":
        """A session over this session's store *as of* ``version``.

        The serving tier's snapshot-isolated read path: the store
        rebuilds the pinned view from its append delta
        (:meth:`~repro.storage.relational.RelationalStore.snapshot_at`)
        for the relational backends; the graph engines read the live
        graph. ``self`` when ``version`` is current, ``None`` when no
        append-only delta covers the interval. The snapshot has fresh
        rewrite and plan caches and no result cache, and shares this
        session's dispatcher: a read that straddled a write degrades
        under the live breakers and policy and counts in the live stats.
        """
        snapshot = self.store.snapshot_at(version)
        if snapshot is None:
            return None
        if snapshot is self.store:
            return self
        fault_point("snapshot.rebuild")
        session = GraphSession(
            self.graph, self.schema, store=snapshot,
            rewrite_options=self.rewrite_options,
            exec_options=self.exec_options,
        )
        session.dispatcher = self.dispatcher
        return session

    def update_schema(self, schema: GraphSchema) -> None:
        """Swap the schema: derived artefacts rebuild lazily and the new
        fingerprint retires every cached rewrite and plan."""
        self.frontend.update_schema(schema)
        self.telemetry.clear()  # estimates walked over the dropped store
        if self._sqlite is not None:
            self._sqlite.close()
        self._sqlite = None
        self._store = None

    def rewrite_sound(self) -> bool:
        """True when schema rewriting is sound over the current instance
        (:meth:`~repro.engine.frontend.Frontend.rewrite_sound`)."""
        return self.frontend.rewrite_sound(self.store)

    # -- the pipeline, cached ----------------------------------------------
    def rewrite(
        self,
        query: UCQT | str,
        options: RewriteOptions | None = None,
    ) -> RewriteResult:
        """Schema-rewrite a query, memoised on (query, fingerprint, options)."""
        return self.frontend.rewrite(
            self.frontend.parse(query), options or self.rewrite_options
        )

    def prepare(
        self,
        query: UCQT | str,
        backend: str | None = None,
        *,
        rewrite: bool = True,
        options: RewriteOptions | None = None,
        exec_options: ExecOptions | None = None,
    ) -> PreparedQuery:
        """Compile a query for one backend, through the cache layers.

        ``rewrite=False`` skips the schema rewriter (the paper's
        baseline); ``rewrite=True`` rewrites only over a conforming
        instance (:meth:`rewrite_sound`). The resolved options' values
        the backend reads are part of the plan-cache key. ``planner``
        picks the pipeline (:class:`~repro.engine.planning.Planning`);
        ``backend="auto"`` is :data:`DEFAULT_BACKEND` under the cost
        planner.
        """
        query = self.frontend.parse(query)
        resolved = self.exec_options.merged(exec_options)
        backend_name = backend or resolved.backend or DEFAULT_BACKEND
        planner_mode = resolved.planner or self.planner
        if backend_name == "auto":
            backend_name, planner_mode = DEFAULT_BACKEND, "cost"
        applied = rewrite and self.frontend.gate(self.store)
        options = (options or self.rewrite_options) if rewrite else None
        backend_impl = get_backend(backend_name)
        resolved = replace(
            resolved,
            backend=backend_impl.name,
            planner=validate_planner(planner_mode),
        )
        executed, rewrite_result, plan, choice, planned = self.planning.plan(
            self, query, backend_impl, applied, options, resolved
        )
        return PreparedQuery(
            self, backend_impl, query, executed, rewrite_result, plan,
            self.schema_fingerprint, rewrite, options, resolved,
            choice=choice, planned=planned, rewrite_applied=applied,
        )

    def execute(
        self,
        query: UCQT | str,
        backend: str | None = None,
        *,
        timeout_seconds: float | None = None,
        rewrite: bool = True,
        options: RewriteOptions | None = None,
        exec_options: ExecOptions | None = None,
    ) -> ResultSet:
        """Rewrite, plan (both cached) and run a query on one backend:
        an immutable set of head-ordered rows, decoded when read."""
        prepared = self.prepare(
            query, backend,
            rewrite=rewrite, options=options, exec_options=exec_options,
        )
        return prepared.execute(timeout_seconds)

    def execute_batch(
        self,
        queries: "Sequence[UCQT | str]",
        backend: str | None = None,
        *,
        timeout_seconds: float | None = None,
        rewrite: bool = True,
        options: RewriteOptions | None = None,
        exec_options: ExecOptions | None = None,
    ) -> list[ResultSet]:
        """Execute a batch of queries, sharing work across the batch
        (:func:`repro.serve.batch.execute_batch`); input order."""
        from repro.serve.batch import execute_batch

        outcome = execute_batch(
            self, queries, backend,
            timeout_seconds=timeout_seconds, rewrite=rewrite,
            options=options, exec_options=exec_options,
        )
        return list(outcome.results)

    def explain(
        self,
        query: UCQT | str,
        backend: str | None = None,
        *,
        rewrite: bool = True,
        options: RewriteOptions | None = None,
        exec_options: ExecOptions | None = None,
    ) -> ExplainReport:
        """The plan the backend would execute, as an
        :class:`~repro.engine.report.ExplainReport` (``str()`` is the
        classic text, ``to_dict()`` the JSON the HTTP tier ships)."""
        prepared = self.prepare(
            query, backend,
            rewrite=rewrite, options=options, exec_options=exec_options,
        )
        return prepared.explain()

    # -- introspection -----------------------------------------------------
    @property
    def result_cache_enabled(self) -> bool:
        return self.results.enabled

    def resilience_stats(self) -> dict:
        """Degradation counters + per-backend breaker state (JSON-ready)."""
        return self.dispatcher.stats(bool(self.exec_options.fallback))

    @property
    def planner_stats(self) -> dict:
        """What planning did: candidates enumerated and time spent by the
        cost planner, the rewrites gated and the Q-error telemetry. A query is ranked once per plan-cache
        lifetime, so no counter here moves a plan."""
        planning = self.planning
        return {
            "mode": self.planner,
            "candidates_enumerated": planning.candidates_enumerated,
            "plan_seconds": planning.plan_seconds,
            "rewrites_gated": self.frontend.rewrites_gated,
            "instance_conforming": self.frontend.conforming,
            "resilience": self.resilience_stats(),
            "calibration": self.telemetry.stats(),
        }

    @property
    def backends(self) -> tuple[str, ...]:
        return available_backends()

    @property
    def cache_stats(self) -> "dict[str, CacheStats | ExecutionStats]":
        maintenance = self.results.maintenance
        maintenance.encoding_appends = maintenance.tables_encoded = 0
        maintenance.closures_kept = 0
        if self._store is not None:
            maintenance.encoding_appends = encoding_appends(self._store)
            maintenance.tables_encoded = tables_encoded(self._store)
            maintenance.closures_kept = closures_kept(self._store)
        return {
            "rewrite": self.frontend.rewrites.stats(),
            "plan": self.planning.plans.stats(),
            "result": self.results.stats(),
            "maintenance": maintenance,
        }

    def clear_caches(self) -> None:
        self.frontend.clear()
        self.telemetry.clear()
        self.planning.plans.clear()
        self.results.clear()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSession({self.graph.name!r}, schema={self.schema.name!r}, "
            f"fingerprint={self.schema_fingerprint})"
        )
