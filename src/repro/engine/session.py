"""``GraphSession`` — the single entry point over all execution substrates.

Construct a session once from a :class:`~repro.graph.model.PropertyGraph`
and a :class:`~repro.schema.model.GraphSchema`; it lazily builds and owns
every derived artefact (relational store, in-memory SQLite database,
pattern engine) and serves ``session.execute(query, backend)`` through
the uniform :class:`~repro.engine.protocol.Backend` protocol. Execution
knobs reach it as one :class:`~repro.engine.options.ExecOptions` (the
session's defaults overlaid by the per-call ``exec_options=``, the
positional ``backend`` being shorthand for its ``backend`` field); the
resolved object is what a backend's ``prepare`` receives and what the
:class:`PreparedQuery` keeps. A backend left unset everywhere is
``vec``, the exec layer on the fastest kernel that imports, so an
unconfigured ``session.execute(text)`` takes the fast path.

One method executes prepared handles, :meth:`GraphSession._run`: a
single ``execute`` is a batch of one, and a batch
(:func:`repro.serve.batch.execute_batch`) hands it every distinct
handle. It owns the result-cache lookup and store, the shared columnar
runner (one ``run_plans`` call per columnar backend), the degradation
hand-off, the planner feedback and one calibration record per run.

Two cache layers sit between parsing and execution, both keyed on
``(normalised query text, schema fingerprint, rewrite options)``:

* the **rewrite cache** memoises :func:`repro.core.rewriter.rewrite_query`
  (type inference + merging + redundancy removal is the expensive
  schema-dependent work), and
* the **plan cache** memoises each backend's compiled artefact — the
  optimised µ-RA term, the generated recursive SQL, or the compiled
  graph patterns.

A repeated query therefore pays only for execution; hit/miss counters are
exposed via :attr:`GraphSession.cache_stats`. The schema fingerprint makes
invalidation automatic: :meth:`GraphSession.update_schema` changes the
fingerprint, so every cached entry stops matching.

A third, **opt-in** layer removes execution too: constructing the
session with ``result_cache_size > 0`` caches whole result sets keyed on
``(backend, structural plan token, schema fingerprint, the option values
the backend reads)`` — repeated traffic over an unchanged store becomes
an O(1) lookup. The store version lives *inside* each entry
(:class:`~repro.engine.cache.CachedResult`): after an append-only write
a stale entry is **maintained** instead of recomputed — one delta pass
over the columnar (``vec``/``ra``) program computes the rows the answer
gained from the store's append delta, whether or not the plan kept a
fixpoint (cached fixpoint totals re-seed the semi-naive executor where
it did), and plans that read none of the changed relations are simply
re-stamped. Barrier writes (new tables, replacements, deletions), a
kernel change or a non-columnar backend fall back to eviction.
``REPRO_INCREMENTAL=0`` disables maintenance globally (the store keeps
serving its delta log; only this consumer stops). The
layer is off by default because timed comparisons (the benchmark
harness) must measure execution, not cache hits; the serving entry
points (``repro batch`` / ``repro serve``) switch it on.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.core.rewriter import RewriteOptions, RewriteResult, rewrite_query
from repro.engine import backends as _backends  # noqa: F401 - registers adapters
from repro.engine.cache import (
    CachedResult,
    CacheStats,
    LruCache,
    result_cache_key,
)
from repro.engine.options import (
    DEFAULT_BACKEND,
    DEFAULT_EXEC_OPTIONS,
    ExecOptions,
)
from repro.engine.protocol import Backend, available_backends, get_backend
from repro.engine.report import ExplainReport
from repro.exec.dictionary import encoding_appends, tables_encoded
from repro.exec.executor import CAPTURE_KERNEL, ExecutionStats
from repro.exec.kernels import default_kernel, get_kernel
from repro.exec.spill import (
    SpillManager,
    default_spill_threshold,
    spill_supported,
)
from repro.engine.resilience import BreakerConfig, CircuitBreaker, RetryPolicy
from repro.errors import (
    BackendUnavailableError,
    InjectedFault,
    QueryTimeout,
    ReproError,
)
from repro.exec.maintain import maintain_program, maintainable
from repro.exec.result import EMPTY, ResultSet
from repro.gdb.engine import PatternEngine
from repro.graph.evaluator import EvalBudget, ResourceBudget, as_budget
from repro.graph.model import UNLABELLED, PropertyGraph
from repro.planner import (
    CalibrationLog,
    CalibrationState,
    CostProfile,
    PlanChoice,
    PlanningPass,
    calibrate_from_log,
    estimate_kind_rows,
    validate_planner,
)
from repro.query.model import UCQT, drop_unsatisfiable_disjuncts
from repro.query.parser import parse_query
from repro.ra.stats import (
    Estimator,
    store_statistics,
    unpinned_fixpoint_growth,
)
from repro.ra.terms import Fix, RaTerm
from repro.schema.model import GraphSchema
from repro.schema.validation import check_consistency
from repro.sql.sqlite_backend import SqliteBackend
from repro.storage.relational import RelationalStore
from repro.testing.faults import fault_point


def schema_fingerprint(
    schema: GraphSchema, aliases: Mapping[str, tuple[str, ...]] | None = None
) -> str:
    """A stable digest of a schema's semantic content.

    Covers node labels with their property specifications, the schema
    edge triples, and any alias views layered on top — everything the
    rewriter and the translators can observe. The schema's display name
    is deliberately excluded.
    """
    digest = hashlib.sha256()
    for node in sorted(schema.nodes(), key=lambda n: n.label):
        digest.update(node.label.encode())
        for spec in node.properties:
            digest.update(f"|{spec.key}:{spec.data_type}".encode())
        digest.update(b"\n")
    for edge in sorted(
        schema.edges(),
        key=lambda e: (e.source_label, e.edge_label, e.target_label),
    ):
        digest.update(
            f"{edge.source_label}-[{edge.edge_label}]->{edge.target_label}\n".encode()
        )
    for alias in sorted(aliases or {}):
        digest.update(f"{alias}={','.join(aliases[alias])}\n".encode())
    return digest.hexdigest()[:16]


# The normalisation now lives in repro.query.model so the planner can
# apply it per candidate; the session keeps using it under this name.
_drop_unsatisfiable_disjuncts = drop_unsatisfiable_disjuncts


#: Compiled winners one cost-planned entry keeps (one per backend /
#: option-values / byte-cap combination asked for; oldest dropped).
_MAX_COMPILED_PER_QUERY = 8

#: Entries each keyed memo of a session keeps (parsed query texts,
#: telemetry estimates per executed term); a full memo is emptied.
_MEMO_SIZE = 512


@dataclass
class _PlannedQuery:
    """A query's plan-cache entry under the cost planner.

    Everything planning decided for one (query, rewrite, schema,
    options, growth): the pass itself, the backend ranking
    ``backend="auto"`` and the degradation chain read, and each winner
    compiled so far. One entry, so evicting it re-plans all of it.
    """

    key: tuple
    planning: PlanningPass
    #: Wall-clock spent planning this entry (reported, never decided on).
    seconds: float = 0.0
    #: The eligible backends, cheapest winner first (None: not ranked).
    backends: tuple[str, ...] | None = None
    #: (backend, its option values, max_bytes) -> (plan, choice).
    compiled: dict[tuple, tuple[object | None, PlanChoice]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class _Estimates:
    """What the calibration log records as estimated for one term.

    Valid while a fresh unpinned :class:`Estimator` over the store would
    walk the same numbers: at store ``version`` and, when the term holds
    a fixpoint, under closure growth ``growth`` (``None``: no fixpoint,
    the estimates do not depend on it). The session memoises one per
    executed term (:meth:`GraphSession._term_estimates`), so every
    handle of a cached plan shares it.
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


@dataclass
class PreparedQuery:
    """A query bound to one backend with its compiled plan.

    Executing a prepared query touches neither the rewriter nor the
    optimiser — it holds direct references to the cached artefacts.
    A ``plan`` of None means the schema proved the query unsatisfiable.

    The handle records the schema fingerprint it was prepared under;
    if the session's schema changes, the next ``execute``/``explain``
    transparently re-prepares against the new schema instead of running
    a stale plan over the rebuilt store.

    Under the cost-based planner (``planner="cost"``), ``choice`` holds
    the ranked candidate table (``explain`` renders it), executions on
    stats-capable backends populate ``last_execution_stats`` with actual
    cardinalities next to the winner's estimate, and every execution
    feeds the session's adaptive feedback loop.
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
    #: The execution options the handle was prepared under, resolved
    #: (session defaults, per-call object, positional backend) and with
    #: ``backend`` / ``planner`` set to what actually ran: a re-prepare
    #: from it — after a schema change, or one step down the degradation
    #: chain — keeps every per-call knob.
    exec_options: ExecOptions
    choice: PlanChoice | None = None
    #: The plan-cache entry a cost-planned handle was drawn from.
    planned: _PlannedQuery | None = None
    last_execution_stats: ExecutionStats | None = None
    #: Whether the schema rewrite actually ran. Differs from ``rewrite``
    #: (the request) when the session's conformance gate disabled
    #: rewriting over a non-conforming instance (paper Def. 3 — the
    #: rewriting is only sound on instances that conform to the schema).
    rewrite_applied: bool = True

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def reverted(self) -> bool:
        """True when the executed query is the original (the rewriter
        kept it, or the cost planner chose it over the rewrites)."""
        return self.rewrite_result.reverted if self.rewrite_result else True

    def _refresh_if_stale(self) -> None:
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
        """This plan's result-set cache key (None: not cacheable).

        ``None`` when the session's result cache is disabled, the plan is
        empty, or the backend doesn't expose a structural plan token.
        """
        return self.session._result_key(
            self.backend, self.plan, self.exec_options
        )

    def budget(self, timeout_seconds: "float | EvalBudget | None"):
        """The budget one execution runs under.

        A budget handed in passes through; otherwise the options'
        governor caps (``max_rows`` / ``max_bytes``) wrap the timeout in
        a :class:`~repro.graph.evaluator.ResourceBudget`. Ungoverned
        handles return the plain float so the historical per-backend
        wall-clock behaviour is bit-identical.
        """
        if isinstance(timeout_seconds, EvalBudget):
            return timeout_seconds
        caps = self.exec_options
        if caps.max_rows is None and caps.max_bytes is None:
            return timeout_seconds
        return ResourceBudget(timeout_seconds, caps.max_rows, caps.max_bytes)

    def execute(
        self, timeout_seconds: "float | EvalBudget | None" = None
    ) -> ResultSet:
        """Answer the query: a batch of one (:meth:`GraphSession._run`)."""
        return self.session._run([self], timeout_seconds)[0][0]

    def explain(self) -> ExplainReport:
        """The structured explain report (renders to the classic text)."""
        self._refresh_if_stale()
        session = self.session
        plan_text = None
        result_cache = maintenance = None
        if self.plan is not None:
            plan_text = self.backend.explain(session, self.plan)
            if self.result_cache_key() is not None:
                result_cache = session._result_cache.stats()
                counters = session._maintenance
                if counters.results_maintained or counters.results_invalidated:
                    maintenance = counters
        resilience = session.resilience_stats()
        if not any(resilience[k] for k in ("retries", "degraded", "breaker_opens", "breaker_skips")) and all(
            breaker["state"] == "closed"
            for breaker in resilience["breakers"].values()
        ):
            resilience = None  # untouched session: render byte-identical
        return ExplainReport(
            backend=self.backend_name,
            query=str(self.query),
            plan_text=plan_text,
            choice=self.choice,
            result_cache=result_cache,
            maintenance=maintenance,
            q_error=session._explain_q_error(self.backend_name),
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
        replan_error_threshold: float = 8.0,
        exec_options: ExecOptions | None = None,
        calibration: "CalibrationState | str | pathlib.Path | None" = None,
        workload: str = "default",
        breaker_config: BreakerConfig | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        #: Session-default execution options; a call's ``exec_options``
        #: (and its positional ``backend``) overlay these.
        self.exec_options = DEFAULT_EXEC_OPTIONS.merged(exec_options)
        validate_planner(self.planner)
        self._graph = graph
        self._schema = schema
        self._store = store
        # The store version the graph model reflects: store appends are
        # replayed onto the graph lazily (see the ``graph`` property),
        # so the graph-model engines keep agreeing with the relational
        # backends under writes.
        self._graph_version = store.version if store is not None else 0
        if store is not None:
            # An injected store brings its own alias views; any aliases
            # declared here are added on top (conflicts are API misuse).
            self._aliases: dict[str, tuple[str, ...]] = dict(store.aliases)
            for name, members in (aliases or {}).items():
                members = tuple(members)
                existing = self._aliases.get(name)
                if existing is None:
                    store.add_alias(name, members)
                    self._aliases[name] = members
                elif existing != members:
                    raise ValueError(
                        f"alias {name!r} declared as {members} but the "
                        f"injected store defines it as {existing}"
                    )
        else:
            self._aliases = {k: tuple(v) for k, v in (aliases or {}).items()}
        self.rewrite_options = rewrite_options or RewriteOptions()
        if replan_error_threshold < 1.0:
            raise ValueError(
                "replan_error_threshold is an error *factor* "
                f"(max/min >= 1), got {replan_error_threshold!r}"
            )
        #: Estimated-vs-actual error factor beyond which a cost-planned
        #: entry is evicted from the plan cache and planned again
        #: against the corrected statistics.
        self.replan_error_threshold = replan_error_threshold
        self._planner_replans = 0
        self._planner_observations = 0
        self._candidates_enumerated = 0
        self._plan_seconds = 0.0
        self._sqlite: SqliteBackend | None = None
        self._pattern_engine: PatternEngine | None = None
        self._fingerprint: str | None = None
        #: Query text -> parsed (frozen) query; see :meth:`_as_query`.
        self._parsed: dict[str, UCQT] = {}
        #: Executed term -> its telemetry estimates; see
        #: :meth:`_term_estimates`.
        self._estimates: dict[RaTerm, _Estimates] = {}
        self._rewrite_cache = LruCache(cache_size)
        self._plan_cache = LruCache(cache_size)
        # Whole result sets, keyed on (backend, plan token, fingerprint,
        # frozen options); the store version lives inside each entry so
        # stale results can be incrementally maintained after appends.
        # Off by default: repeated timed executions must measure
        # execution — serving flows opt in.
        self._result_cache = LruCache(result_cache_size)
        #: Counters of the result-maintenance flow (maintained vs
        #: invalidated entries, delta rows applied, encoding appends).
        self._maintenance = ExecutionStats()
        #: Per-operator (estimate, actual, seconds) telemetry of every
        #: execution — the raw material ``calibrate()`` fits cost
        #: profiles from and Q-error summaries are computed over.
        self.calibration_log = CalibrationLog()
        #: Workload tag stamped onto telemetry records (Q-error
        #: summaries group by it). Callers may reassign it between
        #: queries to segment the log.
        self.workload_tag = workload
        if calibration is not None and not isinstance(
            calibration, CalibrationState
        ):
            calibration = CalibrationState.load(calibration)
        #: Fitted cost profiles the planner ranks with (None until
        #: ``calibrate()`` runs or a persisted state is loaded).
        self._calibration: CalibrationState | None = calibration
        #: Memoised instance-conformance verdict: (store version, bool).
        #: Schema rewriting is only sound on conforming instances
        #: (paper Def. 3) — ``rewrite_sound`` gates it per store version.
        self._conformance: tuple[int, bool] | None = None
        self._rewrites_gated = 0
        #: Graceful-degradation state: one circuit breaker per backend
        #: (sessions are per tenant in the serving tier, so breakers are
        #: per (tenant, backend) there), plus aggregate counters
        #: surfaced through ``planner_stats`` and ``/metrics``.
        self.breaker_config = breaker_config or BreakerConfig()
        self.retry_policy = retry_policy or RetryPolicy()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._resilience = {
            "retries": 0,
            "degraded": 0,
            "breaker_opens": 0,
            "breaker_skips": 0,
        }
        #: Lazily created spill directory owner shared by every
        #: out-of-core execution in this session (named base-table
        #: spill files are then reused across executions at one store
        #: version); closed — files and all — with the session.
        self._spill_manager: SpillManager | None = None
        #: Memory-dimension planning counters (``planner_stats``).
        self._spill_decisions = 0
        self._last_peak_estimate = 0.0

    # -- derived artefacts (built lazily, owned by the session) -----------
    @property
    def schema(self) -> GraphSchema:
        return self._schema

    @property
    def schema_fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = schema_fingerprint(self._schema, self._aliases)
        return self._fingerprint

    @property
    def graph(self) -> PropertyGraph:
        """The property graph, caught up with any store appends.

        The relational store is the write surface; the graph model is
        replayed from its append deltas on read so the ``gdb`` and
        ``reference`` engines answer over the same data as ``ra``/
        ``vec``/``sqlite``. Barrier writes (replacements, new tables)
        cannot be replayed — the graph then keeps its pre-write
        contents for those tables.
        """
        self._sync_graph()
        return self._graph

    def _sync_graph(self) -> None:
        store = self._store
        if store is None or store.version == self._graph_version:
            return
        deltas = store.delta_since(self._graph_version)
        self._graph_version = store.version
        if deltas is None:
            return
        graph = self._graph
        node_tables = store.node_tables
        for name in sorted(deltas):
            if name in store.aliases:
                continue  # alias views recompute from their members
            rows = deltas[name]
            if name in node_tables:
                columns = store.table(name).columns
                for row in rows:
                    node = row[0]
                    if (
                        graph.has_node(node)
                        and graph.node_label(node) not in (name, UNLABELLED)
                    ):
                        # Multi-label ids are relational-only; the graph
                        # model keeps the first label it saw.
                        continue
                    graph.add_node(node, name, dict(zip(columns[1:], row[1:])))
            else:
                for row in rows:
                    if len(row) != 2:
                        continue
                    source, target = row
                    for endpoint in (source, target):
                        if not graph.has_node(endpoint):
                            graph.add_node(endpoint, UNLABELLED)
                    graph.add_edge(source, name, target)

    @property
    def planner(self) -> str:
        """The default planning mode, ``exec_options.planner`` (unset is
        ``"greedy"``): ``"greedy"`` runs the classic linear pipeline;
        ``"cost"`` enumerates candidates and picks by cost."""
        return self.exec_options.planner or "greedy"

    @property
    def store(self) -> RelationalStore:
        if self._store is None:
            store = RelationalStore.from_graph(self._graph, self._schema)
            for alias in sorted(self._aliases):
                store.add_alias(alias, self._aliases[alias])
            self._store = store
            self._graph_version = store.version
        return self._store

    @property
    def sqlite(self) -> SqliteBackend:
        if self._sqlite is None:
            self._sqlite = SqliteBackend(self.store)
        else:
            self._sqlite.sync()
        return self._sqlite

    @property
    def pattern_engine(self) -> PatternEngine:
        self._sync_graph()  # the engine reads the graph live
        if self._pattern_engine is None:
            self._pattern_engine = PatternEngine(self._graph)
        return self._pattern_engine

    def snapshot_session(self, version: int) -> "GraphSession | None":
        """A session over this session's store *as of* ``version``.

        The serving tier's snapshot-isolated read path: a read admitted
        at store version ``v`` can execute after append-only writes
        moved the store on and still see exactly the rows of ``v`` —
        the store reconstructs the pinned view by subtracting its
        append delta (:meth:`~repro.storage.relational.RelationalStore.
        snapshot_at`) and this session wraps it for the relational
        backends (``ra``/``vec``; the graph-model engines read the live
        graph and are not snapshot-capable).

        Returns ``self`` when ``version`` is current, ``None`` when no
        append-only delta covers the interval (barrier write, truncated
        log) — callers then fall back to the live session. Snapshot sessions share nothing with the live caches
        (fresh rewrite/plan caches, no result cache): they exist for
        the rare read that straddled a write, not for the hot path.
        """
        snapshot = self.store.snapshot_at(version)
        if snapshot is None:
            return None
        if snapshot is self.store:
            return self
        fault_point("snapshot.rebuild")
        return GraphSession(
            self._graph,
            self._schema,
            store=snapshot,
            rewrite_options=self.rewrite_options,
            result_cache_size=0,
            exec_options=self.exec_options,
            calibration=self._calibration,
            workload=self.workload_tag,
        )

    def update_schema(self, schema: GraphSchema) -> None:
        """Swap the schema: derived artefacts rebuild lazily and the new
        fingerprint retires every cached rewrite and plan."""
        self._schema = schema
        self._fingerprint = None
        self._conformance = None
        self._estimates.clear()  # walked over the store being dropped
        if self._sqlite is not None:
            self._sqlite.close()
        self._sqlite = None
        self._store = None

    # -- the conformance gate (rewrite soundness, paper Def. 3) ------------
    def rewrite_sound(self) -> bool:
        """True when schema rewriting is sound over the current instance.

        The paper's rewriting (Prop. 4.3) assumes the database conforms
        to the schema (Def. 3): on a non-conforming instance a rewrite
        can prune tuples the original query would return — nested
        bounded repetitions over out-of-schema edges were the observed
        symptom. ``prepare`` therefore checks conformance and falls back
        to the unrewritten pipeline when it fails.

        The verdict is memoised per store version. A non-conforming
        verdict *latches* across append-only writes (appends cannot
        remove the violating rows); a conforming verdict is advanced by
        checking only the appended delta. Barrier writes re-run the full
        check.
        """
        version = self.store.version
        cached = self._conformance
        if cached is not None and cached[0] == version:
            return cached[1]
        conforms: bool | None = None
        if cached is not None:
            deltas = self.store.delta_since(cached[0])
            if deltas is not None:
                conforms = cached[1] and self._delta_conforms(deltas)
        if conforms is None:
            conforms = check_consistency(
                self.graph, self._schema, max_violations=1
            ).consistent
        self._conformance = (version, conforms)
        return conforms

    def _delta_conforms(self, deltas: Mapping[str, frozenset]) -> bool:
        """Def. 3 restricted to an append delta's rows (conservative)."""
        store = self.store
        graph = self.graph  # synced past the delta
        node_tables = store.node_tables
        aliases = store.aliases
        allowed = {
            (edge.source_label, edge.edge_label, edge.target_label)
            for edge in self._schema.edges()
        }
        for name in deltas:
            if name in aliases:
                continue  # alias views mirror their member tables
            rows = deltas[name]
            if name in node_tables:
                if not self._schema.has_node_label(name):
                    return False
                spec = self._schema.property_spec(name)
                columns = store.table(name).columns
                for row in rows:
                    for key, value in zip(columns[1:], row[1:]):
                        if value is None:
                            continue  # absent property, not a violation
                        if key not in spec or not spec[key].accepts(value):
                            return False
            else:
                for row in rows:
                    if len(row) != 2:
                        return False
                    source, target = row
                    if not (graph.has_node(source) and graph.has_node(target)):
                        return False
                    triple = (
                        graph.node_label(source), name, graph.node_label(target)
                    )
                    if triple not in allowed:
                        return False
        return True

    # -- the pipeline, cached ----------------------------------------------
    def rewrite(
        self,
        query: UCQT | str,
        options: RewriteOptions | None = None,
    ) -> RewriteResult:
        """Schema-rewrite a query, memoised on (query, fingerprint, options)."""
        query = self._as_query(query)
        options = options or self.rewrite_options
        key = (str(query), self.schema_fingerprint, options)
        return self._rewrite_cache.get_or_create(
            key, lambda: rewrite_query(query, self._schema, options)
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
        """Compile a query for one backend, through both cache layers.

        Execution knobs resolve through :class:`ExecOptions`: the
        session's defaults, overlaid by the per-call ``exec_options``,
        overlaid by the positional ``backend``. The resolved object goes
        to the backend's ``prepare`` as it is, and the values of the
        fields that backend reads are part of the plan-cache key, so
        settings that differ only in knobs the backend ignores share
        one cache entry.

        ``rewrite=False`` skips the schema rewriter entirely (the
        baseline variant of the paper's experiments); ``rewrite=True``
        additionally requires the instance to conform to the schema
        (:meth:`rewrite_sound`) — rewriting is unsound otherwise and
        the session falls back to the unrewritten pipeline.

        The ``planner`` field selects the pipeline: ``"greedy"`` is the
        classic linear one (rewrite when profitable per the rewriter's
        own heuristic, one greedy join order); ``"cost"`` enumerates
        candidate plans — original, full and partial rewrites,
        alternative join orders — and executes the cheapest under the
        backend's (possibly calibrated) cost profile. A ``backend`` of
        ``"auto"`` additionally lets the cost model pick the execution
        substrate per query.
        """
        query = self._as_query(query)
        resolved = self.exec_options.merged(exec_options)
        backend_name = backend or resolved.backend or DEFAULT_BACKEND
        planner_mode = resolved.planner or self.planner
        effective_rewrite = rewrite and self.rewrite_sound()
        if rewrite and not effective_rewrite:
            self._rewrites_gated += 1
        options = (options or self.rewrite_options) if rewrite else None
        if backend_name == "auto":
            backend_name = self._rank_backends(
                query, effective_rewrite, options, resolved.fixpoint_growth
            )[0]
            planner_mode = "cost"
        backend_impl = get_backend(backend_name)
        resolved = replace(
            resolved,
            backend=backend_impl.name,
            planner=validate_planner(planner_mode),
        )
        if planner_mode == "cost":
            return self._prepare_cost(
                query, backend_impl, rewrite, effective_rewrite, options,
                resolved,
            )
        rewrite_result = None
        executed = query
        if effective_rewrite:
            rewrite_result = self.rewrite(query, options)
            executed = rewrite_result.query
        executed = _drop_unsatisfiable_disjuncts(executed)
        plan = None
        if not executed.is_empty:
            key = (
                backend_impl.name,
                str(query),
                effective_rewrite,
                self.schema_fingerprint,
                options,
                resolved.key_for(backend_impl),
            )
            plan = self._plan_cache.get_or_create(
                key, lambda: backend_impl.prepare(self, executed, resolved)
            )
        return PreparedQuery(
            self, backend_impl, query, executed, rewrite_result, plan,
            self.schema_fingerprint, rewrite, options, resolved,
            rewrite_applied=effective_rewrite,
        )

    #: Backends the auto-chooser ranks when no calibration is loaded.
    _AUTO_POOL = ("vec", "ra", "sqlite")

    def _planned(
        self,
        query: UCQT,
        rewrite: bool,
        options: RewriteOptions | None,
        fixpoint_growth: float | None,
    ) -> _PlannedQuery:
        """The query's cost-planner cache entry, enumerating the
        candidates on a miss — the one enumeration every backend ranking
        and every compiled plan of the query is drawn from."""
        key = (
            "planner",
            str(query),
            rewrite,
            self.schema_fingerprint,
            options,
            fixpoint_growth,
        )

        def plan() -> _PlannedQuery:
            started = time.perf_counter()
            planned = _PlannedQuery(
                key,
                PlanningPass.for_query(
                    query, self._schema, self.store,
                    rewrite=rewrite, options=options,
                    fixpoint_growth=fixpoint_growth,
                ),
            )
            self._candidates_enumerated += len(planned.planning.candidates)
            self._charge_planning(planned, started)
            return planned

        return self._plan_cache.get_or_create(key, plan)

    def _charge_planning(self, planned: _PlannedQuery, started: float) -> None:
        elapsed = time.perf_counter() - started
        planned.seconds += elapsed
        self._plan_seconds += elapsed

    def _rank_backends(
        self,
        query: UCQT,
        rewrite: bool,
        options: RewriteOptions | None,
        fixpoint_growth: float | None,
    ) -> tuple[str, ...]:
        """All eligible backends for one query, cheapest first.

        Costs the query's one candidate list (:meth:`_planned`) under
        every eligible backend's profile in a single walk and orders the
        backends by their winning plan's cost. With a loaded
        :class:`~repro.planner.CalibrationState` the eligible set is the
        fitted backends and costs compare in measured seconds (mutually
        comparable across backends); without one it falls back to the
        built-in profiles over the default pool — never a mix of the two
        scales. ``backend="auto"`` executes the head, compiling the very
        choice ranked here; the graceful degradation path walks the
        tail (cheapest surviving substrate next). The ranking lives in
        the query's plan-cache entry, next to the plans compiled from it.
        """
        planned = self._planned(query, rewrite, options, fixpoint_growth)
        if planned.backends is None:
            state = self._calibration
            if state is not None and state.fitted_backends:
                pool = [
                    (name, state.profile_for(name))
                    for name in state.fitted_backends
                ]
            else:
                pool = [(name, None) for name in self._AUTO_POOL]
            started = time.perf_counter()
            planned.backends = planned.planning.rank_pool(self.store, pool)
            self._charge_planning(planned, started)
            if planned.compiled:
                # Ranked after the fact (a degradation chain asking):
                # no compile follows to let the estimator go.
                planned.planning.release()
        return planned.backends

    def _memory_decision(self, choice: "PlanChoice", options: ExecOptions):
        """The out-of-core decision for one cost-planned vec query.

        Spill turns on when the planner's soft peak-memory estimate
        exceeds the configured ``spill_threshold_bytes`` (option or
        ``REPRO_SPILL_THRESHOLD_BYTES``) — or, with no threshold
        configured at all, when the estimate exceeds the **hard**
        :class:`~repro.graph.evaluator.ResourceBudget` ``max_bytes``
        ceiling, in which case the ceiling itself becomes the effective
        threshold of the options the plan is compiled under (the plan
        then spills rather than aborts). No decision is stamped for a
        plan whose kernel cannot memmap: spill is a no-op there, and the
        footer and counter must not claim otherwise. Returns the
        (possibly augmented) options and the choice with the decision
        recorded.
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
        self._spill_decisions += 1
        if threshold is None:
            options = replace(options, spill_threshold_bytes=limit)
        return options, choice.with_memory(spill=True)

    def _prepare_cost(
        self,
        query: UCQT,
        backend_impl: Backend,
        rewrite: bool,
        effective_rewrite: bool,
        options: RewriteOptions | None,
        exec_options: ExecOptions,
    ) -> PreparedQuery:
        """The cost-based planning path of :meth:`prepare`.

        Takes the query's planning pass (:meth:`_planned` — already
        enumerated and ranked when ``backend="auto"`` chose
        ``backend_impl``), ranks it under the backend's cost profile —
        the session's calibrated profile when one is loaded — and
        compiles the winner: via the backend's ``prepare_from_term``
        hook when it executes µ-RA terms directly (``ra``/``vec``), else
        by handing it the winning candidate's query text (``sqlite``/
        ``gdb``/``reference``, whose candidate space is the rewrite
        choice; the RA cost is their proxy). The ``(plan, choice)`` pair
        is kept inside the query's planner entry.
        """
        planned = self._planned(
            query, effective_rewrite, options, exec_options.fixpoint_growth
        )
        compiled_key = (
            backend_impl.name,
            exec_options.key_for(backend_impl),
            exec_options.max_bytes,
        )
        compiled = planned.compiled.get(compiled_key)
        if compiled is None:
            started = time.perf_counter()
            choice = planned.planning.choice(
                self.store,
                backend_impl.name,
                self.calibration_profile(backend_impl.name),
            )
            term = choice.winner.candidate.term
            if term is not None and hasattr(backend_impl, "prepare_from_term"):
                # The backend executes this very term, so what telemetry
                # will log for it is already in the pass's estimator.
                self._term_estimates(term, planned.planning.estimator)
            # Planned: what stays cached is the candidates and the
            # rankings, not every estimate behind them.
            planned.planning.release()
            self._charge_planning(planned, started)
            compiled = self._compile_winner(
                backend_impl, choice, exec_options
            )
            if len(planned.compiled) >= _MAX_COMPILED_PER_QUERY:
                del planned.compiled[next(iter(planned.compiled))]
            planned.compiled[compiled_key] = compiled
        plan, choice = compiled
        self._last_peak_estimate = choice.peak_bytes
        winner = choice.winner.candidate
        return PreparedQuery(
            self, backend_impl, query, winner.query, winner.rewrite_result,
            plan, self.schema_fingerprint, rewrite, options, exec_options,
            choice=choice, planned=planned,
            rewrite_applied=effective_rewrite,
        )

    def _compile_winner(
        self,
        backend_impl: Backend,
        choice: PlanChoice,
        exec_options: ExecOptions,
    ) -> tuple[object | None, PlanChoice]:
        winner = choice.winner.candidate
        if winner.term is None:
            return None, choice
        if backend_impl.name == "vec":
            exec_options, choice = self._memory_decision(choice, exec_options)
        from_term = getattr(backend_impl, "prepare_from_term", None)
        if from_term is not None:
            plan = from_term(self, winner.term, winner.query, exec_options)
        else:
            plan = backend_impl.prepare(self, winner.query, exec_options)
        return plan, choice

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
        """Rewrite, plan (both cached) and run a query on one backend.

        The answer is an immutable set of head-ordered rows;
        ``ra``/``vec`` leave it coded until it is read.
        """
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
        """Execute a batch of queries, sharing work across the batch.

        Results come back in input order. Identical normalised queries
        are prepared and executed once; on the columnar backends
        (``vec``/``ra``) the batch additionally runs through one shared
        executor per backend, so the dictionary encoding, base-relation
        scans and any compiled subprograms common to several queries
        (equal closed µ-RA subtrees, e.g. a shared transitive closure)
        are materialised exactly once for the batch. See
        :mod:`repro.serve` for the asyncio front door and richer
        per-batch statistics.
        """
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
        """The plan the backend would execute, as a structured report.

        Returns an :class:`~repro.engine.report.ExplainReport` — its
        ``render()`` (and ``str()``) is the classic explain text, its
        ``to_dict()`` the JSON form the HTTP tier ships.
        """
        prepared = self.prepare(
            query, backend,
            rewrite=rewrite, options=options, exec_options=exec_options,
        )
        return prepared.explain()

    # -- running prepared handles ------------------------------------------
    def _run(
        self,
        handles: "Sequence[PreparedQuery]",
        timeout_seconds: "float | EvalBudget | None" = None,
        *,
        attempt: bool = False,
    ) -> "tuple[list[ResultSet], ExecutionStats | None]":
        """Answer prepared handles: the one code path that executes them.

        Each handle is refreshed (schema, conformance gate); an empty
        plan answers ``EMPTY``; a cacheable plan is looked up in the
        result cache (a stale entry maintained) and only misses run. The
        columnar (``vec``/``ra``) misses of one backend and option set
        share one ``run_plans`` call under one budget — one encoding, one
        operator memo; a lone columnar plan goes through
        ``execute_with_stats``, any other plan through ``execute`` under
        :meth:`PreparedQuery.budget`. Each run then stores its answers,
        closes the planner feedback loop and writes one calibration
        record (:meth:`_record_telemetry`); the handles it carried report
        its counters as ``last_execution_stats``.

        With ``fallback`` set, a plan running alone takes the degradation
        loop (:meth:`_execute_resilient`). A retryable failure of a shared
        run is recorded once on the backend's breaker and counts as the
        first attempt of each plan the run carried, which continue in
        that loop; answers of the other runs stand. ``attempt`` marks one
        attempt of the loop: the read has consulted the cache already,
        and a failure goes back to the loop.

        Returns the answers in handle order and — when any handle is
        columnar — the pooled counters of the columnar runs plus the
        cache hits and misses (``None`` otherwise).
        """
        answers: list = [None] * len(handles)
        keys: list[tuple | None] = [None] * len(handles)
        runs: dict[object, list[int]] = {}
        pooled = ExecutionStats()
        any_columnar = False
        for index, handle in enumerate(handles):
            handle._refresh_if_stale()
            columnar = hasattr(handle.backend, "run_plans")
            any_columnar = any_columnar or columnar
            if handle.plan is None:  # the schema proved it unsatisfiable
                answers[index] = EMPTY
                continue
            key = keys[index] = handle.result_cache_key()
            if key is not None and not attempt:
                hit = self._lookup_result(
                    handle, key, handle.budget(timeout_seconds)
                )
                if hit is not None:
                    answers[index] = hit
                    pooled.result_cache_hits += 1
                    continue
                pooled.result_cache_misses += 1
            group = (
                (handle.backend_name, handle.exec_options)
                if columnar
                else index
            )
            runs.setdefault(group, []).append(index)
        # The degradation loop splits a wall-clock timeout over its
        # attempts: it takes over from a read that is not itself one of
        # them and was handed no budget object.
        wall_clock: float | None = None
        degrade = False
        if not isinstance(timeout_seconds, EvalBudget):
            wall_clock = timeout_seconds
            degrade = not attempt

        def resilient(index: int, failed: ReproError | None = None) -> None:
            handle = handles[index]
            answers[index] = self._execute_resilient(handle, wall_clock, failed)
            stats = handle.last_execution_stats
            if stats is not None and hasattr(handle.backend, "run_plans"):
                pooled.merge(stats)

        for run in runs.values():
            first = handles[run[0]]
            # run_plans / execute_with_stats are optional protocol hooks.
            backend: Any = first.backend
            columnar = hasattr(backend, "run_plans")
            fallback = degrade and first.exec_options.fallback
            if fallback and len(run) == 1:
                resilient(run[0])
                continue
            captures = None
            if columnar and self._incremental_active():
                # Closed-fixpoint totals of cacheable plans, so the stored
                # entries can be maintained after append-only writes.
                captures = [{} if keys[i] is not None else None for i in run]
            stats = ExecutionStats() if columnar else None
            budget = first.budget(timeout_seconds)
            version = self.store.version
            started = time.perf_counter()
            try:
                if len(run) > 1:
                    rows = backend.run_plans(
                        self,
                        [handles[i].plan for i in run],
                        as_budget(budget),
                        stats,
                        captures,
                    )
                elif columnar:
                    rows = [
                        backend.execute_with_stats(
                            self, first.plan, budget, stats,
                            fix_capture=captures[0] if captures else None,
                        )
                    ]
                else:
                    rows = [backend.execute(self, first.plan, budget)]
            except ReproError as error:
                if not (fallback and error.retryable):
                    raise
                if self._breaker(first.backend_name).record_failure():
                    self._resilience["breaker_opens"] += 1
                for index in run:
                    resilient(index, error)
                continue
            elapsed = time.perf_counter() - started
            carried = [handles[i] for i in run]
            if any(handle.choice is not None for handle in carried):
                if stats is None:
                    stats = ExecutionStats(programs=1)
                # Memoised subtrees make the run's fixpoint counters
                # unattributable per plan: their growth is fed once.
                growth = stats.observed_fixpoint_growth
                if growth is not None:
                    store_statistics(self.store).observe_fixpoint_growth(
                        growth
                    )
            for position, (index, handle, answer) in enumerate(
                zip(run, carried, rows)
            ):
                answers[index] = answer
                if stats is not None:
                    choice = handle.choice
                    if choice is not None:
                        stats.estimated_rows += choice.winner.rows
                        stats.actual_rows += len(answer)
                        stats.peak_estimate_bytes = max(
                            stats.peak_estimate_bytes, choice.peak_bytes
                        )
                        self._observe_execution(handle, len(answer))
                    handle.last_execution_stats = stats
                if keys[index] is not None:
                    self._store_result(
                        keys[index], answer, version,
                        captures[position] if captures else None,
                    )
            self._record_telemetry(carried, rows, stats, elapsed)
            if columnar and stats is not None:
                pooled.merge(stats)
        return answers, pooled if any_columnar else None

    # -- graceful degradation ----------------------------------------------
    def _breaker(self, backend: str) -> CircuitBreaker:
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_config)
            self._breakers[backend] = breaker
        return breaker

    def _degradation_chain(self, prepared: PreparedQuery) -> list[str]:
        """Backends to try for one handle: primary, then cheapest next.

        The tail comes from the calibrated ranking when it can be
        computed (the same memoised ranking ``backend="auto"`` picks
        from), then the remaining fitted/default-pool backends, ending
        on substrates independent of :mod:`repro.exec` — ``vec`` and
        ``ra`` run on the same executor, ``sqlite`` and ``reference``
        share nothing with it, so a kernel fault cannot follow the query
        down the whole chain.
        """
        chain = [prepared.backend.name]

        def extend(names) -> None:
            for name in names:
                if name not in chain:
                    chain.append(name)

        try:
            extend(
                self._rank_backends(
                    prepared.query,
                    prepared.rewrite_applied,
                    prepared.options,
                    None,
                )
            )
        except ReproError:
            pass  # unrankable query: fall through to the static order
        state = self._calibration
        if state is not None and state.fitted_backends:
            extend(state.fitted_backends)
        extend(self._AUTO_POOL)
        extend(("sqlite", "reference"))
        return chain

    def _fallback_handle(
        self, prepared: PreparedQuery, backend: str
    ) -> PreparedQuery | None:
        """Re-prepare one handle's query on a different substrate.

        ``None`` when the query cannot be prepared there (translation
        limits etc.) — the degradation loop then moves further down the
        chain. Every knob of the failing handle carries over; the new
        backend reads the ones it understands.
        """
        try:
            return self.prepare(
                prepared.query,
                rewrite=prepared.rewrite,
                options=prepared.options,
                exec_options=replace(prepared.exec_options, backend=backend),
            )
        except ReproError:
            return None

    def _execute_resilient(
        self,
        prepared: PreparedQuery,
        timeout_seconds: float | None = None,
        failed: ReproError | None = None,
    ) -> ResultSet:
        """Execute with retries down the backend chain.

        One wall-clock deadline spans every attempt (each retry sees
        only the remaining time; row/byte budgets are fresh per attempt
        — they cap one substrate's consumption, not the request's).
        Retryable failures step to the next backend after a bounded
        backoff and feed that backend's circuit breaker; an open breaker
        skips its backend outright. Non-retryable errors raise
        immediately. Success stamps ``retries``/``degraded``/
        ``breaker_opens`` onto the handle's ``last_execution_stats``.

        ``failed`` is the retryable error of a shared run that carried
        this plan (already on the breaker): it counts as the first
        attempt, and the plan then tries its own backend alone.
        """
        policy = self.retry_policy
        deadline = (
            None
            if timeout_seconds is None
            else time.monotonic() + timeout_seconds
        )
        counters = self._resilience
        attempts = 0 if failed is None else 1
        opens = 0
        last_error = failed
        tried_or_skipped: list[str] = []
        rows: ResultSet | None = None
        winner: PreparedQuery | None = None

        def attempt(
            handle: PreparedQuery, breaker: CircuitBreaker
        ) -> ResultSet | None:
            nonlocal attempts, opens, last_error
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            attempts += 1
            try:
                result = self._run([handle], remaining, attempt=True)[0][0]
            except ReproError as error:
                if not error.retryable:
                    raise
                last_error = error
                if breaker.record_failure():
                    opens += 1
                    counters["breaker_opens"] += 1
                return None
            breaker.record_success()
            return result

        # Fast path: the planned backend, healthy breaker, first try —
        # no chain is computed and nothing extra is allocated, so the
        # governed-but-healthy hot path stays at budget-check cost.
        primary = prepared.backend.name
        tried_or_skipped.append(primary)
        breaker = self._breaker(primary)
        if breaker.allow():
            rows = attempt(prepared, breaker)
            if rows is not None and attempts == 1:
                return rows
            winner = prepared if rows is not None else None
        else:
            counters["breaker_skips"] += 1
        if rows is None:
            for backend_name in self._degradation_chain(prepared)[1:]:
                if attempts >= policy.max_attempts:
                    break
                breaker = self._breaker(backend_name)
                if not breaker.allow():
                    counters["breaker_skips"] += 1
                    tried_or_skipped.append(backend_name)
                    continue
                if attempts > 0:
                    delay = policy.backoff(attempts - 1)
                    if deadline is not None:
                        delay = min(
                            delay, max(deadline - time.monotonic(), 0.0)
                        )
                    if delay > 0:
                        time.sleep(delay)
                if deadline is not None and time.monotonic() >= deadline:
                    raise QueryTimeout(timeout_seconds or 0.0)
                handle = self._fallback_handle(prepared, backend_name)
                if handle is None:
                    continue
                tried_or_skipped.append(backend_name)
                rows = attempt(handle, breaker)
                if rows is not None:
                    winner = handle
                    break
        if rows is not None and winner is not None:
            degraded = winner is not prepared
            stats = winner.last_execution_stats
            if stats is None:
                stats = ExecutionStats(programs=1)
            stats.retries += attempts - 1
            stats.degraded += 1 if degraded else 0
            stats.breaker_opens += opens
            winner.last_execution_stats = stats
            prepared.last_execution_stats = stats
            counters["retries"] += attempts - 1
            counters["degraded"] += 1 if degraded else 0
            return rows
        if last_error is not None:
            raise last_error
        # Nothing was even attempted: every substrate vetoed (or
        # unpreparable). Tell the client when the first breaker
        # half-opens.
        horizons = [
            self._breakers[name].retry_after()
            for name in tried_or_skipped
            if name in self._breakers
            and self._breakers[name].state != "closed"
        ]
        raise BackendUnavailableError(
            tuple(dict.fromkeys(tried_or_skipped)) or tuple(chain),
            retry_after_seconds=min(horizons) if horizons else 1.0,
        )

    def resilience_stats(self) -> dict:
        """Degradation counters + per-backend breaker state (JSON-ready)."""
        return {
            **self._resilience,
            "fallback": bool(self.exec_options.fallback),
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            },
        }

    # -- the result-set cache ----------------------------------------------
    @property
    def result_cache_enabled(self) -> bool:
        return self._result_cache.max_size > 0

    def _result_key(
        self, backend: Backend, plan: object | None, exec_options: ExecOptions
    ) -> tuple | None:
        """The result-cache key for one prepared plan, or None.

        Only backends exposing a structural ``result_token`` participate.
        The store version is *not* part of the key — it lives on the
        cached :class:`~repro.engine.cache.CachedResult`, so a lookup
        after a write still finds the stale entry and
        :meth:`_lookup_result` can maintain it from the append delta.
        """
        if plan is None or not self.result_cache_enabled:
            return None
        token_of = getattr(backend, "result_token", None)
        if token_of is None:
            return None
        return result_cache_key(
            backend.name,
            token_of(plan),
            self.schema_fingerprint,
            exec_options.key_for(backend),
        )

    def _lookup_result(
        self,
        prepared: "PreparedQuery",
        key: tuple,
        timeout_seconds: "float | EvalBudget | None" = None,
    ) -> ResultSet | None:
        """Serve one result-cache lookup, maintaining stale entries.

        A fresh entry is a plain hit. A stale entry (the store moved on)
        is brought up to date by :meth:`_maintain_entry` when the write
        was append-only and the plan is maintainable — counted as a hit
        — otherwise evicted and counted as a miss.
        """
        cache = self._result_cache
        entry = cache.peek(key)
        if entry is None:
            cache.count_miss()
            return None
        try:
            fault_point("result_cache.load")
        except InjectedFault:
            # Containment: a faulted load degrades to a miss — the
            # query recomputes and re-stores; the entry is untouched.
            cache.count_miss()
            return None
        if entry.version == self.store.version:
            cache.count_hit(key)
            return entry.answer
        rows = self._maintain_entry(prepared, entry, timeout_seconds)
        if rows is not None:
            cache.count_hit(key)
            return rows
        cache.evict(key)
        self._maintenance.results_invalidated += 1
        cache.count_miss()
        return None

    def _maintain_entry(
        self,
        prepared: "PreparedQuery",
        entry: CachedResult,
        timeout_seconds: "float | EvalBudget | None",
    ) -> ResultSet | None:
        """Bring one stale cache entry up to the current store version.

        Returns the maintained answer, or None when the entry cannot be
        maintained (maintenance disabled, barrier write, a plan that is
        not a columnar program of monotone operators, tables coded by
        another kernel). Plans that read none of the changed relations
        are re-stamped without any evaluation; the others run one delta
        pass (:func:`~repro.exec.maintain.maintain_program`), seeded
        with the entry's fixpoint states when the plan has fixpoints.
        The entry is updated only once the pass has finished: a run that
        raises (budget, fault) leaves it as it was.
        """
        if not self._incremental_active():
            return None
        try:
            fault_point("maintain.apply")
        except InjectedFault:
            # Containment: a faulted maintenance run degrades to the
            # invalidation path (evict + recompute) before touching the
            # entry — never a partially-maintained result.
            return None
        store = self.store
        deltas = store.delta_since(entry.version)
        if deltas is None:
            return None
        reads = _backends.plan_read_relations(prepared.plan)
        if reads is not None and not (set(reads) & set(deltas)):
            entry.version = store.version
            self._maintenance.results_maintained += 1
            return entry.answer
        plan = prepared.plan
        if not isinstance(plan, _backends.VecPlan):
            return None
        if not maintainable(plan.program):
            return None
        kernel = get_kernel(plan.kernel) if plan.kernel else default_kernel()
        if entry.kernel_name != getattr(kernel, "NAME", None):
            return None  # coded tables must not seed a different kernel
        outcome = maintain_program(
            plan.program,
            store,
            deltas,
            entry.fix_states or {},
            head=plan.head,
            kernel=kernel,
            budget=as_budget(timeout_seconds),
            prev=entry.answer,
            prev_seen=entry.seen,
        )
        entry.answer = outcome.answer
        entry.version = store.version
        entry.fix_states = outcome.fix_states or None
        entry.seen = outcome.seen
        self._maintenance.merge(outcome.stats)
        self._maintenance.results_maintained += 1
        return outcome.answer

    def _store_result(
        self,
        key: tuple,
        rows: ResultSet,
        version: int,
        capture: dict | None = None,
    ) -> None:
        """Cache ``rows`` computed at store ``version`` under ``key``.

        ``capture`` is the executor's fix-capture dict: fixpoint totals
        keyed by Fix term, plus the kernel name under its sentinel key.
        """
        try:
            fault_point("result_cache.store")
        except InjectedFault:
            # Containment: a faulted store skips caching — the caller's
            # result is already computed and correct; nothing partial
            # enters the cache.
            return
        kernel_name = capture.pop(CAPTURE_KERNEL, None) if capture else None
        self._result_cache.put(
            key, CachedResult(rows, version, capture or None, kernel_name)
        )

    # -- adaptive planner feedback -----------------------------------------
    def _observe_execution(
        self, prepared: PreparedQuery, actual_rows: int
    ) -> None:
        """Close the planning loop after one cost-planned execution.

        Actual cardinalities flow into the per-store
        :class:`~repro.ra.stats.StoreStatistics` correction table: the
        root estimated/actual pair is recorded per plan (the observed
        fixpoint growth, which corrects the closure-growth assumption,
        is fed once per run by :meth:`_run`). When
        the error factor exceeds :attr:`replan_error_threshold`, the
        query's planner entry — candidates, backend ranking and compiled
        plans alike — is evicted so the next ``prepare`` re-plans (and
        ``backend="auto"`` re-chooses its substrate) against the
        corrected statistics.

        Eviction is bounded: when the *previous* recorded feedback for
        this plan already exceeded the threshold, re-planning has been
        tried and the available corrections did not change the estimate
        enough — the plan is kept and only the feedback updated, so a
        persistently misestimated plan costs one re-plan per store
        snapshot, not one per execution.
        """
        choice = prepared.choice
        if choice is None:
            return
        store_stats = store_statistics(self.store)
        self._planner_observations += 1
        # Per-backend token: the same query may be planned to different
        # candidates (and estimates) on different backends.
        token = f"{prepared.backend.name}:{prepared.query}"
        previous = store_stats.feedback.get(token)
        error = store_stats.record_plan_feedback(
            token, choice.winner.rows, actual_rows
        )
        already_replanned = (
            previous is not None and previous[2] > self.replan_error_threshold
        )
        if (
            error > self.replan_error_threshold
            and not already_replanned
            and prepared.planned is not None
        ):
            if self._plan_cache.evict(prepared.planned.key):
                self._planner_replans += 1

    # -- calibration (telemetry → fit → exploit) ---------------------------
    def _incremental_active(self) -> bool:
        """Incremental maintenance, unless ``REPRO_INCREMENTAL=0``. This
        is the variable's one reader (per call, so tests and CI legs can
        toggle it) — the store serves its delta log to everyone else
        regardless."""
        return os.environ.get("REPRO_INCREMENTAL", "1") != "0"

    def _record_telemetry(
        self,
        handles: "Sequence[PreparedQuery]",
        answers: "Sequence[ResultSet]",
        stats: "ExecutionStats | None",
        seconds: float,
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
        the execution, memoised per executed term
        (:meth:`_term_estimates`).
        """
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
                estimates = self._term_estimates(term)
                if op_estimates is None:
                    op_estimates = Counter()
                op_estimates.update(estimates.op_rows)
                if root is None:
                    root = estimates.root_rows
            if root is not None:
                estimated = root if estimated is None else estimated + root
        self.calibration_log.record_execution(
            backend=handles[0].backend_name,
            workload=self.workload_tag,
            seconds=seconds,
            stats=stats,
            op_estimates=op_estimates,
            estimated_rows=estimated,
            actual_rows=sum(map(len, answers)),
            predicted_cost=predicted,
        )

    def _term_estimates(
        self, term: RaTerm, estimator: Estimator | None = None
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
        if estimates is None or not estimates.current(self.store):
            if estimator is None:
                estimator = Estimator(self.store)
            estimates = _Estimates.walk(term, estimator)
            if len(self._estimates) >= _MEMO_SIZE:
                self._estimates.clear()
            self._estimates[term] = estimates
        return estimates

    def calibration_profile(self, backend: str) -> "CostProfile | None":
        """The fitted cost profile for ``backend`` (None: uncalibrated)."""
        if self._calibration is None:
            return None
        return self._calibration.profile_for(backend)

    @property
    def calibration(self) -> CalibrationState | None:
        return self._calibration

    def calibrate(
        self,
        persist_path: "str | pathlib.Path | None" = None,
        backends: "Sequence[str] | None" = None,
    ) -> CalibrationState:
        """Fit per-backend cost profiles from this session's telemetry.

        Least-squares fits each logged backend's
        :class:`~repro.planner.cost.CostProfile` (seconds per row —
        mutually comparable across backends, which is what lets
        ``backend="auto"`` pick a substrate per query). The fitted state
        becomes the session's active calibration, the plan cache is
        cleared so rankings recompute under the new weights, and
        ``persist_path`` optionally writes the state as JSON for a
        serving process to boot from
        (``GraphSession(..., calibration=path)``).
        """
        state = calibrate_from_log(self.calibration_log, backends=backends)
        self._calibration = state
        self._plan_cache.clear()
        if persist_path is not None:
            state.save(persist_path)
        return state

    def _explain_q_error(self, backend: str) -> dict | None:
        """Root-cardinality Q-error summary for explain (None: no data)."""
        summary = self.calibration_log.backend_summary(backend)
        if summary is None:
            return None
        summary = dict(summary)
        summary["calibrated"] = (
            self._calibration is not None
            and backend in self._calibration.fitted_backends
        )
        return summary

    @property
    def planner_stats(self) -> dict:
        """Counters of the adaptive planning loop (cost planner only)."""
        store_stats = store_statistics(self.store)
        state = self._calibration
        return {
            "mode": self.planner,
            "observations": self._planner_observations,
            "replans": self._planner_replans,
            "candidates_enumerated": self._candidates_enumerated,
            "plan_seconds": self._plan_seconds,
            "observed_fixpoint_growth": store_stats.observed_fixpoint_growth,
            "feedback_entries": len(store_stats.feedback),
            "rewrites_gated": self._rewrites_gated,
            "instance_conforming": (
                None if self._conformance is None else self._conformance[1]
            ),
            "resilience": self.resilience_stats(),
            "memory": {
                "spill_decisions": self._spill_decisions,
                "last_peak_estimate_bytes": self._last_peak_estimate,
                "spilled_bytes": (
                    self._spill_manager.spilled_bytes
                    if self._spill_manager is not None
                    else 0
                ),
                "spill_ops": (
                    self._spill_manager.spill_ops
                    if self._spill_manager is not None
                    else 0
                ),
                "spill_reuses": (
                    self._spill_manager.spill_reuses
                    if self._spill_manager is not None
                    else 0
                ),
            },
            "calibration": {
                "records": len(self.calibration_log),
                "total_recorded": self.calibration_log.total_recorded,
                "fitted_backends": (
                    list(state.fitted_backends) if state is not None else []
                ),
                "q_error": self.calibration_log.summary(),
            },
        }

    # -- introspection -----------------------------------------------------
    def spill_manager(self, path: str | None = None) -> SpillManager:
        """The session's spill-directory owner, created on first use.

        One manager serves every out-of-core execution of the session,
        so named base-table spill files persist across executions at
        the same store version (and are invalidated by version moves).
        ``path`` roots the directory on first call; later calls return
        the existing manager regardless. Closed with the session.
        """
        if self._spill_manager is None or self._spill_manager.closed:
            self._spill_manager = SpillManager(
                path or self.exec_options.spill_path
            )
        return self._spill_manager

    @property
    def backends(self) -> tuple[str, ...]:
        return available_backends()

    @property
    def cache_stats(self) -> "dict[str, CacheStats | ExecutionStats]":
        self._maintenance.encoding_appends = (
            encoding_appends(self._store) if self._store is not None else 0
        )
        self._maintenance.tables_encoded = (
            tables_encoded(self._store) if self._store is not None else 0
        )
        return {
            "rewrite": self._rewrite_cache.stats(),
            "plan": self._plan_cache.stats(),
            "result": self._result_cache.stats(),
            "maintenance": self._maintenance,
        }

    def clear_caches(self) -> None:
        self._parsed.clear()
        self._estimates.clear()
        self._rewrite_cache.clear()
        self._plan_cache.clear()
        self._result_cache.clear()
        self._maintenance = ExecutionStats()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._sqlite is not None:
            self._sqlite.close()
            self._sqlite = None
        if self._spill_manager is not None:
            self._spill_manager.close()
            self._spill_manager = None

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSession({self.graph.name!r}, schema={self._schema.name!r}, "
            f"fingerprint={self.schema_fingerprint})"
        )

    # -- helpers -----------------------------------------------------------
    def _as_query(self, query: UCQT | str) -> UCQT:
        """``query`` parsed, each distinct text once: served traffic
        repeats its texts. The memo sits in front of the call, and
        plain dict operations keep it safe from the service's loop
        thread (``QueryService.submit``) next to a worker's."""
        if not isinstance(query, str):
            return query
        parsed = self._parsed.get(query)
        if parsed is None:
            parsed = parse_query(query)  # a ParseError is never stored
            if len(self._parsed) >= _MEMO_SIZE:
                self._parsed.clear()
            self._parsed[query] = parsed
        return parsed
