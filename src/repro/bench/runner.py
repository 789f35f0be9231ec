"""Timed query execution across the execution engines.

Engines (the paper's four, §5.1.6 / §5.5, plus the columnar runtime):

* ``ra``        — the µ-RA engine with optimizer (the PostgreSQL stand-in),
* ``vec``       — the same optimised plans on the vectorized columnar
                  engine (:mod:`repro.exec`),
* ``sqlite``    — generated recursive SQL executed on real SQLite,
* ``gdb``       — the graph-pattern expansion engine (the Neo4j stand-in,
                  :mod:`repro.gdb`), run here directly: it is figure code,
                  not a serving backend,
* ``reference`` — the naive Fig. 5 evaluator (sanity baseline).

A run that exceeds the timeout is recorded as infeasible with the cap as
its time — matching how the paper's Table 7 reports ``Max = 1800.0``
(the 30-minute cap) for timed-out baselines.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.core.rewriter import RewriteOptions, RewriteResult
from repro.engine.session import GraphSession
from repro.errors import QueryTimeout
from repro.gdb.engine import PatternEngine
from repro.graph.evaluator import EvalBudget
from repro.graph.model import PropertyGraph
from repro.query.model import UCQT
from repro.schema.model import GraphSchema
from repro.sql.sqlite_backend import SqliteBackend
from repro.storage.relational import RelationalStore
from repro.workloads.ldbc_queries import WorkloadQuery

ENGINES = ("ra", "vec", "sqlite", "gdb", "reference")


@dataclass
class QueryRun:
    """One measured execution."""

    qid: str
    variant: str  # 'baseline' | 'schema'
    engine: str
    scale_factor: float
    seconds: float
    timed_out: bool
    rows: int
    recursive: bool
    reverted: bool

    @property
    def feasible(self) -> bool:
        return not self.timed_out


@dataclass
class BenchmarkContext:
    """A dataset loaded for benchmarking, dispatching through a
    :class:`~repro.engine.session.GraphSession`.

    The session owns the derived artefacts (SQLite database, graph
    replay) and both cache layers, so repeated measurements of the same
    query pay rewriting and planning once — the warm-path behaviour the
    engine layer exists for. The ``variant`` split stays here: baseline
    runs bypass the rewriter (``rewrite=False``), schema runs go through
    the session's rewrite cache.
    """

    schema: GraphSchema
    graph: PropertyGraph
    store: RelationalStore
    scale_factor: float
    timeout_seconds: float = 2.5
    repetitions: int = 2
    rewrite_options: RewriteOptions = field(default_factory=RewriteOptions)
    _session: GraphSession | None = None

    @classmethod
    def from_session(
        cls,
        session: GraphSession,
        scale_factor: float,
        timeout_seconds: float = 2.5,
        repetitions: int = 2,
    ) -> "BenchmarkContext":
        """Wrap an existing session (shares its caches and artefacts)."""
        context = cls(
            session.schema,
            session.graph,
            session.store,
            scale_factor,
            timeout_seconds,
            repetitions,
            rewrite_options=session.rewrite_options,
        )
        context._session = session
        return context

    @property
    def session(self) -> GraphSession:
        if self._session is None:
            self._session = GraphSession(
                self.graph,
                self.schema,
                store=self.store,
                rewrite_options=self.rewrite_options,
            )
        return self._session

    @property
    def sqlite(self) -> SqliteBackend:
        return self.session.sqlite

    def rewrite(self, workload_query: WorkloadQuery) -> RewriteResult:
        return self.session.rewrite(
            workload_query.query, options=self.rewrite_options
        )

    # -- engine dispatch ---------------------------------------------------
    def execute(self, engine: str, query: UCQT) -> int:
        """Run ``query`` on ``engine``; returns the result cardinality.

        ``query`` is the already-chosen variant (baseline or rewritten),
        so the session executes it verbatim (``rewrite=False``); ``gdb``
        evaluates it on a :class:`PatternEngine` over the session's graph.
        Raises QueryTimeout when the per-query budget expires.
        """
        if query.is_empty:
            return 0
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "gdb":
            patterns = PatternEngine(self.session.graph)
            budget = EvalBudget(self.timeout_seconds)
            return len(patterns.evaluate_ucqt(query, budget))
        result = self.session.execute(
            query,
            backend=engine,
            timeout_seconds=self.timeout_seconds,
            rewrite=False,
        )
        return len(result)

    def measure(
        self, workload_query: WorkloadQuery, variant: str, engine: str
    ) -> QueryRun:
        """Time one query variant; the reported time is the best of
        ``repetitions`` runs (the paper averages 5 hot runs; minimum of a
        few runs is the standard low-noise estimator at our time scales).

        The cyclic garbage collector is off while the repetitions run:
        a full collection walks the whole loaded graph, so its timing,
        not the engine, would otherwise decide which run is best."""
        rewrite = self.rewrite(workload_query)
        query = workload_query.query if variant == "baseline" else rewrite.query
        best = float("inf")
        rows = 0
        timed_out = False
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(max(1, self.repetitions)):
                start = time.perf_counter()
                try:
                    rows = self.execute(engine, query)
                except QueryTimeout:
                    timed_out = True
                    best = self.timeout_seconds
                    break
                best = min(best, time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        return QueryRun(
            qid=workload_query.qid,
            variant=variant,
            engine=engine,
            scale_factor=self.scale_factor,
            seconds=best,
            timed_out=timed_out,
            rows=rows,
            recursive=workload_query.recursive,
            reverted=rewrite.reverted,
        )


def run_workload(
    context: BenchmarkContext,
    queries: list[WorkloadQuery],
    engine: str = "ra",
    variants: tuple[str, ...] = ("baseline", "schema"),
) -> list[QueryRun]:
    """Measure every query × variant on one engine."""
    runs: list[QueryRun] = []
    for workload_query in queries:
        for variant in variants:
            runs.append(context.measure(workload_query, variant, engine))
    return runs
