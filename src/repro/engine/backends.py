"""Backend adapters for the four execution substrates.

Each adapter wraps an existing engine behind the :class:`~repro.engine.
protocol.Backend` contract. Plan artefacts are tiny frozen carriers of
whatever the substrate actually executes:

* ``ra`` / ``vec`` — the optimised µ-RA term compiled into a columnar
                  program for the one physical layer under µ-RA,
                  :mod:`repro.exec`, and explained as the costed µ-RA
                  plan tree (Fig. 17) plus the physical operator tree.
                  ``vec``, the backend an unset ``backend`` resolves
                  to, runs it on the fastest kernel that imports
                  (numpy, else pure Python) or the one ``kernel``
                  pins; ``ra``, only ever asked for by name, pins the
                  dependency-free pure-Python kernel,
* ``sqlite``    — the generated ``WITH RECURSIVE`` SQL text (explained
                  via SQLite's own ``EXPLAIN QUERY PLAN``),
* ``reference`` — the UCQT itself (the naive Fig. 5 evaluator has no
                  plan to speak of).

All adapters answer with one shape, a *head-ordered*
:class:`~repro.exec.result.ResultSet` (``ra``/``vec`` leave it in coded
columns, the others wrap their rows), so results are directly
comparable across backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engine.options import ExecOptions
from repro.engine.protocol import register_backend
from repro.exec.compile import CompiledProgram, compile_term
from repro.exec.executor import ExecutionStats, execute_batch_programs
from repro.exec.kernels import default_kernel, get_kernel
from repro.exec.result import ResultSet
from repro.graph.evaluator import EvalBudget, as_budget
from repro.planner.cost import cost_term
from repro.query.evaluation import evaluate_ucqt
from repro.query.model import UCQT
from repro.ra.optimizer import optimize_term
from repro.ra.stats import Estimator
from repro.ra.terms import RaTerm
from repro.ra.translate import TranslationContext, ucqt_to_ra
from repro.sql.generate import ucqt_to_sql
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import GraphSession


# -- the µ-RA backends: one physical layer, two configurations ---------------
@dataclass(frozen=True)
class VecPlan:
    """An optimised µ-RA term compiled to a columnar program.

    ``kernel`` pins a kernel implementation by name (the ``kernel``
    option; ``ra`` plans always pin ``"python"``); ``None`` means the
    fastest available one.
    """

    term: RaTerm
    program: CompiledProgram
    head: tuple[str, ...]
    kernel: str | None = None


class VecBackend:
    """Columnar execution of optimised µ-RA plans: base tables are
    dictionary-encoded once per store snapshot, operators move whole
    integer columns, and fixpoints iterate semi-naively over delta
    frontiers (:mod:`repro.exec`)."""

    name = "vec"
    #: The :class:`ExecOptions` fields this backend reads; their values
    #: are the options part of its plan- and result-cache keys.
    option_fields: tuple[str, ...] = ("kernel",)

    def _plan(self, term: RaTerm, store, query: UCQT, options: ExecOptions):
        if options.kernel is not None:
            get_kernel(options.kernel)  # fail at prepare time, not execute time
        return VecPlan(
            term, compile_term(term, store), query.head, options.kernel
        )

    def prepare(
        self, session: "GraphSession", query: UCQT, options: ExecOptions
    ) -> VecPlan:
        store = session.store
        estimator = Estimator(store)
        term = optimize_term(
            ucqt_to_ra(query, TranslationContext(estimator=estimator)),
            store,
            estimator,
        )
        return self._plan(term, store, query, options)

    def prepare_from_term(
        self,
        session: "GraphSession",
        term: RaTerm,
        query: UCQT,
        options: ExecOptions,
    ) -> VecPlan:
        """Compile a term the cost-based planner already optimised."""
        return self._plan(term, session.store, query, options)

    def execute(
        self,
        session: "GraphSession",
        plan: VecPlan,
        timeout_seconds: float | EvalBudget | None = None,
    ) -> ResultSet:
        return self.execute_with_stats(session, plan, timeout_seconds, None)

    def execute_with_stats(
        self,
        session: "GraphSession",
        plan: VecPlan,
        timeout_seconds: float | EvalBudget | None = None,
        stats: ExecutionStats | None = None,
        fix_capture: dict | None = None,
    ) -> ResultSet:
        """Execute, optionally collecting per-operator actual
        cardinalities (the Q-error telemetry's actual rows).

        ``fix_capture``, when a dict, receives the materialised totals
        of the program's closed fixpoints (integer-code rows keyed by
        source :class:`~repro.ra.terms.Fix` term) — the states the
        result cache stores for incremental maintenance after writes.
        """
        return self.run_plans(
            session,
            [plan],
            as_budget(timeout_seconds),
            stats,
            None if fix_capture is None else [fix_capture],
        )[0]

    def run_plans(
        self,
        session: "GraphSession",
        plans: "Sequence[VecPlan]",
        budget: EvalBudget | None,
        stats: ExecutionStats | None = None,
        fix_captures: list | None = None,
    ) -> list[ResultSet]:
        """Run prepared plans through one shared executor: the one place
        a plan's knobs become an ``execute_batch_programs`` call.

        The plans come from one :class:`ExecOptions`, so the first one's
        kernel stands for all.
        """
        fault_point(f"backend.execute.{self.name}")
        first = plans[0]
        kernel = get_kernel(first.kernel) if first.kernel else default_kernel()
        return execute_batch_programs(
            [plan.program for plan in plans],
            session.store,
            heads=[plan.head for plan in plans],
            budget=budget,
            kernel=kernel,
            stats=stats,
            fix_captures=fix_captures,
        )

    def explain(self, session: "GraphSession", plan: VecPlan) -> str:
        """The plan tree the cost planner ranks (rows and cumulative
        cost per operator), then the compiled program and the kernel
        it runs on."""
        logical = cost_term(plan.term, session.store).render(session.store)
        physical = plan.program.render()
        kernel = get_kernel(plan.kernel) if plan.kernel else default_kernel()
        return (
            f"-- logical µ-RA plan --\n{logical}\n\n"
            f"-- physical columnar plan ({kernel.NAME} kernels) --\n"
            f"{physical}"
        )

    def result_token(self, plan: VecPlan):
        return (plan.term, plan.head)


class RaBackend(VecBackend):
    """The PostgreSQL stand-in: the same layer with nothing to choose.

    ``ra`` plans are :class:`VecPlan` s pinned to the dependency-free
    pure-Python kernel, so the backend behaves the same on every
    install.
    """

    name = "ra"
    option_fields = ()

    def prepare(
        self, session: "GraphSession", query: UCQT, options: ExecOptions
    ) -> VecPlan:
        """The paper's translation, chains as parsed: PostgreSQL, which
        the experiments run ``ra`` in place of, materialises a recursive
        CTE in full before joining it, so no chain planner runs here.
        A cost-planned ``ra`` plan is the ranked (chain-planned) winner,
        like any other backend's."""
        term = optimize_term(
            ucqt_to_ra(query, TranslationContext()), session.store
        )
        return self._plan(term, session.store, query, options)

    def _plan(self, term: RaTerm, store, query: UCQT, options: ExecOptions):
        return VecPlan(term, compile_term(term, store), query.head, "python")

    def execute_with_stats(
        self,
        session: "GraphSession",
        plan: VecPlan,
        timeout_seconds: float | EvalBudget | None = None,
        stats: ExecutionStats | None = None,
        fix_capture: dict | None = None,
    ) -> ResultSet:
        # In this class body too: the ledger's tracer resolves it by name.
        return super().execute_with_stats(
            session, plan, timeout_seconds, stats, fix_capture
        )


# -- generated SQL on SQLite --------------------------------------------------
@dataclass(frozen=True)
class SqlPlan:
    """The generated recursive SQL text."""

    sql: str


class SqliteEngineBackend:
    name = "sqlite"

    def prepare(
        self,
        session: "GraphSession",
        query: UCQT,
        options: ExecOptions,
    ) -> SqlPlan:
        return SqlPlan(sql=ucqt_to_sql(query, session.store))

    def execute(
        self,
        session: "GraphSession",
        plan: SqlPlan,
        timeout_seconds: float | EvalBudget | None = None,
    ) -> ResultSet:
        fault_point("backend.execute.sqlite")
        return ResultSet.from_rows(
            session.sqlite.execute_sql(plan.sql, timeout_seconds)
        )

    def explain(self, session: "GraphSession", plan: SqlPlan) -> str:
        query_plan = session.sqlite.explain_query_plan(plan.sql)
        return f"{plan.sql}\n\n-- EXPLAIN QUERY PLAN --\n{query_plan}"

    def result_token(self, plan: SqlPlan):
        return plan.sql


# -- naive reference evaluator ------------------------------------------------
@dataclass(frozen=True)
class ReferencePlan:
    """The reference evaluator interprets the UCQT directly."""

    query: UCQT


class ReferenceBackend:
    name = "reference"

    def prepare(
        self,
        session: "GraphSession",
        query: UCQT,
        options: ExecOptions,
    ) -> ReferencePlan:
        return ReferencePlan(query=query)

    def execute(
        self,
        session: "GraphSession",
        plan: ReferencePlan,
        timeout_seconds: float | EvalBudget | None = None,
    ) -> ResultSet:
        fault_point("backend.execute.reference")
        return ResultSet.from_rows(
            evaluate_ucqt(
                session.graph, plan.query, as_budget(timeout_seconds)
            )
        )

    def explain(self, session: "GraphSession", plan: ReferencePlan) -> str:
        return f"-- naive CQT evaluation (no plan) --\n{plan.query}"


register_backend(RaBackend())
register_backend(VecBackend())
register_backend(SqliteEngineBackend())
register_backend(ReferenceBackend())
