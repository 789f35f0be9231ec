"""Plan-candidate enumeration and cost-based selection.

The unit the planner ranks is a :class:`PlanCandidate`: one semantically
equivalent way of answering a query. Candidates come from three sources,
all guaranteed equivalent to the original query:

* the **original** query, untouched (the rewriter's revert path, now a
  first-class candidate instead of a boolean),
* the **schema rewrites** — the full rewrite plus the per-relation
  partial rewrites :func:`repro.core.rewriter.enumerate_rewrites` emits
  (soundness of each follows from soundness of the relation rewriting
  itself, paper §3),
* alternative **join orders** of each rewrite's µ-RA translation, from
  the optimizer's bounded enumeration (pure RA equivalences).

A query is planned in **one pass** (:class:`PlanningPass`): its
candidates are enumerated once against one
:class:`~repro.ra.stats.Estimator` and ranked once —
``rank_candidates`` costs them under the one
:data:`~repro.planner.cost.PROFILE` and returns a :class:`PlanChoice`
with the winner marked. The ranking depends on the query alone, so
every backend a query is prepared on executes the same winner. Sessions
cache the pass, and ``explain`` renders its ranked table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.rewriter import (
    RewriteOptions,
    RewriteResult,
    enumerate_rewrites,
    prune_schema_for_query,
)
from repro.errors import ReproError
from repro.planner.cost import TermCost, cost_term, estimate_term_bytes
from repro.query.model import UCQT, drop_unsatisfiable_disjuncts
from repro.ra.optimizer import optimize_term_candidates
from repro.ra.stats import Estimator
from repro.ra.translate import TranslationContext, ucqt_to_ra
from repro.schema.model import GraphSchema
from repro.storage.relational import RelationalStore
from repro.ra.terms import RaTerm

#: Bounded enumeration knobs: partial-rewrite sites and join orders per
#: rewrite. Small on purpose — the planner must stay cheap relative to
#: execution, and the candidates are ranked, not exhaustively searched.
DEFAULT_MAX_PARTIAL = 4
DEFAULT_JOIN_ORDERS = 3


@dataclass(frozen=True)
class PlanCandidate:
    """One executable way of answering the query."""

    label: str                 # "original", "rewritten", "partial[0.1]#2", ...
    source: str                # "original" | "rewritten" | "partial"
    query: UCQT                # normalised query (unsatisfiable disjuncts dropped)
    term: RaTerm | None        # optimised µ-RA term; None = provably empty
    rewrite_result: RewriteResult | None


@dataclass(frozen=True)
class RankedCandidate:
    """A candidate with its estimated cost."""

    candidate: PlanCandidate
    cost: float
    rows: float
    chosen: bool = False

    @property
    def label(self) -> str:
        return self.candidate.label

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "source": self.candidate.source,
            "cost": self.cost,
            "rows": self.rows,
            "chosen": self.chosen,
        }


@dataclass(frozen=True)
class PlanChoice:
    """A query's ranked candidate table.

    ``peak_bytes`` is the planner's soft estimate of the winner's peak
    materialised memory (:func:`~repro.planner.cost.estimate_term_bytes`);
    ``spill`` records the session's out-of-core decision for this plan
    (on when the estimate exceeds the configured threshold or the hard
    ``ResourceBudget.max_bytes`` ceiling). It defaults to off so plans
    from sessions without the memory dimension render unchanged.
    """

    ranked: tuple[RankedCandidate, ...]
    peak_bytes: float = 0.0
    spill: bool = False

    @property
    def winner(self) -> RankedCandidate:
        for entry in self.ranked:
            if entry.chosen:
                return entry
        return self.ranked[0]

    def with_memory(self, *, spill: bool) -> "PlanChoice":
        """This choice with the session's out-of-core decision stamped."""
        return replace(self, spill=spill)

    def to_dict(self) -> dict:
        """JSON-serializable candidate table (the ExplainReport form)."""
        payload: dict = {
            "candidates": [entry.to_dict() for entry in self.ranked],
        }
        if self.spill:
            payload["memory"] = {
                "peak_bytes": self.peak_bytes,
                "spill": self.spill,
            }
        return payload

    def render(self) -> str:
        """The EXPLAIN candidate table (``* `` marks the winner)."""
        lines = [
            "-- planner candidates --",
            f"   {'rank':<5} {'candidate':<22} {'est. cost':>14} {'est. rows':>12}",
        ]
        for rank, entry in enumerate(self.ranked, start=1):
            marker = " * " if entry.chosen else "   "
            lines.append(
                f"{marker}{rank:<5} {entry.label:<22} "
                f"{entry.cost:>14,.1f} {int(entry.rows):>12,}"
            )
        if self.spill:
            lines.append(
                f"-- memory: est. peak {int(self.peak_bytes):,} bytes, "
                "spill=on"
            )
        return "\n".join(lines)


def enumerate_plan_candidates(
    query: UCQT,
    schema: GraphSchema,
    store: RelationalStore,
    *,
    rewrite: bool = True,
    options: RewriteOptions | None = None,
    estimator: Estimator | None = None,
    max_partial: int = DEFAULT_MAX_PARTIAL,
    join_orders: int = DEFAULT_JOIN_ORDERS,
) -> list[PlanCandidate]:
    """All candidates for ``query``: rewrites × bounded join orders.

    Candidates whose µ-RA translation fails are dropped (the original
    query is translated first, so at least one candidate survives for
    any query the ``ra`` backend could run; a query *no* candidate can
    translate re-raises the original's error).
    """
    estimator = estimator or Estimator(store)
    sources: list[tuple[str, str, UCQT, RewriteResult | None]] = [
        ("original", "original", query, None)
    ]
    if rewrite:
        # Rewrite enumeration only ever consults the schema through the
        # query's own labels — prune it first so candidate generation
        # stays flat however wide the full schema grows.
        for label, result in enumerate_rewrites(
            query, prune_schema_for_query(schema, query), options,
            max_partial=max_partial,
        ):
            source = "rewritten" if label == "rewritten" else "partial"
            sources.append((label, source, result.query, result))

    candidates: list[PlanCandidate] = []
    seen_terms: set[RaTerm] = set()
    first_error: ReproError | None = None
    for label, source, variant, rewrite_result in sources:
        executed = drop_unsatisfiable_disjuncts(variant)
        if executed.is_empty:
            candidates.append(
                PlanCandidate(label, source, executed, None, rewrite_result)
            )
            continue
        try:
            term = ucqt_to_ra(executed, TranslationContext(estimator=estimator))
            orders = optimize_term_candidates(
                term, store, limit=join_orders, estimator=estimator
            )
        except ReproError as error:
            first_error = first_error or error
            continue
        for index, ordered in enumerate(orders):
            if ordered in seen_terms:
                continue
            seen_terms.add(ordered)
            suffix = "" if index == 0 else f"#{index + 1}"
            candidates.append(
                PlanCandidate(
                    f"{label}{suffix}", source, executed, ordered, rewrite_result
                )
            )
    if not candidates:
        assert first_error is not None
        raise first_error
    return candidates


def rank_candidates(
    candidates: list[PlanCandidate],
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> PlanChoice:
    """Cost every candidate, sub-terms once across all of them; mark the
    winner.

    Ties (and the provably-empty plan, which costs nothing) resolve to
    the earliest-enumerated candidate, so selection is deterministic and
    prefers simpler provenance (original before rewritten before
    partial) at equal cost. The choice's ``peak_bytes`` is left for
    whoever compiles the winner (:meth:`PlanningPass.choice`).
    """
    estimator = estimator or Estimator(store)
    costed = [
        TermCost(0.0, 0.0) if candidate.term is None
        else cost_term(candidate.term, store, estimator)
        for candidate in candidates
    ]
    order = sorted(
        range(len(candidates)), key=lambda index: (costed[index].total, index)
    )
    ranked = tuple(
        RankedCandidate(
            candidate=candidates[index],
            cost=costed[index].total,
            rows=costed[index].rows,
            chosen=index == order[0],
        )
        for index in order
    )
    return PlanChoice(ranked=ranked)


@dataclass
class PlanningPass:
    """One query planned once: its candidates and their one ranking.

    The candidates are enumerated a single time against one
    :class:`~repro.ra.stats.Estimator`, whose memoised estimates and
    columns every later step of the pass reuses; ``ranking`` is filled
    in when a winner is first asked for. The pass is what a session
    keeps in its plan cache for the query, so once a winner is compiled
    the estimator (its memos are the bulk of a pass's memory, and it
    pins the store) is let go with :meth:`release`; a later memory
    estimate builds a new one.
    """

    candidates: list[PlanCandidate]
    ranking: PlanChoice | None = None
    estimator: Estimator | None = field(default=None, repr=False)

    @classmethod
    def for_query(
        cls,
        query: UCQT,
        schema: GraphSchema,
        store: RelationalStore,
        *,
        rewrite: bool = True,
        options: RewriteOptions | None = None,
        max_partial: int = DEFAULT_MAX_PARTIAL,
        join_orders: int = DEFAULT_JOIN_ORDERS,
    ) -> "PlanningPass":
        estimator = Estimator(store)
        candidates = enumerate_plan_candidates(
            query,
            schema,
            store,
            rewrite=rewrite,
            options=options,
            estimator=estimator,
            max_partial=max_partial,
            join_orders=join_orders,
        )
        return cls(candidates, estimator=estimator)

    def _estimator(self, store: RelationalStore) -> Estimator:
        if self.estimator is None:
            self.estimator = Estimator(store)
        return self.estimator

    def release(self) -> None:
        self.estimator = None

    def choice(self, store: RelationalStore) -> PlanChoice:
        """The pass's ranking, its winner's ``peak_bytes`` estimated:
        the pass's memory walk, paid only for a winner that is about to
        be compiled."""
        estimator = self._estimator(store)
        if self.ranking is None:
            self.ranking = rank_candidates(
                self.candidates, store, estimator=estimator
            )
        term = self.ranking.winner.candidate.term
        if term is None:
            return self.ranking
        return replace(
            self.ranking,
            peak_bytes=estimate_term_bytes(term, store, estimator),
        )


def plan_query(
    query: UCQT,
    schema: GraphSchema,
    store: RelationalStore,
    *,
    rewrite: bool = True,
    options: RewriteOptions | None = None,
    max_partial: int = DEFAULT_MAX_PARTIAL,
    join_orders: int = DEFAULT_JOIN_ORDERS,
) -> PlanChoice:
    """Enumerate, cost and rank every candidate plan for one query."""
    return PlanningPass.for_query(
        query,
        schema,
        store,
        rewrite=rewrite,
        options=options,
        max_partial=max_partial,
        join_orders=join_orders,
    ).choice(store)
