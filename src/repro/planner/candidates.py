"""Plan-candidate enumeration and cost-based selection.

The unit the planner ranks is a :class:`PlanCandidate`: one semantically
equivalent way of answering a query. There are at most two, the paper's
one choice (both sound by Prop. 4.3):

* the **original** query, untouched (the rewriter's revert path, now a
  first-class candidate instead of a boolean),
* the **rewritten** query, the schema rewrite of
  :func:`repro.core.rewriter.enumerate_rewrites`, when the rewrite did
  not revert and translates to a term the original does not.

Each is translated with chain planning and optimised once, in the
greedy join order of :func:`repro.ra.optimizer.optimize_term`.

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

from repro.core.rewriter import RewriteOptions, RewriteResult, enumerate_rewrites
from repro.errors import ReproError
from repro.planner.cost import TermCost, cost_term, estimate_term_bytes
from repro.query.model import UCQT, drop_unsatisfiable_disjuncts
from repro.ra.optimizer import optimize_term
from repro.ra.stats import Estimator
from repro.ra.translate import TranslationContext, ucqt_to_ra
from repro.schema.model import GraphSchema
from repro.storage.relational import RelationalStore
from repro.ra.terms import RaTerm


@dataclass(frozen=True)
class PlanCandidate:
    """One executable way of answering the query."""

    label: str                 # "original" | "rewritten"
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
            "source": self.label,
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
) -> list[PlanCandidate]:
    """The query's candidates: ``original``, then ``rewritten`` when the
    rewrite did not revert and translates to a different term.

    A candidate whose µ-RA translation fails is dropped (the original is
    translated first, so a query the ``ra`` backend could run keeps at
    least one candidate; a query neither candidate can translate
    re-raises the original's error).
    """
    estimator = estimator or Estimator(store)
    sources: list[tuple[str, UCQT, RewriteResult | None]] = [
        ("original", query, None)
    ]
    if rewrite:
        for label, result in enumerate_rewrites(query, schema, options):
            sources.append((label, result.query, result))

    candidates: list[PlanCandidate] = []
    seen_terms: set[RaTerm] = set()
    first_error: ReproError | None = None
    for label, variant, rewrite_result in sources:
        executed = drop_unsatisfiable_disjuncts(variant)
        if executed.is_empty:
            candidates.append(
                PlanCandidate(label, executed, None, rewrite_result)
            )
            continue
        try:
            term = optimize_term(
                ucqt_to_ra(executed, TranslationContext(estimator=estimator)),
                store,
                estimator,
            )
        except ReproError as error:
            first_error = first_error or error
            continue
        if term in seen_terms:
            continue
        seen_terms.add(term)
        candidates.append(PlanCandidate(label, executed, term, rewrite_result))
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
    prefers the original to the rewrite at equal cost. The choice's
    ``peak_bytes`` is left for whoever compiles the winner
    (:meth:`PlanningPass.choice`).
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
    ) -> "PlanningPass":
        estimator = Estimator(store)
        candidates = enumerate_plan_candidates(
            query, schema, store,
            rewrite=rewrite, options=options, estimator=estimator,
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
) -> PlanChoice:
    """Enumerate, cost and rank the candidate plans of one query."""
    return PlanningPass.for_query(
        query, schema, store, rewrite=rewrite, options=options
    ).choice(store)
