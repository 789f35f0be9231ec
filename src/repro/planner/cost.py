"""Physical cost model: estimated rows × operator weights.

:mod:`repro.ra.stats` answers *how many rows* an operator produces; this
module answers *what those rows cost*. One :class:`CostProfile`,
:data:`PROFILE`, holds per-row weights for the operator kinds the
executor actually spends time in — scan, hash-join build/probe/output,
dedup (set-semantics projection and union), fixpoint rounds — plus a
per-operator startup charge.

The planner chooses between equivalent plans of one query (the original
and its schema rewrite), never between backends, so every backend's
candidates are ranked under the same weights. Their
absolute numbers are arbitrary. The shape is the columnar executor's:
per-row weights are tiny but every operator pays a dispatch startup, so
plans with many small operators (e.g. a rewrite exploded into dozens of
disjuncts) cost more than the same rows through few operators.

:func:`cost_term` is the one walk that charges these weights. It returns
the plan's operator tree (:class:`TermCost`), and everything else that
estimates a plan folds over that tree: the ranking reads its root, the
peak-memory and per-kind row estimates sum over it, and ``explain``
renders it (Fig. 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import EvaluationError
from repro.ra.stats import Estimator
from repro.ra.terms import (
    Fix,
    Join,
    Project,
    RaTerm,
    RaUnion,
    Rel,
    Rename,
    SelectEq,
    Var,
)
from repro.storage.relational import RelationalStore

#: Semi-naive rounds a fixpoint's step is charged for (a guess).
_FIXPOINT_ROUNDS = 3.0


@dataclass(frozen=True)
class CostProfile:
    """Per-row operator weights."""

    scan: float          # per row scanned out of a base table
    join_build: float    # per build-side row (hash table insert)
    join_probe: float    # per probe-side row (hash lookup)
    join_out: float      # per output row materialised
    dedup: float         # per row deduplicated (π, ∪ distinct)
    select: float        # per row filtered (σ)
    fixpoint_row: float  # per row tracked across fixpoint rounds
    startup: float       # flat charge per physical operator


#: The one profile every plan is ranked under, whatever backend runs it.
#: Hand-set weights, not measurements: only their ratios matter. Rows
#: are cheap and operator dispatch is expensive, the columnar shape.
PROFILE = CostProfile(
    scan=0.05,
    join_build=0.25,
    join_probe=0.15,
    join_out=0.06,
    dedup=0.12,
    select=0.05,
    fixpoint_row=0.25,
    startup=40.0,
)


#: The operator kinds telemetry is recorded under — one entry per
#: ``*_rows``/``*_seconds`` counter pair on
#: :class:`~repro.exec.executor.ExecutionStats`.
OPERATOR_KINDS = ("scan", "join", "union", "select", "project", "fixpoint")


@dataclass(slots=True)
class TermCost:
    """One costed operator: its estimated output rows, the cost of the
    subtree it roots, and its costed inputs.

    ``kind`` is one of :data:`OPERATOR_KINDS` or ``"frontier"`` (a
    fixpoint's delta scan, charged by the fixpoint). Renames are
    metadata-only on every substrate, so they have no operator of their
    own. A bare ``TermCost(0.0, 0.0)`` is the provably empty plan.
    """

    total: float
    rows: float
    kind: str = ""
    term: RaTerm | None = None
    inputs: tuple["TermCost", ...] = ()

    def render(self, store: RelationalStore, indent: int = 0) -> str:
        """The tree as EXPLAIN text: an operator per line with its rows
        and cumulative cost, what it reads or keeps on the next, its
        inputs indented below it."""
        pad = "  " * indent
        lines = [
            f"{pad}{self.kind.capitalize()} "
            f"(cost = {self.total:,.1f} rows = {int(self.rows):,})"
        ]
        detail = self._detail(store)
        if detail:
            lines.append(f"{pad}  {detail}")
        lines.extend(node.render(store, indent + 1) for node in self.inputs)
        return "\n".join(lines)

    def _detail(self, store: RelationalStore) -> str:
        # ``kind`` was set by ``cost_term`` from the term's type, so it
        # says which fields the term has.
        term: Any = self.term
        kind = self.kind
        if kind in ("scan", "frontier"):
            return f"on {term.name}"
        if kind == "join":
            shared = sorted(
                set(term.left.columns(store)) & set(term.right.columns(store))
            )
            return f"on ({', '.join(shared)})" if shared else "cartesian"
        if kind == "project":
            return f"keep: {', '.join(term.keep)}"
        if kind == "select":
            return f"{term.column_a} = {term.column_b}"
        if kind == "fixpoint":
            return f"recursion: {term.var}"
        return ""


def cost_term(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> TermCost:
    """Walk ``term`` bottom-up, charging :data:`PROFILE` weights per
    operator; returns the costed operator tree. Costed sub-terms are
    kept on the estimator, so the candidates of one planning pass, and
    the folds over its winner, share them."""
    estimator = estimator or Estimator(store)
    memo = estimator.costs
    p = PROFILE

    def visit(node: RaTerm) -> TermCost:
        if isinstance(node, Rename):
            return visit(node.child)
        cached = memo.get(node)
        if cached is None:
            cached = memo[node] = charge(node)
        return cached

    def charge(node: RaTerm) -> TermCost:
        rows = max(estimator.rows(node), 0.0)
        if isinstance(node, Rel):
            return TermCost(p.startup + rows * p.scan, rows, "scan", node)
        if isinstance(node, Var):
            # Frontier scans are internal to a fixpoint round; the
            # fixpoint node charges for them.
            return TermCost(0.0, rows, "frontier", node)
        if isinstance(node, Project):
            child = visit(node.child)
            return TermCost(
                child.total + p.startup + child.rows * p.dedup,
                rows, "project", node, (child,),
            )
        if isinstance(node, SelectEq):
            child = visit(node.child)
            return TermCost(
                child.total + p.startup + child.rows * p.select,
                rows, "select", node, (child,),
            )
        if isinstance(node, Join):
            left = visit(node.left)
            right = visit(node.right)
            build, probe = sorted((left.rows, right.rows))
            return TermCost(
                left.total
                + right.total
                + p.startup
                + build * p.join_build
                + probe * p.join_probe
                + rows * p.join_out,
                rows, "join", node, (left, right),
            )
        if isinstance(node, RaUnion):
            left = visit(node.left)
            right = visit(node.right)
            return TermCost(
                left.total + right.total + p.startup
                + (left.rows + right.rows) * p.dedup,
                rows, "union", node, (left, right),
            )
        if isinstance(node, Fix):
            base = visit(node.base)
            step = visit(node.step)
            # The step body re-runs once per semi-naive round and every
            # produced row is set-differenced against the state.
            return TermCost(
                base.total + _FIXPOINT_ROUNDS * step.total + p.startup
                + rows * p.fixpoint_row,
                rows, "fixpoint", node, (base, step),
            )
        raise TypeError(f"unknown RA term {node!r}")

    return visit(term)


def estimate_term_bytes(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> float:
    """Estimated peak bytes of materialised encoded columns for ``term``.

    Mirrors the vec executor's residency model — every materialised
    table is one int64 code (8 bytes) per row per column — and the
    shape of batch evaluation: when an operator materialises its
    output, its inputs' outputs are still alive, so the plan's peak is
    the max over operators of *own output bytes + inputs' output
    bytes*. Frontier scans alias state the enclosing fixpoint already
    accounts for. This is the planner's **soft** memory estimate; a
    :class:`~repro.graph.evaluator.ResourceBudget`'s ``max_bytes``
    remains the hard runtime ceiling.
    """
    estimator = estimator or Estimator(store)
    peak = 0.0

    def visit(node: TermCost) -> float:
        """Post-order fold; returns the operator's output bytes."""
        nonlocal peak
        if node.kind == "frontier":
            return 0.0
        inputs = sum(visit(child) for child in node.inputs)
        try:
            width = max(len(estimator.columns(node.term)), 1)
        except EvaluationError:  # width unknown: assume the binary-edge shape
            width = 2
        own = node.rows * width * 8.0
        peak = max(peak, own + inputs)
        return own

    visit(cost_term(term, store, estimator))
    return peak


def estimate_kind_rows(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> dict[str, float]:
    """Estimated output rows per operator kind for one term.

    Mirrors the executors' per-kind actual-row counters (each operator
    contributes its *output* cardinality to its kind), so the pairs
    (estimate, actual) feed Q-error accounting directly. Operators
    inside a fixpoint step are counted once per round the cost walk
    charges the step for, so the Q-error measures the cost model's
    real estimation error, rounds included. Frontier scans contribute
    nothing, exactly like the executors.
    """
    totals = {kind: 0.0 for kind in OPERATOR_KINDS}

    def visit(node: TermCost, multiplier: float) -> None:
        if node.kind == "frontier":
            return
        totals[node.kind] += node.rows * multiplier
        if node.kind == "fixpoint":
            base, step = node.inputs
            visit(base, multiplier)
            visit(step, multiplier * _FIXPOINT_ROUNDS)
            return
        for child in node.inputs:
            visit(child, multiplier)

    visit(cost_term(term, store, estimator), 1.0)
    return totals
