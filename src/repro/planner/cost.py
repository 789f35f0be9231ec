"""Physical cost model: estimated rows × operator weights.

:mod:`repro.ra.stats` answers *how many rows* an operator produces; this
module answers *what those rows cost*. One :class:`CostProfile`,
:data:`PROFILE`, holds per-row weights for the operator kinds the
executor actually spends time in — scan, hash-join build/probe/output,
dedup (set-semantics projection and union), fixpoint rounds — plus a
per-operator startup charge.

The planner chooses between equivalent plans of one query (the original,
its schema rewrites, their join orders), never between backends, so
every backend's candidates are ranked under the same weights. Their
absolute numbers are arbitrary. The shape is the columnar executor's:
per-row weights are tiny but every operator pays a dispatch startup, so
plans with many small operators (e.g. a rewrite exploded into dozens of
disjuncts) cost more than the same rows through few operators.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: Semi-naive rounds charged per fixpoint (same guess as ra.plan).
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


@dataclass(frozen=True)
class TermCost:
    """Estimated total cost and output cardinality of one term."""

    total: float
    rows: float


#: ``term -> (rows, total)``: what one planning pass has costed so far.
CostMemo = dict[RaTerm, tuple[float, float]]


def cost_term(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
    memo: CostMemo | None = None,
) -> TermCost:
    """Walk ``term`` bottom-up, charging :data:`PROFILE` weights per
    operator. ``memo`` carries costed sub-terms from one candidate of a
    planning pass to the next."""
    estimator = estimator or Estimator(store)
    memo = {} if memo is None else memo
    p = PROFILE

    def visit(node: RaTerm) -> tuple[float, float]:
        if isinstance(node, Rename):
            # Renames are metadata-only on every substrate.
            return visit(node.child)
        cached = memo.get(node)
        if cached is None:
            cached = memo[node] = charge(node)
        return cached

    def charge(node: RaTerm) -> tuple[float, float]:
        rows = max(estimator.rows(node), 0.0)
        if isinstance(node, Rel):
            return rows, p.startup + rows * p.scan
        if isinstance(node, Var):
            # Frontier scans are internal to a fixpoint round; the
            # fixpoint node charges for them.
            return rows, 0.0
        if isinstance(node, Project):
            child_rows, child = visit(node.child)
            return rows, child + p.startup + child_rows * p.dedup
        if isinstance(node, SelectEq):
            child_rows, child = visit(node.child)
            return rows, child + p.startup + child_rows * p.select
        if isinstance(node, Join):
            left_rows, left = visit(node.left)
            right_rows, right = visit(node.right)
            build, probe = sorted((left_rows, right_rows))
            return rows, (
                left
                + right
                + p.startup
                + build * p.join_build
                + probe * p.join_probe
                + rows * p.join_out
            )
        if isinstance(node, RaUnion):
            left_rows, left = visit(node.left)
            right_rows, right = visit(node.right)
            return rows, (
                left + right + p.startup + (left_rows + right_rows) * p.dedup
            )
        if isinstance(node, Fix):
            _base_rows, base = visit(node.base)
            _step_rows, step = visit(node.step)
            # The step body re-runs once per semi-naive round and every
            # produced row is set-differenced against the state.
            return rows, (
                base + _FIXPOINT_ROUNDS * step + p.startup
                + rows * p.fixpoint_row
            )
        raise TypeError(f"unknown RA term {node!r}")

    rows, total = visit(term)
    return TermCost(total, rows)


def estimate_term_bytes(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> float:
    """Estimated peak bytes of materialised encoded columns for ``term``.

    Mirrors the vec executor's residency model — every materialised
    table is one int64 code (8 bytes) per row per column — and the
    shape of batch evaluation: when an operator materialises its
    output, its children's outputs are still alive, so the plan's peak
    is the max over operators of *own output bytes + children's output
    bytes*. Renames are metadata-only and frontier ``Var`` scans alias
    state the enclosing fixpoint already accounts for. This is the
    planner's **soft** memory estimate; a
    :class:`~repro.graph.evaluator.ResourceBudget`'s ``max_bytes``
    remains the hard runtime ceiling.
    """
    estimator = estimator or Estimator(store)

    def bytes_of(node: RaTerm) -> float:
        try:
            node_width = max(len(estimator.columns(node)), 1)
        except EvaluationError:  # width unknown: assume the binary-edge shape
            node_width = 2
        return max(estimator.rows(node), 0.0) * node_width * 8.0

    peak = 0.0

    def visit(node: RaTerm) -> float:
        """Post-order walk; returns the node's output bytes."""
        nonlocal peak
        if isinstance(node, Rename):
            return visit(node.child)
        if isinstance(node, Var):
            return 0.0
        if isinstance(node, Rel):
            own = bytes_of(node)
            peak = max(peak, own)
            return own
        if isinstance(node, (Project, SelectEq)):
            children = [visit(node.child)]
        elif isinstance(node, (Join, RaUnion)):
            children = [visit(node.left), visit(node.right)]
        elif isinstance(node, Fix):
            children = [visit(node.base), visit(node.step)]
        else:
            raise TypeError(f"unknown RA term {node!r}")
        own = bytes_of(node)
        peak = max(peak, own + sum(children))
        return own

    visit(term)
    return peak


#: The operator kinds telemetry is recorded under — one entry per
#: ``*_rows``/``*_seconds`` counter pair on
#: :class:`~repro.exec.executor.ExecutionStats`.
OPERATOR_KINDS = ("scan", "join", "union", "select", "project", "fixpoint")


def estimate_kind_rows(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> dict[str, float]:
    """Estimated output rows per operator kind for one term.

    Mirrors the executors' per-kind actual-row counters (each operator
    contributes its *output* cardinality to its kind), so the pairs
    (estimate, actual) feed Q-error accounting directly. Operators
    inside a fixpoint step are charged once per assumed semi-naive
    round, matching :func:`cost_term`'s model — the Q-error then
    measures the cost model's real estimation error, rounds included.
    Renames and frontier scans contribute nothing, exactly like the
    executors.
    """
    estimator = estimator or Estimator(store)
    totals = {kind: 0.0 for kind in OPERATOR_KINDS}

    def visit(node: RaTerm, multiplier: float) -> None:
        rows = max(estimator.rows(node), 0.0) * multiplier
        if isinstance(node, Rel):
            totals["scan"] += rows
            return
        if isinstance(node, Var):
            return
        if isinstance(node, Rename):
            visit(node.child, multiplier)
            return
        if isinstance(node, Project):
            totals["project"] += rows
            visit(node.child, multiplier)
            return
        if isinstance(node, SelectEq):
            totals["select"] += rows
            visit(node.child, multiplier)
            return
        if isinstance(node, Join):
            totals["join"] += rows
            visit(node.left, multiplier)
            visit(node.right, multiplier)
            return
        if isinstance(node, RaUnion):
            totals["union"] += rows
            visit(node.left, multiplier)
            visit(node.right, multiplier)
            return
        if isinstance(node, Fix):
            totals["fixpoint"] += rows
            visit(node.base, multiplier)
            visit(node.step, multiplier * _FIXPOINT_ROUNDS)
            return
        raise TypeError(f"unknown RA term {node!r}")

    visit(term, 1.0)
    return totals
