"""Physical cost model: estimated rows × per-backend operator weights.

:mod:`repro.ra.stats` answers *how many rows* an operator produces; this
module answers *what those rows cost on a given substrate*. Each backend
gets a :class:`CostProfile` of per-row weights for the operator kinds the
executors actually spend time in — scan, hash-join build/probe/output,
dedup (set-semantics projection and union), fixpoint rounds — plus a
per-operator startup charge.

The absolute numbers are arbitrary; the *relative* shape is what the
planner needs and it mirrors measured behaviour:

* ``vec`` moves whole columns, so its per-row weights are tiny but every
  operator pays a real kernel-dispatch startup — plans with many small
  operators (e.g. a rewrite exploded into dozens of disjuncts) cost more
  than the same rows through few operators;
* ``ra`` runs the same operators on the pure-Python kernel, where every
  row is interpreter work, so per-row weights dominate and operator
  count barely matters;
* ``sqlite`` sits in between (compiled loop, but row-at-a-time VM).

Backends without a profile of their own (``gdb``, ``reference``,
third-party registrations) fall back to the row-dominated ``ra`` default,
which keeps ranking purely cardinality-driven for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """Per-row operator weights for one execution substrate."""

    name: str
    scan: float          # per row scanned out of a base table
    join_build: float    # per build-side row (hash table insert)
    join_probe: float    # per probe-side row (hash lookup)
    join_out: float      # per output row materialised
    dedup: float         # per row deduplicated (π, ∪ distinct)
    select: float        # per row filtered (σ)
    fixpoint_row: float  # per row tracked across fixpoint rounds
    startup: float       # flat charge per physical operator


#: The pure-Python kernel, sequential: per-row work dominates everything.
#: Hand-set weights, not measurements of that kernel: only the ratios
#: between weights and across profiles matter.
_RA_PROFILE = CostProfile(
    name="ra",
    scan=1.0,
    join_build=1.6,
    join_probe=1.2,
    join_out=0.8,
    dedup=0.9,
    select=0.6,
    fixpoint_row=1.2,
    startup=2.0,
)

#: The vectorized executor: cheap rows, expensive operator dispatch.
_VEC_PROFILE = CostProfile(
    name="vec",
    scan=0.05,
    join_build=0.25,
    join_probe=0.15,
    join_out=0.06,
    dedup=0.12,
    select=0.05,
    fixpoint_row=0.25,
    startup=40.0,
)

#: SQLite's compiled row-at-a-time VM: between the two.
_SQLITE_PROFILE = CostProfile(
    name="sqlite",
    scan=0.30,
    join_build=0.55,
    join_probe=0.40,
    join_out=0.25,
    dedup=0.35,
    select=0.20,
    fixpoint_row=0.45,
    startup=8.0,
)

PROFILES: dict[str, CostProfile] = {
    "ra": _RA_PROFILE,
    "vec": _VEC_PROFILE,
    "sqlite": _SQLITE_PROFILE,
}


def cost_profile(backend: str) -> CostProfile:
    """The cost profile for ``backend`` (row-dominated ``ra`` fallback)."""
    return PROFILES.get(backend, _RA_PROFILE)


@dataclass(frozen=True)
class TermCost:
    """Estimated total cost and output cardinality of one term."""

    total: float
    rows: float


#: ``term -> (rows, one total per profile)``: what one planning pass has
#: costed so far, under one fixed tuple of profiles.
CostMemo = dict[RaTerm, tuple[float, tuple[float, ...]]]


def cost_term_profiles(
    term: RaTerm,
    store: RelationalStore,
    profiles: Sequence[CostProfile],
    estimator: Estimator | None = None,
    memo: CostMemo | None = None,
) -> tuple[TermCost, ...]:
    """``term``'s cost under each of ``profiles``, from one bottom-up walk.

    The model is linear in a profile's weights, so one visit of a node
    (one cardinality lookup) yields every profile's total. ``memo``
    carries costed sub-terms from one candidate of a planning pass to
    the next; it must only ever see one ``profiles`` tuple.
    """
    estimator = estimator or Estimator(store)
    memo = {} if memo is None else memo

    def visit(node: RaTerm) -> tuple[float, tuple[float, ...]]:
        if isinstance(node, Rename):
            # Renames are metadata-only on every substrate.
            return visit(node.child)
        cached = memo.get(node)
        if cached is None:
            cached = memo[node] = charge(node)
        return cached

    def charge(node: RaTerm) -> tuple[float, tuple[float, ...]]:
        rows = max(estimator.rows(node), 0.0)
        if isinstance(node, Rel):
            return rows, tuple(p.startup + rows * p.scan for p in profiles)
        if isinstance(node, Var):
            # Frontier scans are internal to a fixpoint round; the
            # fixpoint node charges for them.
            return rows, tuple(0.0 for _ in profiles)
        if isinstance(node, Project):
            child_rows, child = visit(node.child)
            return rows, tuple(
                total + p.startup + child_rows * p.dedup
                for p, total in zip(profiles, child)
            )
        if isinstance(node, SelectEq):
            child_rows, child = visit(node.child)
            return rows, tuple(
                total + p.startup + child_rows * p.select
                for p, total in zip(profiles, child)
            )
        if isinstance(node, Join):
            left_rows, left = visit(node.left)
            right_rows, right = visit(node.right)
            build, probe = sorted((left_rows, right_rows))
            return rows, tuple(
                left_total
                + right_total
                + p.startup
                + build * p.join_build
                + probe * p.join_probe
                + rows * p.join_out
                for p, left_total, right_total in zip(profiles, left, right)
            )
        if isinstance(node, RaUnion):
            left_rows, left = visit(node.left)
            right_rows, right = visit(node.right)
            return rows, tuple(
                left_total
                + right_total
                + p.startup
                + (left_rows + right_rows) * p.dedup
                for p, left_total, right_total in zip(profiles, left, right)
            )
        if isinstance(node, Fix):
            _base_rows, base = visit(node.base)
            _step_rows, step = visit(node.step)
            # The step body re-runs once per semi-naive round and every
            # produced row is set-differenced against the state.
            return rows, tuple(
                base_total
                + _FIXPOINT_ROUNDS * step_total
                + p.startup
                + rows * p.fixpoint_row
                for p, base_total, step_total in zip(profiles, base, step)
            )
        raise TypeError(f"unknown RA term {node!r}")

    rows, totals = visit(term)
    return tuple(TermCost(total, rows) for total in totals)


def cost_term(
    term: RaTerm,
    store: RelationalStore,
    profile: CostProfile,
    estimator: Estimator | None = None,
) -> TermCost:
    """Walk ``term`` bottom-up, charging ``profile`` weights per operator."""
    return cost_term_profiles(term, store, (profile,), estimator)[0]


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
