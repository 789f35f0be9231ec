"""Cost-based planning across the rewrite → µ-RA → backend pipeline.

The linear pipeline (rewrite, translate, optimise greedily, compile)
always runs the schema rewrite. This package makes the paper's one
choice by cost instead: it plans the query as written and its rewrite,
and picks the cheaper end-to-end plan under one physical cost model:

* :mod:`repro.planner.candidates` — the query as written and its
  schema rewrite (the paper's one choice), each translated and
  optimised once, ranked against each other,
* :mod:`repro.planner.cost` — estimated rows × one profile of operator
  weights.

Sessions opt in with ``ExecOptions(planner="cost")``, as the session
default (``GraphSession(..., exec_options=...)``) or per call
(``session.execute(query, exec_options=...)``).
A query is ranked once per plan-cache lifetime, from the store's
statistics alone: nothing an execution observes moves a plan. The
session's Q-error telemetry (:mod:`repro.engine.telemetry`) measures how
far its row estimates are off.
"""

from repro.planner.candidates import (
    PlanCandidate,
    PlanChoice,
    PlanningPass,
    RankedCandidate,
    enumerate_plan_candidates,
    plan_query,
    rank_candidates,
)
from repro.planner.cost import (
    OPERATOR_KINDS,
    PROFILE,
    CostProfile,
    TermCost,
    cost_term,
    estimate_kind_rows,
)

#: The planner modes a session accepts.
PLANNER_MODES = ("greedy", "cost")


def validate_planner(mode: str) -> str:
    if mode not in PLANNER_MODES:
        raise ValueError(
            f"unknown planner {mode!r}; expected one of {PLANNER_MODES}"
        )
    return mode


__all__ = [
    "PLANNER_MODES",
    "validate_planner",
    "PlanCandidate",
    "PlanChoice",
    "PlanningPass",
    "RankedCandidate",
    "enumerate_plan_candidates",
    "plan_query",
    "rank_candidates",
    "CostProfile",
    "TermCost",
    "PROFILE",
    "OPERATOR_KINDS",
    "cost_term",
    "estimate_kind_rows",
]
