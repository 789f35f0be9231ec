"""Evaluate a recursive relational algebra term against a store.

There is one physical layer under µ-RA: :mod:`repro.exec`. A term is
compiled to a columnar program (:func:`~repro.exec.compile.compile_term`,
cached per store snapshot) and run by the executor, which owns the hash
joins, the memoisation of closed sub-terms and the semi-naive fixpoint
iteration. This module is the term-level front door to that layer — the
same configuration the ``ra`` backend runs: the dependency-free
pure-Python kernel, sequential, in memory.

The executor honours the same cooperative :class:`EvalBudget` as the graph
evaluator, reproducing the paper's per-query timeout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.evaluator import EvalBudget
from repro.ra.terms import RaTerm
from repro.storage.relational import RelationalStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.executor import ExecutionStats

Rows = set[tuple]
Result = tuple[tuple[str, ...], Rows]


def evaluate_term(
    term: RaTerm,
    store: RelationalStore,
    budget: EvalBudget | None = None,
    stats: "ExecutionStats | None" = None,
) -> Result:
    """Evaluate ``term`` against ``store``; returns (columns, rows).

    ``stats``, when given, accumulates the executor's per-operator-kind
    actual row counts and exclusive wall-clock timings.
    """
    # repro.exec compiles repro.ra terms, so it is imported on use.
    from repro.exec.compile import compile_term
    from repro.exec.executor import execute_program
    from repro.exec.kernels import get_kernel

    program = compile_term(term, store)
    rows = execute_program(
        program, store, budget=budget, kernel=get_kernel("python"), stats=stats
    )
    return program.columns, set(rows)
