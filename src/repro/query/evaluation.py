"""Homomorphism-semantics evaluation of CQT/UCQT over a property graph.

This is the reference query processor: each relation's path expression is
evaluated to a pair set with the Fig. 5 semantics, relations are joined on
shared variables, label atoms filter candidate bindings, and the head is
projected under set semantics (paper §2.4.2).

Join order is chosen greedily (smallest relation first, then relations
sharing an already-bound variable) — enough to keep the reference engine
usable as a baseline, while remaining obviously correct.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.graph.evaluator import EvalBudget, evaluate_path
from repro.graph.model import PropertyGraph
from repro.query.model import CQT, UCQT

Binding = tuple[int, ...]


def evaluate_ucqt(
    graph: PropertyGraph,
    query: UCQT,
    budget: EvalBudget | None = None,
) -> frozenset[tuple[int, ...]]:
    """Evaluate a UCQT: union of its disjuncts' result sets."""
    result: set[tuple[int, ...]] = set()
    for cqt in query.disjuncts:
        result |= evaluate_cqt(graph, cqt, budget)
    return frozenset(result)


def evaluate_cqt(
    graph: PropertyGraph,
    query: CQT,
    budget: EvalBudget | None = None,
) -> frozenset[tuple[int, ...]]:
    """Evaluate one CQT to the set of head-variable tuples."""
    budget = budget or EvalBudget(None)

    # Evaluate every relation's path expression once.
    pair_sets: list[tuple[str, str, frozenset[tuple[int, int]]]] = []
    for relation in query.relations:
        pairs = evaluate_path(graph, relation.expr, budget)
        pair_sets.append((relation.source, relation.target, pairs))

    # Pre-compute label-atom constraints per variable.
    allowed: dict[str, frozenset[int]] = {}
    for var in query.variables():
        labels = query.labels_for(var)
        if labels is not None:
            allowed[var] = graph.nodes_with_labels(labels)

    # Filter each relation by endpoint constraints up front.
    filtered: list[tuple[str, str, list[tuple[int, int]]]] = []
    for source, target, pairs in pair_sets:
        src_ok = allowed.get(source)
        dst_ok = allowed.get(target)
        kept = [
            (n, m)
            for (n, m) in pairs
            if (src_ok is None or n in src_ok) and (dst_ok is None or m in dst_ok)
        ]
        filtered.append((source, target, kept))

    # Greedy join order: start from the smallest relation; then always pick
    # a relation sharing a bound variable (smallest first); fall back to the
    # smallest remaining (cartesian product) if the query is disconnected.
    remaining = sorted(range(len(filtered)), key=lambda i: len(filtered[i][2]))
    if not remaining:
        raise EvaluationError("CQT without relations cannot be evaluated")

    order: list[int] = [remaining.pop(0)]
    bound: set[str] = {filtered[order[0]][0], filtered[order[0]][1]}
    while remaining:
        connected = [
            i
            for i in remaining
            if filtered[i][0] in bound or filtered[i][1] in bound
        ]
        pick = connected[0] if connected else remaining[0]
        remaining.remove(pick)
        order.append(pick)
        bound.update((filtered[pick][0], filtered[pick][1]))

    # Bindings are dicts var -> node id, represented as tuples keyed by a
    # growing variable list for speed.
    var_slots: dict[str, int] = {}
    bindings: list[Binding] = [()]

    for index in order:
        source, target, pairs = filtered[index]
        budget.tick(len(pairs))
        src_slot = var_slots.get(source)
        dst_slot = var_slots.get(target)
        new_bindings: list[Binding] = []

        if src_slot is None and dst_slot is None:
            for binding in bindings:
                for n, m in pairs:
                    if source == target:
                        if n == m:
                            new_bindings.append(binding + (n,))
                    else:
                        new_bindings.append(binding + (n, m))
            if source == target:
                var_slots[source] = len(var_slots)
            else:
                var_slots[source] = len(var_slots)
                var_slots[target] = len(var_slots)
        elif src_slot is not None and dst_slot is None:
            by_source: dict[int, list[int]] = {}
            for n, m in pairs:
                by_source.setdefault(n, []).append(m)
            for binding in bindings:
                for m in by_source.get(binding[src_slot], ()):
                    new_bindings.append(binding + (m,))
            var_slots[target] = len(var_slots)
        elif src_slot is None and dst_slot is not None:
            by_target: dict[int, list[int]] = {}
            for n, m in pairs:
                by_target.setdefault(m, []).append(n)
            for binding in bindings:
                for n in by_target.get(binding[dst_slot], ()):
                    new_bindings.append(binding + (n,))
            var_slots[source] = len(var_slots)
        else:
            pair_set = set(pairs)
            for binding in bindings:
                if (binding[src_slot], binding[dst_slot]) in pair_set:
                    new_bindings.append(binding)
        bindings = new_bindings
        budget.tick(len(bindings))
        if not bindings:
            return frozenset()

    head_slots = [var_slots[var] for var in query.head]
    return frozenset(
        tuple(binding[slot] for slot in head_slots) for binding in bindings
    )
