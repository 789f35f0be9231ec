"""Rule-based RA optimisation (µ-RA flavoured).

Local rewrites applied to a fixpoint:

* collapse ``Rename ∘ Rename`` and drop identity renames,
* collapse ``Project ∘ Project`` and fold ``Project ∘ Rel`` into the scan,
* push ``Project`` through ``Rename``,
* replace self-joins of identical terms (``ϕ ∩ ϕ``) by the term,
* collapse unions with identical arms,
* reorder flattened join chains greedily by estimated cardinality (joins
  sharing columns with the accumulated prefix first — avoids accidental
  cartesian products).

Join pushing *into fixpoints* and the bracketing of path chains happen
at translation time (:mod:`repro.ra.translate`), where label atoms and
chain structure are still visible: with an estimator, the translation
seeds a closure with the neighbour that keeps it small. A composition is
a projection over its join, so the chains below never flatten into one
join chain here: this module reorders the joins *inside* a composition
or a conjunctive query, keeps plans tidy and join orders sane, and never
undoes a chain plan.

Each term gets one join order, the greedy one, under the greedy and the
cost planner alike: the cost planner ranks the query against its schema
rewrite, not join orders.
"""

from __future__ import annotations

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
)
from repro.storage.relational import RelationalStore


def optimize_term(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> RaTerm:
    """Apply local rewrites bottom-up, then reorder join chains.

    The optimised term exposes the same columns in the same order as the
    input term (rewrites may shuffle column positions internally; a final
    projection restores the contract when needed). ``estimator`` lets
    the caller share its memoised estimates; by default a fresh
    store-corrected estimator drives the join ordering.
    """
    estimator = estimator or Estimator(store)
    rewritten = _rewrite_memo(term, estimator, {})
    result = _reorder_memo(rewritten, estimator, {})
    original_columns = estimator.columns(term)
    if estimator.columns(result) != original_columns:
        result = Project(result, original_columns)
    return result


def optimize_term_candidates(
    term: RaTerm,
    store: RelationalStore,
    estimator: Estimator | None = None,
) -> list[RaTerm]:
    """``[optimize_term(term, store, estimator)]``. Kept because the
    benchmark ledger's tracer resolves this name."""
    return [optimize_term(term, store, estimator)]


def _rewrite_memo(
    term: RaTerm, estimator: Estimator, memo: dict[RaTerm, RaTerm]
) -> RaTerm:
    """Memoised rewriting: a sub-term shared within the term (terms are
    interned, so equal means identical) is rewritten once. A node whose
    children all come back unchanged is returned as it is."""
    result = memo.get(term)
    if result is None:
        result = memo[term] = _rewrite(term, estimator, memo)
    return result


def _reorder_memo(
    term: RaTerm, estimator: Estimator, memo: dict[RaTerm, RaTerm]
) -> RaTerm:
    result = memo.get(term)
    if result is None:
        result = memo[term] = _reorder_joins(term, estimator, memo)
    return result


def _rewrite(
    term: RaTerm, estimator: Estimator, memo: dict[RaTerm, RaTerm]
) -> RaTerm:
    # Rewrite children first.
    if isinstance(term, Project):
        child = _rewrite_memo(term.child, estimator, memo)
        if isinstance(child, Project):
            return _rewrite_memo(Project(child.child, term.keep), estimator, memo)
        if isinstance(child, Rel):
            return Rel(child.name, term.keep)
        if isinstance(child, Rename):
            # Push the projection under the rename when possible.
            mapping = dict(child.mapping)
            inverse = {new: old for old, new in mapping.items()}
            pushed = tuple(inverse.get(c, c) for c in term.keep)
            inner = _rewrite_memo(Project(child.child, pushed), estimator, memo)
            keep_mapping = {
                old: new for old, new in mapping.items() if old in pushed
            }
            if not keep_mapping:
                return inner
            return Rename.of(inner, keep_mapping)
        if estimator.columns(child) == term.keep:
            return child
        if child is term.child:
            return term
        return Project(child, term.keep)
    if isinstance(term, Rename):
        child = _rewrite_memo(term.child, estimator, memo)
        mapping = {old: new for old, new in term.mapping if old != new}
        if isinstance(child, Rename):
            inner_mapping = dict(child.mapping)
            combined: dict[str, str] = {}
            for old, new in inner_mapping.items():
                combined[old] = mapping.get(new, new)
            for old, new in mapping.items():
                if old not in inner_mapping.values():
                    combined.setdefault(old, new)
            combined = {old: new for old, new in combined.items() if old != new}
            if not combined:
                return child.child
            return Rename.of(child.child, combined)
        if not mapping:
            return child
        return Rename.of(child, mapping)
    if isinstance(term, (Join, RaUnion)):
        left = _rewrite_memo(term.left, estimator, memo)
        right = _rewrite_memo(term.right, estimator, memo)
        if left is right:
            return left  # phi ∩ phi, phi ∪ phi
        if left is term.left and right is term.right:
            return term
        return type(term)(left, right)
    if isinstance(term, SelectEq):
        child = _rewrite_memo(term.child, estimator, memo)
        if child is term.child:
            return term
        return SelectEq(child, term.column_a, term.column_b)
    if isinstance(term, Fix):
        base = _rewrite_memo(term.base, estimator, memo)
        step = _rewrite_memo(term.step, estimator, memo)
        if base is term.base and step is term.step:
            return term
        return Fix(term.var, base, step)
    return term


def _flatten_join(term: RaTerm) -> list[RaTerm]:
    if isinstance(term, Join):
        return _flatten_join(term.left) + _flatten_join(term.right)
    return [term]


def _reorder_joins(
    term: RaTerm, estimator: Estimator, memo: dict[RaTerm, RaTerm]
) -> RaTerm:
    """``term`` with its join chains reordered."""
    children = (
        _flatten_join(term) if isinstance(term, Join) else term.children()
    )
    if not children:
        return term
    parts = [_reorder_memo(child, estimator, memo) for child in children]
    if isinstance(term, Join) and len(parts) > 2:
        # Greedy left-deep join ordering by estimated *result* size: start
        # from the smallest base, then repeatedly pick the connected part
        # whose join with the running prefix is estimated cheapest (this is
        # what makes semi-joins against node tables fire early — the
        # Fig. 17 plan shape).
        remaining = sorted(parts, key=estimator.rows)
        current = remaining.pop(0)
        current_columns = set(estimator.columns(current))
        while remaining:
            connected = [
                p
                for p in remaining
                if not current_columns.isdisjoint(estimator.columns(p))
            ]
            pool = connected if connected else remaining
            best = min(pool, key=lambda p: estimator.rows(Join(current, p)))
            remaining.remove(best)
            current = Join(current, best)
            current_columns.update(estimator.columns(best))
        return current
    if all(part is child for part, child in zip(parts, children)):
        return term
    if isinstance(term, Project):
        return Project(parts[0], term.keep)
    if isinstance(term, Rename):
        return Rename(parts[0], term.mapping)
    if isinstance(term, SelectEq):
        return SelectEq(parts[0], term.column_a, term.column_b)
    if isinstance(term, Fix):
        return Fix(term.var, parts[0], parts[1])
    if isinstance(term, (Join, RaUnion)):
        return type(term)(parts[0], parts[1])
    raise TypeError(f"unknown RA term {term!r}")
