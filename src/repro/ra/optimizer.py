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


#: ``term -> (reordered term, whether the seed rank could change it)``.
_ReorderMemo = dict[RaTerm, tuple[RaTerm, bool]]


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
    return optimize_term_candidates(term, store, 1, estimator)[0]


def optimize_term_candidates(
    term: RaTerm,
    store: RelationalStore,
    limit: int = 3,
    estimator: Estimator | None = None,
) -> list[RaTerm]:
    """Bounded enumeration of alternative optimised terms.

    The greedy join ordering commits to *one* order: start from the
    smallest part, grow by cheapest estimated join. This enumerates up
    to ``limit`` complete orders by seeding the greedy loop from the
    k-th smallest part instead (k = 0..limit-1) in every join chain,
    then deduplicates — the cost-based planner ranks the survivors
    instead of trusting the k=0 prefix. The first candidate is always
    the plain greedy result, so callers can treat it as the baseline.

    The seed only matters inside a join chain of three or more parts.
    One memo serves every seed and keeps what a seed cannot change, and
    a term without such a chain is ordered once.
    """
    estimator = estimator or Estimator(store)
    rewritten = _rewrite_memo(term, estimator, {})
    original_columns = estimator.columns(term)
    candidates: list[RaTerm] = []
    memo: _ReorderMemo = {}
    for start_rank in range(max(1, limit)):
        result, seeded = _reorder_memo(rewritten, estimator, memo, start_rank)
        if estimator.columns(result) != original_columns:
            result = Project(result, original_columns)
        if result not in candidates:
            candidates.append(result)
        if not seeded:
            break
        memo = {key: hit for key, hit in memo.items() if not hit[1]}
    return candidates


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
    term: RaTerm, estimator: Estimator, memo: _ReorderMemo, start_rank: int
) -> tuple[RaTerm, bool]:
    hit = memo.get(term)
    if hit is None:
        hit = memo[term] = _reorder_joins(term, estimator, memo, start_rank)
    return hit


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
    term: RaTerm, estimator: Estimator, memo: _ReorderMemo, start_rank: int
) -> tuple[RaTerm, bool]:
    """``term`` with its join chains reordered, and whether ``start_rank``
    had a say in it (some chain below has three or more parts)."""
    children = (
        _flatten_join(term) if isinstance(term, Join) else term.children()
    )
    if not children:
        return term, False
    seeded = False
    parts: list[RaTerm] = []
    for child in children:
        part, part_seeded = _reorder_memo(child, estimator, memo, start_rank)
        parts.append(part)
        seeded = seeded or part_seeded
    if isinstance(term, Join) and len(parts) > 2:
        # Greedy left-deep join ordering by estimated *result* size: start
        # from the smallest base, then repeatedly pick the connected part
        # whose join with the running prefix is estimated cheapest (this is
        # what makes semi-joins against node tables fire early — the
        # Fig. 17 plan shape). ``start_rank`` seeds the loop from the
        # k-th smallest part instead (bounded enumeration for the
        # cost-based planner; 0 = plain greedy).
        remaining = sorted(parts, key=estimator.rows)
        current = remaining.pop(min(start_rank, len(remaining) - 1))
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
        return current, True
    if all(part is child for part, child in zip(parts, children)):
        return term, seeded
    if isinstance(term, Project):
        return Project(parts[0], term.keep), seeded
    if isinstance(term, Rename):
        return Rename(parts[0], term.mapping), seeded
    if isinstance(term, SelectEq):
        return SelectEq(parts[0], term.column_a, term.column_b), seeded
    if isinstance(term, Fix):
        return Fix(term.var, parts[0], parts[1]), seeded
    if isinstance(term, (Join, RaUnion)):
        return type(term)(parts[0], parts[1]), seeded
    raise TypeError(f"unknown RA term {term!r}")
