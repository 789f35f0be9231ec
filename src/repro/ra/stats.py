"""Cardinality estimation over RA terms.

A deliberately PostgreSQL-flavoured estimator: per-table row counts and
per-column distinct counts feed textbook selectivity formulas
(``|L ⋈ R| = |L|·|R| / max(ndv_L, ndv_R)`` per shared column). Estimates
drive the optimizer's join ordering and the planner's costs
(:mod:`repro.planner.cost`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.planner.cost import TermCost

#: Assumed growth of a transitive closure over its base relation. Real
#: engines estimate recursive CTEs crudely too (PostgreSQL assumes 10x the
#: non-recursive term); 4x keeps plans sensible at our scales. Every
#: estimate uses it, so a plan depends only on the query, the schema and
#: the store snapshot, never on which queries ran before it.
FIXPOINT_GROWTH = 4.0


class StoreStatistics:
    """Memoised per-table row and NDV statistics for one store snapshot.

    ``Table.distinct_count`` rescans every row; the optimizer asks for the
    same counts on every call (one fresh :class:`Estimator` per
    ``optimize_term``), so the scans are cached here per
    ``(store, store.version)`` snapshot. Store writes bump the version,
    which retires the snapshot on the next lookup; append-only writes
    carry the memos into the successor snapshot (:meth:`carry_from`).
    """

    def __init__(self, store: RelationalStore):
        # Weak, so the cache entry in ``_STATISTICS`` (whose value this
        # snapshot is) cannot pin its own key alive forever.
        self._store_ref = weakref.ref(store)
        self.version = store.version
        self._rows: dict[str, int] = {}
        self._ndv: dict[tuple[str, str], int] = {}

    def _table(self, name: str):
        store = self._store_ref()
        if store is None:  # pragma: no cover - caller always holds the store
            raise ReferenceError("the profiled store no longer exists")
        return store.table(name)

    def row_count(self, name: str) -> int:
        cached = self._rows.get(name)
        if cached is None:
            cached = self._table(name).row_count
            self._rows[name] = cached
        return cached

    def distinct_count(self, name: str, column: str) -> int:
        key = (name, column)
        cached = self._ndv.get(key)
        if cached is None:
            cached = self._table(name).distinct_count(column)
            self._ndv[key] = cached
        return cached

    def carry_from(
        self, previous: "StoreStatistics", appended: dict[str, frozenset]
    ) -> None:
        """Seed this snapshot from its predecessor across an append delta.

        Memoised row counts of changed tables are advanced by exactly
        the delta size (delta rows are genuinely new); their distinct
        counts are dropped and rescanned lazily. Unchanged tables keep
        every memo.
        """
        for name, count in previous._rows.items():
            self._rows[name] = count + len(appended.get(name, ()))
        for key, value in previous._ndv.items():
            if key[0] not in appended:
                self._ndv[key] = value


_STATISTICS: "WeakKeyDictionary[RelationalStore, StoreStatistics]" = (
    WeakKeyDictionary()
)


def store_statistics(store: RelationalStore) -> StoreStatistics:
    """The memoised statistics snapshot for ``store``'s current version.

    Across append-only writes the fresh snapshot inherits its
    predecessor's delta-adjusted memos via
    :meth:`StoreStatistics.carry_from`; barrier writes start clean.
    """
    stats = _STATISTICS.get(store)
    if stats is None or stats.version != store.version:
        deltas = (
            None if stats is None else store.delta_since(stats.version)
        )
        previous = stats
        stats = StoreStatistics(store)
        if deltas is not None and previous is not None:
            stats.carry_from(previous, deltas)
        _STATISTICS[store] = stats
    return stats


@dataclass(frozen=True)
class Estimate:
    """Estimated output of a term: row count and per-column distinct counts."""

    rows: float
    distinct: tuple[tuple[str, float], ...]

    def ndv(self, column: str) -> float:
        for name, value in self.distinct:
            if name == column:
                return value
        return max(self.rows, 1.0)

    def project(self, keep: tuple[str, ...]) -> "Estimate":
        """Set-semantics projection onto ``keep``: at most the product
        of the kept columns' distinct counts."""
        limit = 1.0
        for column in keep:
            limit *= self.ndv(column)
        rows = min(self.rows, limit)
        return Estimate(rows, tuple((c, min(self.ndv(c), rows)) for c in keep))

    def join(self, other: "Estimate") -> "Estimate":
        """The natural join with ``other``: the product of both sides'
        rows over the larger distinct count of each shared column."""
        columns = {name for name, _ in self.distinct}
        rows = self.rows * other.rows
        for name, _ in other.distinct:
            if name in columns:
                rows /= max(self.ndv(name), other.ndv(name), 1.0)
        rows = max(rows, 0.0)
        distinct = [
            (name, min(value, rows) if rows else 0.0)
            for name, value in self.distinct
        ]
        distinct.extend(
            (name, min(value, rows) if rows else 0.0)
            for name, value in other.distinct
            if name not in columns
        )
        return Estimate(rows, tuple(distinct))

    def renamed(self, mapping: dict[str, str]) -> "Estimate":
        """The same estimate with columns renamed (old name -> new)."""
        return Estimate(
            self.rows,
            tuple((mapping.get(name, name), value) for name, value in self.distinct),
        )

    def with_rows(self, rows: float) -> "Estimate":
        if rows <= 0.0:
            # No rows, no distinct values — do not clamp to 1.
            return Estimate(0.0, tuple((name, 0.0) for name, _ in self.distinct))
        if self.rows <= 0.0:
            # No base cardinality to derive a scale factor from: keep
            # each known distinct count, bounded by the new row count
            # (unknown/zero counts default to the row count itself).
            clipped = tuple(
                (name, max(1.0, min(value, rows)) if value > 0 else rows)
                for name, value in self.distinct
            )
            return Estimate(rows, clipped)
        scale = rows / self.rows
        clipped = tuple(
            (name, max(1.0, min(value, value * scale if scale < 1 else value, rows)))
            for name, value in self.distinct
        )
        return Estimate(rows, clipped)


class Estimator:
    """Estimates cardinalities for RA terms against a store.

    A closure is assumed to grow :data:`FIXPOINT_GROWTH` times over its
    base, so two estimators over one store snapshot agree on every term.

    One estimator serves one planning pass: estimates and output columns
    are memoised per distinct term (terms are interned, so a lookup is
    by identity), and everything that optimises, costs or sizes
    the pass's candidates shares them through it.
    """

    def __init__(self, store: RelationalStore):
        self.store = store
        #: The store version the memoised estimates were taken at.
        self.version = store.version
        self._cache: dict[RaTerm, Estimate] = {}
        self._columns: dict[RaTerm, tuple[str, ...]] = {}
        #: Costed operators per term, filled by
        #: :func:`~repro.planner.cost.cost_term`.
        self.costs: dict[RaTerm, TermCost] = {}

    def columns(self, term: RaTerm) -> tuple[str, ...]:
        """``term.columns(store)``, derived once per distinct term."""
        return term.columns(self.store, self._columns)

    def estimate(self, term: RaTerm) -> Estimate:
        cached = self._cache.get(term)
        if cached is None:
            cached = self._compute(term)
            self._cache[term] = cached
        return cached

    def rows(self, term: RaTerm) -> float:
        return self.estimate(term).rows

    def _compute(self, term: RaTerm) -> Estimate:
        if isinstance(term, Rel):
            stats = store_statistics(self.store)
            columns = term.projection or self.store.table(term.name).columns
            distinct = tuple(
                (c, float(stats.distinct_count(term.name, c)))
                for c in columns
            )
            return Estimate(float(stats.row_count(term.name)), distinct)
        if isinstance(term, Var):
            # Recursion variables stand for the running fixpoint delta; a
            # flat default keeps join-order decisions inside steps sane.
            return Estimate(
                1000.0, tuple((c, 1000.0) for c in term.var_columns)
            )
        if isinstance(term, Project):
            return self.estimate(term.child).project(term.keep)
        if isinstance(term, Rename):
            return self.estimate(term.child).renamed(dict(term.mapping))
        if isinstance(term, SelectEq):
            child = self.estimate(term.child)
            selectivity = 1.0 / max(
                child.ndv(term.column_a), child.ndv(term.column_b), 1.0
            )
            return child.with_rows(max(1.0, child.rows * selectivity))
        if isinstance(term, Join):
            return self.estimate(term.left).join(self.estimate(term.right))
        if isinstance(term, RaUnion):
            left = self.estimate(term.left)
            right = self.estimate(term.right)
            rows = left.rows + right.rows
            distinct = tuple(
                (name, min(rows, value + right.ndv(name)))
                for name, value in left.distinct
            )
            return Estimate(rows, distinct)
        if isinstance(term, Fix):
            return self.closure(self.estimate(term.base))
        raise TypeError(f"unknown RA term {term!r}")

    def closure(self, base: Estimate) -> Estimate:
        """A fixpoint seeded with ``base``: the base grown by
        :data:`FIXPOINT_GROWTH`, each distinct count at most doubled."""
        rows = base.rows * FIXPOINT_GROWTH
        distinct = tuple(
            (name, min(rows, value * 2.0)) for name, value in base.distinct
        )
        return Estimate(rows, distinct)

