"""Recursive relational algebra terms.

The term language is the µ-RA fragment the paper's translator targets:
base relations, column projection π, renaming ρ, natural join ⋈, union ∪,
and the fixpoint operator µ (with a recursion variable). All relations are
sets of rows under named columns (set semantics, as the paper's Fig. 15
queries use SELECT DISTINCT).

Column inference (``RaTerm.columns``) needs the store only for base
relations; every composite node derives its columns structurally.

Terms are the planner's dictionary keys (estimates, costs, optimiser
memos), so they are interned: a constructor call returns the one live
term of that structure (class and field values, the children being
interned already), building it only on a miss. Equal terms are
therefore the same object, and equality and hashing are object
identity. That holds for every way a term is made: a constructor,
``Rename.of``, ``dataclasses.replace``, ``copy`` and unpickling, which
rebuilds a term through its constructor in the receiving process.

The intern table holds its terms weakly, so a term lives exactly as long
as some plan, cache or caller holds it. Nothing may order output by a
term's hash, which is its address: iterate term-keyed dicts in insertion
order, never sets of terms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, MutableMapping
from weakref import WeakValueDictionary

from repro.errors import EvaluationError
from repro.storage.relational import RelationalStore


#: ``term -> columns`` for the terms one planning pass has seen (all
#: against one store); see :meth:`RaTerm.columns`.
ColumnsMemo = MutableMapping["RaTerm", tuple[str, ...]]

#: ``(class, *field values) -> the live term of that structure``.
_INTERNED: "WeakValueDictionary[tuple, RaTerm]" = WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class _Interned(type):
    """Metaclass of the term classes: construction goes through the
    intern table, so equal terms built separately are one object."""

    def __call__(cls, *args: Any, **kwargs: Any):
        if not kwargs:
            # With every field given positionally the arguments are the
            # key; a call that leans on a default misses here and is
            # keyed by the fields of the term it builds.
            term = _INTERNED.get((cls, *args))
            if term is not None:
                return term
        term = super().__call__(*args, **kwargs)
        key = (cls, *vars(term).values())
        with _INTERN_LOCK:
            return _INTERNED.setdefault(key, term)


@dataclass(frozen=True, eq=False)
class RaTerm(metaclass=_Interned):
    """Base class for RA terms (interned: equal means identical)."""

    def __reduce__(self):
        return self.__class__, tuple(vars(self).values())

    def children(self) -> tuple["RaTerm", ...]:
        return ()

    def walk(self) -> Iterator["RaTerm"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def columns(
        self, store: RelationalStore, memo: ColumnsMemo | None = None
    ) -> tuple[str, ...]:
        """The term's output columns, in order.

        ``memo`` makes repeated visits O(1): a planning pass hands the
        same mapping to every call it makes against one store, and each
        node's columns are derived once from its children's.
        """
        if memo is None:
            return self._columns(store, None)
        cached = memo.get(self)
        if cached is None:
            cached = memo[self] = self._columns(store, memo)
        return cached

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        """Recursion variables not bound by an enclosing fixpoint."""
        result: set[str] = set()
        for child in self.children():
            result |= child.free_vars()
        return frozenset(result)


@dataclass(frozen=True, eq=False)
class Rel(RaTerm):
    """Scan of a base table (node or edge relation, or alias view).

    ``projection`` optionally restricts to a subset of the table's columns
    (used for key-only scans of node tables in semi-joins).
    """

    name: str
    projection: tuple[str, ...] | None = None

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        table_columns = store.table(self.name).columns
        if self.projection is None:
            return table_columns
        for column in self.projection:
            if column not in table_columns:
                raise EvaluationError(
                    f"table {self.name!r} has no column {column!r}"
                )
        return self.projection


@dataclass(frozen=True, eq=False)
class Var(RaTerm):
    """A fixpoint recursion variable; its columns are fixed at binding."""

    name: str
    var_columns: tuple[str, ...]

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        return self.var_columns

    def free_vars(self) -> frozenset[str]:
        return frozenset({self.name})


@dataclass(frozen=True, eq=False)
class Project(RaTerm):
    """π — keep only the given columns (duplicates collapse: set semantics)."""

    child: RaTerm
    keep: tuple[str, ...]

    def children(self) -> tuple[RaTerm, ...]:
        return (self.child,)

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        child_columns = self.child.columns(store, memo)
        for column in self.keep:
            if column not in child_columns:
                raise EvaluationError(
                    f"projection column {column!r} missing from {child_columns}"
                )
        return self.keep


@dataclass(frozen=True, eq=False)
class Rename(RaTerm):
    """ρ — rename columns according to ``mapping`` (old name -> new name)."""

    child: RaTerm
    mapping: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, child: RaTerm, mapping: Mapping[str, str]) -> "Rename":
        return cls(child, tuple(sorted(mapping.items())))

    def children(self) -> tuple[RaTerm, ...]:
        return (self.child,)

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        child_columns = self.child.columns(store, memo)
        rename_map = dict(self.mapping)
        for old in rename_map:
            if old not in child_columns:
                raise EvaluationError(
                    f"rename source {old!r} missing from {child_columns}"
                )
        renamed = tuple(rename_map.get(c, c) for c in child_columns)
        if len(set(renamed)) != len(renamed):
            raise EvaluationError(f"rename produces duplicate columns {renamed}")
        return renamed


@dataclass(frozen=True, eq=False)
class Join(RaTerm):
    """⋈ — natural join on all shared column names."""

    left: RaTerm
    right: RaTerm

    def children(self) -> tuple[RaTerm, ...]:
        return (self.left, self.right)

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        left_columns = self.left.columns(store, memo)
        right_columns = self.right.columns(store, memo)
        extra = tuple(c for c in right_columns if c not in left_columns)
        return left_columns + extra


@dataclass(frozen=True, eq=False)
class RaUnion(RaTerm):
    """∪ — set union; both sides must expose the same columns."""

    left: RaTerm
    right: RaTerm

    def children(self) -> tuple[RaTerm, ...]:
        return (self.left, self.right)

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        left_columns = self.left.columns(store, memo)
        right_columns = self.right.columns(store, memo)
        if set(left_columns) != set(right_columns):
            raise EvaluationError(
                f"union arms disagree on columns: {left_columns} vs {right_columns}"
            )
        return left_columns


@dataclass(frozen=True, eq=False)
class Fix(RaTerm):
    """µ — least fixpoint: ``X = base ∪ step(X)``.

    ``step`` must be *linear* in ``var`` (reference it exactly once), which
    the semi-naive evaluator exploits; the translator only emits linear
    steps (left-linear closure recursion).
    """

    var: str
    base: RaTerm
    step: RaTerm

    def children(self) -> tuple[RaTerm, ...]:
        return (self.base, self.step)

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        return self.base.columns(store, memo)

    def free_vars(self) -> frozenset[str]:
        inner = self.base.free_vars() | self.step.free_vars()
        return frozenset(inner - {self.var})


@dataclass(frozen=True, eq=False)
class SelectEq(RaTerm):
    """σ — keep rows where two columns hold the same value.

    Needed for CQT relations whose source and target variable coincide
    (``(x, ϕ, x)``); no workload query uses it but property tests do.
    """

    child: RaTerm
    column_a: str
    column_b: str

    def children(self) -> tuple[RaTerm, ...]:
        return (self.child,)

    def _columns(
        self, store: RelationalStore, memo: ColumnsMemo | None
    ) -> tuple[str, ...]:
        child_columns = self.child.columns(store, memo)
        for column in (self.column_a, self.column_b):
            if column not in child_columns:
                raise EvaluationError(
                    f"selection column {column!r} missing from {child_columns}"
                )
        return child_columns


def term_size(term: RaTerm) -> int:
    """Number of RA nodes (used by optimizer tests and reporting)."""
    return sum(1 for _ in term.walk())
