"""Compile optimised µ-RA terms into physical columnar programs.

The compiler resolves every column-name computation of a µ-RA term —
projection targets, natural-join key columns and output layout, union
alignment, fixpoint step alignment — into positional indices *once*, so
the executor moves whole columns without ever touching a column name.

Shared sub-terms compile to shared operator nodes, so shared work runs
once: the executor memoises results of ``closed`` operators (those
without free recursion variables) by node identity. Sharing is
*structural*: µ-RA terms are interned, so equal closed subtrees are one
term object and one compiler maps them onto a single operator node. The
module keeps one compiler (and a compiled-program cache keyed on the
term itself) per store snapshot, which makes the sharing span whole
query batches:
sixteen queries that each contain ``µX. isLocatedIn ∪ ...`` share one
``FixOp`` node, and a batch executor that memoises by node identity runs
that fixpoint once for the entire batch.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.errors import EvaluationError
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


@dataclass
class PhysOp:
    """A physical columnar operator (base class)."""

    columns: tuple[str, ...]
    closed: bool

    def children(self) -> tuple["PhysOp", ...]:
        return ()

    def walk(self, seen: set[int] | None = None) -> "list[PhysOp]":
        """Every distinct operator node of this DAG (shared nodes once)."""
        seen = set() if seen is None else seen
        if id(self) in seen:
            return []
        seen.add(id(self))
        nodes = [self]
        for child in self.children():
            nodes.extend(child.walk(seen))
        return nodes

    def label(self) -> str:
        raise NotImplementedError


@dataclass
class ScanOp(PhysOp):
    """Scan an encoded base table, optionally projecting columns."""

    table: str
    indices: list[int] | None  # positions into the stored columns
    dedup: bool

    def label(self) -> str:
        text = f"ColumnScan {self.table}"
        if self.indices is not None:
            text += f" [{', '.join(self.columns)}]"
        if self.dedup:
            text += " distinct"
        return text


@dataclass
class VarOp(PhysOp):
    """Scan the current fixpoint frontier bound to a recursion variable."""

    name: str

    def label(self) -> str:
        return f"DeltaScan {self.name}"


@dataclass
class ProjectOp(PhysOp):
    child: PhysOp
    indices: list[int]
    dedup: bool

    def children(self) -> tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        text = f"ColumnProject [{', '.join(self.columns)}]"
        if self.dedup:
            text += " distinct"
        return text


@dataclass
class RenameOp(PhysOp):
    """Pure metadata: same columns, new names (zero data movement)."""

    child: PhysOp

    def children(self) -> tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"ColumnRename -> [{', '.join(self.columns)}]"


@dataclass
class SelectEqOp(PhysOp):
    child: PhysOp
    index_a: int
    index_b: int

    def children(self) -> tuple[PhysOp, ...]:
        return (self.child,)

    def label(self) -> str:
        return (
            f"ColumnFilter {self.columns[self.index_a]} = "
            f"{self.columns[self.index_b]}"
        )


@dataclass
class JoinOp(PhysOp):
    """Hash join on encoded key columns (build side chosen at run time)."""

    left: PhysOp
    right: PhysOp
    shared: tuple[str, ...]
    left_key: list[int]
    right_key: list[int]
    layout: list[tuple[int, int]]  # output column <- (side, position)

    def children(self) -> tuple[PhysOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        condition = ", ".join(self.shared) if self.shared else "cartesian"
        return f"VecHashJoin on ({condition})"


@dataclass
class UnionOp(PhysOp):
    left: PhysOp
    right: PhysOp
    right_perm: list[int] | None

    def children(self) -> tuple[PhysOp, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "VecUnion distinct"


@dataclass
class FixOp(PhysOp):
    """Least fixpoint over delta frontiers (semi-naive when linear)."""

    var: str
    base: PhysOp
    step: PhysOp
    step_perm: list[int] | None
    linear: bool
    #: The source :class:`~repro.ra.terms.Fix` term (interned). Cached
    #: fixpoint totals are keyed on it, so incremental maintenance
    #: survives recompilation: a logically equal fixpoint in a rebuilt
    #: program is the same term and finds the total of its predecessor.
    source: object | None = field(default=None, repr=False)

    def children(self) -> tuple[PhysOp, ...]:
        return (self.base, self.step)

    def label(self) -> str:
        mode = "SemiNaiveFixpoint" if self.linear else "NaiveFixpoint"
        return f"{mode} {self.var} [{', '.join(self.columns)}]"


@dataclass
class CompiledProgram:
    """A compiled columnar program: the operator DAG plus scan manifest."""

    root: PhysOp
    columns: tuple[str, ...]
    scan_tables: tuple[str, ...]
    term: RaTerm = field(repr=False)

    def render(self) -> str:
        return _render(self.root, 0, set())


#: Bounds for the per-store compile caches: a long-lived serving process
#: with high query diversity must not retain every program ever compiled
#: (the session's plan LRU is the real working-set bound; these caps only
#: keep the sharing substrate from growing without limit).
_MAX_PROGRAMS = 512
_MAX_MEMO_OPS = 8192


class _CompileCache:
    """Per-store compiler state, invalidated by the store version.

    Holds one :class:`_Compiler` (whose closed-subterm memo makes equal
    subtrees share operator nodes across *all* programs compiled against
    this snapshot) and the finished programs keyed on the term itself —
    re-preparing a logically identical query costs one hash lookup.
    Both sides are bounded: programs evict least-recently-compiled past
    ``_MAX_PROGRAMS``, and the subterm memo is dropped wholesale past
    ``_MAX_MEMO_OPS`` (later compilations just rebuild their sharing).
    """

    __slots__ = ("version", "compiler", "programs")

    def __init__(self, store: RelationalStore):
        self.version = store.version
        self.compiler = _Compiler(store)
        self.programs: "OrderedDict[RaTerm, CompiledProgram]" = OrderedDict()


_CACHES: "WeakKeyDictionary[RelationalStore, _CompileCache]" = (
    WeakKeyDictionary()
)


def _cache_for(store: RelationalStore) -> _CompileCache:
    cache = _CACHES.get(store)
    if cache is None or cache.version != store.version:
        # Compilation only reads table *shapes* (column tuples), which
        # append-only writes cannot change — programs, and the node
        # sharing between them, stay valid across such deltas. Barrier
        # writes (new tables, replacements) rebuild as before.
        if cache is not None and store.delta_since(cache.version) is not None:
            cache.version = store.version
            return cache
        cache = _CompileCache(store)
        _CACHES[store] = cache
    return cache


def compile_term(term: RaTerm, store: RelationalStore) -> CompiledProgram:
    """Compile ``term`` (columns resolved against ``store``) to a program.

    Compilation is cached per store snapshot and keyed on the (interned)
    term; distinct terms compiled against the same snapshot share the
    operator nodes of their equal closed subtrees.
    """
    cache = _cache_for(store)
    program = cache.programs.get(term)
    if program is not None:
        cache.programs.move_to_end(term)
        return program
    root = cache.compiler.compile(term, {})
    scans = sorted(
        {op.table for op in root.walk() if isinstance(op, ScanOp)}
    )
    program = CompiledProgram(root, root.columns, tuple(scans), term)
    cache.programs[term] = program
    if len(cache.programs) > _MAX_PROGRAMS:
        cache.programs.popitem(last=False)
    cache.compiler.trim(_MAX_MEMO_OPS)
    return program


def render_program(program: CompiledProgram) -> str:
    return program.render()


def _is_linear(term: RaTerm, var: str) -> bool:
    count = sum(
        1 for node in term.walk() if isinstance(node, Var) and node.name == var
    )
    return count == 1


class _Compiler:
    def __init__(self, store: RelationalStore):
        # Weak, so the per-store cache entry in ``_CACHES`` (which holds
        # this compiler) cannot pin its own key alive forever; callers
        # always hold the store while compiling against it.
        self._store_ref = weakref.ref(store)
        self._memo: dict[RaTerm, PhysOp] = {}

    @property
    def store(self) -> RelationalStore:
        store = self._store_ref()
        if store is None:  # pragma: no cover - caller always holds the store
            raise ReferenceError("the compiled store no longer exists")
        return store

    def trim(self, max_ops: int) -> None:
        """Drop the subterm memo once it outgrows ``max_ops`` entries.

        Sharing between *future* compilations restarts from empty; nodes
        already woven into cached programs stay shared through those
        programs' references.
        """
        if len(self._memo) > max_ops:
            self._memo.clear()

    def compile(
        self, term: RaTerm, var_env: dict[str, tuple[str, ...]]
    ) -> PhysOp:
        # Mirror the evaluator's memo: only closed terms are shared — a
        # term under a fixpoint compiles against its binding's columns.
        # Terms are interned, so keying on the term makes equal subtrees
        # from different queries share one operator node.
        cacheable = not isinstance(term, Var) and not term.free_vars()
        if cacheable:
            hit = self._memo.get(term)
            if hit is not None:
                return hit
        op = self._compile(term, var_env)
        if cacheable:
            self._memo[term] = op
        return op

    def _compile(
        self, term: RaTerm, var_env: dict[str, tuple[str, ...]]
    ) -> PhysOp:
        closed = not term.free_vars()
        if isinstance(term, Rel):
            stored = self.store.table(term.name).columns
            if term.projection is None or term.projection == stored:
                return ScanOp(stored, closed, term.name, None, False)
            indices = [stored.index(c) for c in term.projection]
            # Projection is injective (no duplicate rows possible) exactly
            # when the kept names still cover every source column.
            dedup = set(term.projection) != set(stored)
            return ScanOp(term.projection, closed, term.name, indices, dedup)
        if isinstance(term, Var):
            bound = var_env.get(term.name, term.var_columns)
            return VarOp(bound, False, term.name)
        if isinstance(term, Project):
            child = self.compile(term.child, var_env)
            indices = [child.columns.index(c) for c in term.keep]
            dedup = set(term.keep) != set(child.columns)
            return ProjectOp(term.keep, closed, child, indices, dedup)
        if isinstance(term, Rename):
            child = self.compile(term.child, var_env)
            mapping = dict(term.mapping)
            renamed = tuple(mapping.get(c, c) for c in child.columns)
            return RenameOp(renamed, closed, child)
        if isinstance(term, SelectEq):
            child = self.compile(term.child, var_env)
            return SelectEqOp(
                child.columns,
                closed,
                child,
                child.columns.index(term.column_a),
                child.columns.index(term.column_b),
            )
        if isinstance(term, Join):
            left = self.compile(term.left, var_env)
            right = self.compile(term.right, var_env)
            shared = tuple(c for c in left.columns if c in right.columns)
            out = left.columns + tuple(
                c for c in right.columns if c not in left.columns
            )
            layout = [
                (0, left.columns.index(c))
                if c in left.columns
                else (1, right.columns.index(c))
                for c in out
            ]
            return JoinOp(
                out,
                closed,
                left,
                right,
                shared,
                [left.columns.index(c) for c in shared],
                [right.columns.index(c) for c in shared],
                layout,
            )
        if isinstance(term, RaUnion):
            left = self.compile(term.left, var_env)
            right = self.compile(term.right, var_env)
            if set(left.columns) != set(right.columns):
                raise EvaluationError(
                    f"union arms disagree on columns: "
                    f"{left.columns} vs {right.columns}"
                )
            perm = None
            if right.columns != left.columns:
                perm = [right.columns.index(c) for c in left.columns]
            return UnionOp(left.columns, closed, left, right, perm)
        if isinstance(term, Fix):
            base = self.compile(term.base, var_env)
            step_env = dict(var_env)
            step_env[term.var] = base.columns
            step = self.compile(term.step, step_env)
            if set(step.columns) != set(base.columns):
                raise EvaluationError(
                    f"fixpoint step columns {step.columns} disagree with "
                    f"base columns {base.columns}"
                )
            perm = None
            if step.columns != base.columns:
                perm = [step.columns.index(c) for c in base.columns]
            return FixOp(
                base.columns,
                closed,
                term.var,
                base,
                step,
                perm,
                _is_linear(term.step, term.var),
                source=term,
            )
        raise EvaluationError(f"unknown RA term {term!r}")


def _render(op: PhysOp, indent: int, seen: set[int]) -> str:
    pad = "  " * indent
    line = pad + op.label()
    if id(op) in seen:
        return line + "  (shared, shown above)"
    seen.add(id(op))
    parts = [line]
    parts.extend(_render(child, indent + 1, seen) for child in op.children())
    return "\n".join(parts)
