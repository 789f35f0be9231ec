"""Incremental maintenance of cached columnar results under appends.

A cached ``vec`` result is the output of a program of monotone µ-RA
operators. When the store takes an *append-only* write
(:meth:`RelationalStore.delta_since` returns the added rows), the new
output is a superset of the cached one, and :func:`maintain_program`
computes only what it gained: one bottom-up **delta pass**
(:meth:`_MaintainRunner._delta`), memoised per closed operator, that
returns the rows an operator's output gained, or nothing:

* a changed scan yields its appended rows, a recursion variable nothing
  (it is bound to the previous total ``R₀``),
* project / rename / select map over the child's delta, a union unions
  its children's deltas,
* a join yields ``ΔL ⋈ R_new ∪ L_new ⋈ ΔR``, where a full sibling is
  taken from the runner's ordinary memoised evaluation *only if the
  other side's delta is non-empty* — a plan whose changed scans gained
  nothing that joins evaluates next to nothing,
* a closed fixpoint whose previous total was captured
  (:class:`~repro.engine.cache.CachedResult` keeps the kernel-native
  tables of integer codes — codes survive appends because the
  dictionary encoding is append-only) yields the rows its total gained.

Soundness is multilinearity: outside fixpoints every operator is
multilinear in its changed leaves, so ``new(L ⋈ R) \\ old(L ⋈ R) ⊆
ΔL ⋈ R_new ∪ L_new ⋈ ΔR``. Every delta is a subset of the operator's
new output; where it is a superset of the gained rows (an appended row
that projects onto an old one), the membership states built from the
previous answer and fixpoint totals filter it. Every concat is followed
by ``distinct``, so each delta is a duplicate-free table.

A seeded fixpoint restarts semi-naive iteration from ``R₀``: every
operator is monotone, so ``R₀ = lfp(F_old) ⊆ lfp(F_new)``, and Kleene
iteration restarted from any sound point converges to exactly
``lfp(F_new)``. Its round-0 frontier must cover ``F_new(R₀) \\ R₀``; it
is the same delta pass over the fixpoint's arms with the variable bound
to ``R₀`` (``F_old(R₀) ⊆ R₀`` because ``R₀`` is a fixpoint of the old
operator). A changed fixpoint *without* a captured total (an open
nested fixpoint) is not multilinear: it is evaluated in full against
the new tables and its whole output stands in for its delta — still
exact, just not O(delta).

With the previous coded answer supplied, the maintained answer is that
table with the coded rows the write added appended — the whole run is
O(delta + vectorized membership), whether or not the plan kept a
fixpoint, and no row is decoded at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.compile import (
    CompiledProgram,
    FixOp,
    JoinOp,
    PhysOp,
    ProjectOp,
    RenameOp,
    ScanOp,
    SelectEqOp,
    UnionOp,
    VarOp,
)
from repro.exec.dictionary import encoding_for
from repro.exec.executor import ExecutionStats, _NO_BUDGET, _Runner
from repro.exec.result import ResultSet
from repro.graph.evaluator import EvalBudget
from repro.storage.relational import RelationalStore

#: Every operator the maintenance runner understands. All are monotone,
#: which the delta pass and the seeded restart require; an unknown
#: operator kind added later makes ``maintainable`` refuse rather than
#: corrupt.
_SUPPORTED_OPS = (
    ScanOp,
    VarOp,
    ProjectOp,
    RenameOp,
    SelectEqOp,
    JoinOp,
    UnionOp,
    FixOp,
)

_UNSET = object()


def maintainable(program: CompiledProgram) -> bool:
    """Can a cached answer of ``program`` be maintained under appends?

    Requires every operator to be a known monotone kind. A fixpoint is
    not required: a rewritten (fixpoint-free) plan is maintained by the
    same delta pass, from its cached answer alone.
    """
    return all(isinstance(op, _SUPPORTED_OPS) for op in program.root.walk())


@dataclass
class MaintenanceOutcome:
    """Result of one incremental maintenance run.

    ``fix_states`` and ``answer.table`` are kernel-native coded tables,
    ready to seed the *next* maintenance round without any conversion.
    """

    answer: ResultSet
    fix_states: dict
    stats: ExecutionStats


def maintain_program(
    program: CompiledProgram,
    store: RelationalStore,
    deltas: dict[str, frozenset],
    fix_states: dict,
    head: tuple[str, ...] | None = None,
    kernel=None,
    budget: EvalBudget | None = None,
    prev: ResultSet | None = None,
) -> MaintenanceOutcome:
    """Bring a cached result of ``program`` up to ``store``'s version.

    ``deltas`` is the store's append delta since the cached version and
    ``fix_states`` the captured fixpoint totals (kernel-native, produced
    by the *same* kernel that runs here — see
    :data:`~repro.exec.executor.CAPTURE_KERNEL`; empty for a
    fixpoint-free plan). When ``prev`` is the entry's answer, the new
    output is its coded table with the rows of the root's delta it does
    not hold yet appended — every operator is monotone, so the new
    output is a superset of the old. Without ``prev`` the root is
    evaluated in full over the seeded fixpoints. Nothing is decoded and
    no captured table is ever written to: an answer handed out before
    keeps its rows, a run that aborts leaves the entry's tables as they
    were, and a run that adds no row hands back ``prev`` itself. The
    outcome's ``fix_states`` are the given ones with every fixpoint the
    run entered replaced by its new total. Exactness relies on
    monotonicity only, so the outcome always equals a cold
    recomputation.
    """
    if kernel is None:
        from repro.exec.kernels import default_kernel

        kernel = default_kernel()
    encoding = encoding_for(store)  # folds the delta into the snapshot
    runner = _MaintainRunner(
        program, encoding, kernel, budget or _NO_BUDGET, deltas, fix_states
    )
    columns = program.columns
    head_indices = (
        [columns.index(column) for column in head]
        if head is not None and head != columns
        else None
    )
    if prev is not None:
        # Only what the root gained is evaluated, O(write delta), and
        # filtered against a membership state built from the previous
        # answer.
        table = prev.table
        delta_out = runner._delta(program.root, {})
        if delta_out is not None:
            if head_indices is not None:
                delta_out = kernel.select_columns(delta_out, head_indices)
            domain = runner.domain
            _, state = kernel.difference(table, kernel.empty_state(), domain)
            added, _ = kernel.difference(delta_out, state, domain)
            if kernel.nrows(added):
                table = kernel.concat(table, added)
    else:
        table = runner.run(program)
        if head_indices is not None:
            table = kernel.select_columns(table, head_indices)
    runner.stats.delta_rows_applied += runner.delta_rows
    values = encoding.dictionary.values
    if prev is not None and prev.table is table and prev.values is values:
        answer = prev  # no row added: the object keeps its JSON text
    else:
        answer = ResultSet(table, values)
    return MaintenanceOutcome(
        answer=answer,
        fix_states={**fix_states, **runner.fix_states(program)},
        stats=runner.stats,
    )


class _MaintainRunner(_Runner):
    """A :class:`_Runner` that also evaluates operator *deltas*, and
    whose fixpoints restart from cached totals."""

    def __init__(self, program, encoding, kernel, budget, deltas, fix_states):
        # The superclass encodes every scanned table in full first, so
        # all delta values are interned and the packing domain is frozen
        # before the delta rows are re-encoded below.
        super().__init__([program], encoding, kernel, budget)
        self._fix_states = fix_states
        self._delta_tables: dict[str, object] = {}
        #: id(closed op) -> its memoised delta (None: gained nothing).
        self._delta_memo: dict[int, object] = {}
        self._changed_memo: dict[int, bool] = {}
        #: id(FixOp) -> rows its maintained total gained over the seed,
        #: recorded as each seeded fixpoint evaluates.
        self._fix_gained: dict[int, object] = {}
        self.delta_rows = 0
        encode = encoding.dictionary.encode
        for name in program.scan_tables:
            rows = deltas.get(name)
            if not rows:
                continue
            width = len(encoding.table(name).columns)
            coded = [tuple(encode(value) for value in row) for row in rows]
            self._delta_tables[name] = kernel.from_rows(coded, width)
            self.delta_rows += len(coded)

    def _delta(self, op: PhysOp, env: dict):
        """The rows ``op``'s output gained over the cached run (a
        duplicate-free subset of its new output that covers them), or
        None when it gained nothing. ``env`` binds recursion variables
        to previous totals, which gained nothing by definition."""
        if not self._changed(op):
            return None  # not entered: nothing below it was appended to
        if op.closed:
            hit = self._delta_memo.get(id(op), _UNSET)
            if hit is not _UNSET:
                return hit
        if isinstance(op, FixOp):
            # A seeded fixpoint records what its total gained as it
            # evaluates. One with no captured total to restart from (an
            # open nested fixpoint) is not multilinear: its whole new
            # output stands in, a sound superset of what it gained.
            total = self._eval(op, env)
            gained = self._fix_gained.get(id(op), total)
        else:
            gained = self._metered(op, self._delta_uncached, env)
        if gained is not None and not self.kernel.nrows(gained):
            gained = None
        if op.closed:
            self._delta_memo[id(op)] = gained
        return gained

    def _delta_uncached(self, op: PhysOp, env: dict):
        kernel = self.kernel
        if isinstance(op, ScanOp):
            table = self._delta_tables[op.table]
            if op.indices is None:
                return table
            return self._project(table, op.indices, op.dedup)
        if isinstance(op, JoinOp):
            left = self._delta(op.left, env)
            right = self._delta(op.right, env)
            key = (op.left_key, op.right_key, op.layout, self.domain)
            parts = []
            if left is not None:
                parts.append(
                    kernel.join(left, self._eval(op.right, env), *key)
                )
            if right is not None:
                parts.append(
                    kernel.join(self._eval(op.left, env), right, *key)
                )
            return self._union(parts, len(op.columns))
        if isinstance(op, UnionOp):
            right = self._delta(op.right, env)
            if right is not None and op.right_perm is not None:
                right = kernel.select_columns(right, op.right_perm)
            return self._union(
                [self._delta(op.left, env), right], len(op.columns)
            )
        child = self._delta(op.child, env)
        if child is None or isinstance(op, RenameOp):
            return child
        if isinstance(op, SelectEqOp):
            return kernel.select_eq(child, op.index_a, op.index_b)
        return self._project(child, op.indices, op.dedup)  # ProjectOp

    def _union(self, parts: list, width: int):
        """The distinct rows of the non-empty ``parts``, None for none:
        two parts can derive the same row, one part cannot."""
        parts = [part for part in parts if part is not None]
        if len(parts) <= 1:
            return parts[0] if parts else None
        return self.kernel.distinct(
            self.kernel.concat_many(parts, width), self.domain
        )

    def _eval_fixpoint(self, op: FixOp, env: dict):
        total = (
            self._fix_states.get(op.source)
            if op.closed and op.source is not None
            else None
        )
        if total is None:
            return super()._eval_fixpoint(op, env)
        kernel = self.kernel
        # Round-0 frontier: what each arm gained with the variable bound
        # to the previous total.
        step_env = dict(env)
        step_env[op.var] = total
        stepped = self._delta(op.step, step_env)
        if stepped is not None and op.step_perm is not None:
            stepped = kernel.select_columns(stepped, op.step_perm)
        frontier = self._union(
            [self._delta(op.base, env), stepped], len(op.columns)
        )
        gained = None
        if frontier is not None:
            # The state is this run's own, built from the total: the
            # captured table is never written to, so a run that aborts
            # leaves the cached entry as it was.
            _, state = kernel.difference(
                total, kernel.empty_state(), self.domain
            )
            delta, state = kernel.difference(frontier, state, self.domain)
            # Everything beyond the seed is this fixpoint's own delta,
            # collected at O(gained) instead of re-diffing the total.
            total, rounds = self._iterate_fixpoint(
                op, env, state, total, delta
            )
            gained = kernel.concat_many(rounds, len(op.columns))
        self._fix_gained[id(op)] = gained
        return total

    def _changed(self, op: PhysOp) -> bool:
        """Does a scan of an appended-to table sit at or below ``op``?"""
        hit = self._changed_memo.get(id(op))
        if hit is None:
            if isinstance(op, ScanOp):
                hit = op.table in self._delta_tables
            else:
                hit = any(self._changed(child) for child in op.children())
            self._changed_memo[id(op)] = hit
        return hit
