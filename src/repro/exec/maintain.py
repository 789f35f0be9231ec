"""Incremental maintenance of cached fixpoint results under appends.

A cached ``vec`` result is a materialised least fixpoint. When the store
takes an *append-only* write (:meth:`RelationalStore.delta_since`
returns the added rows), the cached result ``R₀`` is a sound starting
point for the **new** fixpoint: every µ-RA operator is monotone, so
``R₀ = lfp(F_old) ⊆ lfp(F_new)``, and Kleene iteration restarted from
any sound point converges to exactly ``lfp(F_new)``.

:func:`maintain_program` therefore re-seeds the semi-naive executor:
each closed fixpoint whose previous total was captured
(:class:`~repro.engine.cache.CachedResult` stores the kernel-native
tables of integer codes — codes survive appends because the dictionary
encoding is append-only) restarts with ``total = R₀`` and a *round-0
frontier* derived from the delta instead of from scratch. When the
previous coded output table is supplied too, the maintained answer is
that table with the coded rows the write added appended — the whole
maintenance run is then O(delta + vectorized membership), and no row
is decoded at all.

The frontier must cover ``F_new(R₀) \\ R₀``. Outside nested fixpoints
every operator is multilinear in its scan occurrences, so the frontier
is the union of per-occurrence *delta variants*: for each occurrence of
a changed scan, clone the operator path from the fixpoint arm down to
that occurrence and replace only it with an :class:`DeltaScanOp` over
the appended rows — every other scan reads the full new table and the
recursion variable reads ``R₀``. The ``S = ∅`` monomial (all occurrences
old) is ``⊆ R₀`` because ``R₀`` is a fixpoint of the old operator, and
every mixed monomial is dominated by the variant of one of its changed
occurrences — so variants ∪ ``R₀`` cover the full frontier at O(delta)
evaluation cost. Arms whose subtree contains a changed scan *inside a
nested fixpoint* are not multilinear; those fall back to one full
evaluation of the arm against the new tables (still exact — just one
non-delta round).
"""

from __future__ import annotations

import dataclasses
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


@dataclass
class DeltaScanOp(PhysOp):
    """Scan only the rows appended to a table since the cached version."""

    table: str
    indices: list[int] | None
    dedup: bool

    def label(self) -> str:  # pragma: no cover - debug rendering only
        return f"AppendScan Δ{self.table}"


@dataclass
class _TableOp(PhysOp):
    """A leaf yielding an already-materialised kernel table — stands in
    for a maintained fixpoint's *delta* in root-scope variants."""

    value: object

    def label(self) -> str:  # pragma: no cover - debug rendering only
        return "FixpointΔ"


#: Child attribute names per operator kind, for cloning one operator
#: path per changed-scan occurrence. ``FixOp`` is deliberately absent:
#: variants never reach through a nested fixpoint (not multilinear).
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    ProjectOp: ("child",),
    RenameOp: ("child",),
    SelectEqOp: ("child",),
    JoinOp: ("left", "right"),
    UnionOp: ("left", "right"),
}

#: Every operator the maintenance runner understands. All are monotone,
#: which the seeded-restart argument requires; an unknown operator kind
#: added later makes ``maintainable`` refuse rather than corrupt.
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


def maintainable(program: CompiledProgram, fix_states: dict | None) -> bool:
    """Can ``program``'s cached result be maintained from ``fix_states``?

    Requires every operator to be a known monotone kind and at least one
    closed fixpoint with a captured previous total — without a seeded
    fixpoint, maintenance would be an ordinary recomputation and the
    caller should just invalidate.
    """
    if not fix_states:
        return False
    ops = program.root.walk()
    if not all(isinstance(op, _SUPPORTED_OPS) for op in ops):
        return False
    return any(
        isinstance(op, FixOp) and op.closed and op.source in fix_states
        for op in ops
    )


@dataclass
class MaintenanceOutcome:
    """Result of one incremental maintenance run.

    ``fix_states`` and ``answer.table`` are kernel-native coded tables,
    ready to seed the *next* maintenance round without any conversion.
    ``seen`` is ``(membership state of answer.table, packing domain)``
    when the run kept one.
    """

    answer: ResultSet
    fix_states: dict
    stats: ExecutionStats
    seen: tuple | None = None


def maintain_program(
    program: CompiledProgram,
    store: RelationalStore,
    deltas: dict[str, frozenset],
    fix_states: dict,
    head: tuple[str, ...] | None = None,
    kernel=None,
    budget: EvalBudget | None = None,
    prev: ResultSet | None = None,
    prev_seen: tuple | None = None,
) -> MaintenanceOutcome:
    """Bring a cached result of ``program`` up to ``store``'s version.

    ``deltas`` is the store's append delta since the cached version and
    ``fix_states`` the captured ``(total, state, domain)`` fixpoint
    triples (kernel-native, produced by the *same* kernel that runs
    here — see :data:`~repro.exec.executor.CAPTURE_KERNEL`). When
    ``prev`` is the entry's answer, the new output is its coded table
    with the newly-derived coded rows appended —
    every operator is monotone, so the new output is a superset of the
    old. ``prev_seen`` is the ``seen`` pair of the previous outcome; it
    saves rebuilding the output's membership state. Nothing is decoded
    and the previous table is never written to: an answer handed out
    before keeps its rows. Exactness relies on monotonicity only, so the
    outcome always equals a cold recomputation.
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
    domain = runner.domain
    seen = None
    prev_output = prev.table if prev is not None else None
    delta_out = (
        runner.root_delta(program) if prev_output is not None else None
    )
    if delta_out is not None:
        # Root-scope delta propagation: only the new monomials were
        # evaluated, so ``delta_out`` is O(write delta). It is filtered
        # against the output's membership state, which is carried from
        # run to run and rebuilt only when new values moved the packing
        # domain. Updating that state is the last step that can fail, so
        # an aborted run leaves the cached pair consistent.
        if head_indices is not None:
            delta_out = kernel.select_columns(delta_out, head_indices)
        if prev_seen is not None and prev_seen[1] == domain:
            state = prev_seen[0]
        else:
            _, state = kernel.difference(
                prev_output, kernel.empty_state(), domain
            )
        added, state = kernel.difference(delta_out, state, domain)
        table = (
            kernel.concat(prev_output, added)
            if kernel.nrows(added)
            else prev_output
        )
        seen = (state, domain)
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
        fix_states=runner.fix_states(program),
        stats=runner.stats,
        seen=seen,
    )


class _MaintainRunner(_Runner):
    """A :class:`_Runner` whose fixpoints restart from cached totals."""

    def __init__(self, program, encoding, kernel, budget, deltas, fix_states):
        # The superclass encodes every scanned table in full first, so
        # all delta values are interned and the packing domain is frozen
        # before the delta rows are re-encoded below.
        super().__init__([program], encoding, kernel, budget)
        self._fix_states = fix_states
        self._delta_tables: dict[str, object] = {}
        #: id(FixOp) -> rows its maintained total gained over the seed,
        #: recorded as each seeded fixpoint evaluates — the "changed
        #: leaf" inputs of root-scope delta propagation.
        self.fix_deltas: dict[int, object] = {}
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

    def _eval_uncached(self, op: PhysOp, env: dict):
        if isinstance(op, DeltaScanOp):
            kernel = self.kernel
            table = self._delta_tables[op.table]
            if op.indices is not None:
                table = kernel.select_columns(table, op.indices)
                if op.dedup:
                    table = kernel.distinct(table, self.domain)
            return table
        if isinstance(op, _TableOp):
            return op.value
        return super()._eval_uncached(op, env)

    # -- root-scope delta propagation --------------------------------------
    def root_delta(self, program):
        """The rows ``program``'s output gained, or None when the root
        cannot be maintained incrementally.

        The operators above the fixpoints are multilinear in their
        changed leaves — changed scans and maintained fixpoints — so the
        gained rows are covered by one variant per changed-leaf
        occurrence, each evaluated at O(leaf delta). Requires every
        changed root-scope fixpoint to be seeded (its delta is known);
        otherwise the caller falls back to one full root evaluation.
        """
        root = program.root
        if not self._root_scope_ok(root):
            return None
        kernel = self.kernel
        # Materialise (and memoise) the root-scope fixpoints first: the
        # variants reference their totals, and the seeded evaluations
        # record the deltas the variants substitute.
        for op in self._root_scope_fixops(root):
            self._eval(op, {})
        parts = [
            self._eval(variant, {})
            for variant in self._variants(root)
        ]
        # Two variants can derive the same row; one variant cannot.
        return kernel.distinct(
            kernel.concat_many(parts, len(program.columns)), self.domain
        )

    def _root_scope_ok(self, tree: PhysOp) -> bool:
        if isinstance(tree, FixOp):
            if not self._subtree_changed(tree):
                return True
            return (
                tree.closed
                and tree.source is not None
                and self._fix_states.get(tree.source) is not None
            )
        return all(
            self._root_scope_ok(child) for child in tree.children()
        )

    def _root_scope_fixops(self, tree: PhysOp):
        if isinstance(tree, FixOp):
            yield tree
            return
        for child in tree.children():
            yield from self._root_scope_fixops(child)

    def _variants(self, tree: PhysOp) -> list[PhysOp]:
        """One cloned operator path per changed-leaf occurrence, where a
        leaf is a changed scan or a maintained fixpoint that gained rows
        (under a fixpoint arm that is :meth:`_variant_safe` no fixpoint
        gained any). Clones carry ``closed=False`` so they are never
        memoised — their transient ids must not alias a collected
        node's memo slot."""
        if isinstance(tree, ScanOp):
            if tree.table in self._delta_tables:
                return [
                    DeltaScanOp(
                        tree.columns,
                        False,
                        tree.table,
                        tree.indices,
                        tree.dedup,
                    )
                ]
            return []
        if isinstance(tree, FixOp):
            delta = self.fix_deltas.get(id(tree))
            if delta is None or not self.kernel.nrows(delta):
                return []
            return [_TableOp(tree.columns, False, delta)]
        variants: list[PhysOp] = []
        for field_name in _CHILD_FIELDS.get(type(tree), ()):
            child = getattr(tree, field_name)
            for cloned in self._variants(child):
                variants.append(
                    dataclasses.replace(
                        tree, closed=False, **{field_name: cloned}
                    )
                )
        return variants

    def _eval_fixpoint(self, op: FixOp, env: dict):
        seed = (
            self._fix_states.get(op.source)
            if op.closed and op.source is not None
            else None
        )
        if seed is None:
            return super()._eval_fixpoint(op, env)
        kernel = self.kernel
        # ``seed`` is (total, state, domain) from the previous run. When
        # the write interned no new values the packing domain is
        # unchanged and the converged membership state can be resumed
        # as-is; otherwise only the state is rebuilt at today's domain.
        seed_total, seed_state, seed_domain = seed
        if seed_state is not None and seed_domain == self.domain:
            if isinstance(seed_state, set):
                # Set-based states (pure-Python kernel, unpackable-width
                # rows) are mutated in place by ``difference`` — resume
                # from a copy so the cached entry stays intact if this
                # run aborts mid-way.
                seed_state = set(seed_state)
            total, state = seed_total, seed_state
        else:
            total, state = kernel.difference(
                seed_total, kernel.empty_state(), self.domain
            )
        # Round-0 frontier: per changed arm, either the union of the
        # per-occurrence delta variants (O(delta)) or — when a changed
        # scan hides inside a nested fixpoint — one full evaluation of
        # the arm against the new tables.
        parts = []
        for tree, is_step in ((op.base, False), (op.step, True)):
            if not self._subtree_changed(tree):
                continue  # unchanged arm: its contribution is ⊆ total
            if is_step:
                use_env = dict(env)
                use_env[op.var] = total
            else:
                use_env = env
            if self._variant_safe(tree):
                produced = [
                    self._eval(variant, use_env)
                    for variant in self._variants(tree)
                ]
            else:
                produced = [self._eval(tree, use_env)]
            if is_step and op.step_perm is not None:
                produced = [
                    kernel.select_columns(part, op.step_perm)
                    for part in produced
                ]
            parts.extend(produced)
        if not parts:
            self.fix_deltas[id(op)] = kernel.empty(len(op.columns))
            self.fix_final_states[id(op)] = state
            return total
        frontier = parts[0]
        if len(parts) > 1:
            # Two variants can derive the same row; one variant cannot.
            frontier = kernel.distinct(
                kernel.concat_many(parts, len(op.columns)), self.domain
            )
        delta, state = kernel.difference(frontier, state, self.domain)
        total = kernel.concat(total, delta)
        # Semi-naive iteration as in :meth:`_iterate_fixpoint`, but the
        # per-round deltas are also accumulated: everything beyond the
        # seed is this fixpoint's contribution to root-scope delta
        # propagation, collected at O(gained) instead of re-diffing the
        # whole total afterwards.
        gained = delta
        while kernel.nrows(delta):
            self.budget.check_now()
            produced = self._step(op, env, delta if op.linear else total)
            delta, state = kernel.difference(produced, state, self.domain)
            total = kernel.concat(total, delta)
            gained = kernel.concat(gained, delta)
        self.fix_deltas[id(op)] = gained
        self.fix_final_states[id(op)] = state
        return total

    def _subtree_changed(self, tree: PhysOp) -> bool:
        changed = self._delta_tables
        return any(
            isinstance(node, ScanOp) and node.table in changed
            for node in tree.walk()
        )

    def _variant_safe(self, tree: PhysOp) -> bool:
        """Is ``tree`` multilinear in its changed scans?

        True unless a changed scan sits under a nested fixpoint —
        fixpoints are monotone but not multilinear, so delta variants
        cannot reach through them.
        """
        if isinstance(tree, FixOp):
            return not self._subtree_changed(tree)
        return all(self._variant_safe(child) for child in tree.children())
