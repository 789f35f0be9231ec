"""Execute compiled columnar programs against an encoded store.

Evaluation is batch-at-a-time: every operator consumes and produces whole
tables of integer-code columns through one of the
:mod:`repro.exec.kernels` implementations. Fixpoints run semi-naive
iteration over *delta frontiers* — each round binds the recursion
variable to only the rows discovered in the previous round and the
round's output is set-differenced against the accumulated state with one
vectorized membership test (falling back to naive iteration for
non-linear steps); the frontiers are stacked into the total once, when
the fixpoint converges. On the numpy kernel a round packs and sorts its
output once: the step's closing ``distinct`` dedups by sorting the
packed row key and leaves that key on its table, and ``difference``
tests it against the state (sorted runs of packed keys). The key is
scratch, charged to no budget, so it is released from every table the
runner keeps (the memo, and with it answers and fix captures). So is
the state: it lives as long as its fixpoint's iteration, and a fix
capture keeps the total alone.

Path concatenation compiles to ``ProjectOp(distinct)`` over a single-key
``JoinOp`` keeping one non-key column of each side; a kernel with the
optional ``compose`` hook runs that pair as one operation that never
materialises the join, which still counts as a join of its real size in
the stats and the budget.

A linear fixpoint whose step is such a composition of the recursion
variable with a closed relation ``S`` — ``X = B ∪ X/S`` or ``B ∪ S/X``,
the variable's kept column staying in its place — runs, on a kernel
with the optional ``closure`` hook, as one iteration over the closure's
own dense ids: ``S`` is laid out once and each round only expands the
frontier. Each round is still accounted as the loop would account it
(deadline check, ``kernel.op`` fault sites, operator counts, memo hits,
row ticks and byte charges, in the same order), the hook's time is join
time, and it ends in the same total, so fix captures and maintenance
see no difference. Everything else iterates the loop: the python
kernel, non-linear steps, steps that are not such a composition, and a
maintenance run resuming a cached fixpoint.

Such a closure of a stored relation ``R`` whose base is ``R`` itself
(renames aside) is a fact of the store: the hook's total is kept on
``R``'s encoding, and later executions read it as one scan of a stored
table until an append to ``R`` drops it. Seeded closures, and every
closure on the python kernel, are computed in every execution.

All base tables referenced by the program are dictionary-encoded up
front, so the value-id space is frozen for the whole execution — packed
multi-column keys stay stable across fixpoint rounds.

The executor honours the same cooperative
:class:`~repro.graph.evaluator.EvalBudget` as the other engines.

Batch execution (:func:`execute_batch_programs`) runs several compiled
programs through *one* runner: the scan manifest of the whole batch is
dictionary-encoded up front against a single frozen code domain, and the
closed-operator memo spans every program — because the compiler hands
equal closed subtrees the same operator node, a fixpoint or join shared
by many queries in the batch is materialised exactly once.

Every materialised operator output is charged against the budget's
``max_bytes`` ceiling (one int64 code per row and column): a run over
the cap raises :class:`~repro.errors.ResourceExhaustedError` on every
kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import NamedTuple

from repro.errors import EvaluationError
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
from repro.exec.dictionary import StoreEncoding, encoding_for
from repro.exec.kernels import default_kernel
from repro.exec.result import ResultSet
from repro.graph.evaluator import EvalBudget
from repro.testing.faults import fault_point
from repro.storage.relational import RelationalStore

_NO_BUDGET = EvalBudget(None)

#: Sentinel key a fix-capture dict carries alongside its Fix-term keys:
#: the kernel that produced every captured table (tables from one kernel
#: must not seed another).
CAPTURE_KERNEL = "__kernel__"


@dataclass
class ExecutionStats:
    """Operator-level counters for one (batch) execution.

    ``memo_hits`` counts closed operators whose materialised result was
    served from the shared memo instead of being recomputed — within one
    program (shared subtrees) and, for batch execution, across programs.
    ``result_cache_hits``/``result_cache_misses`` count whole queries the
    serving layer answered from (or had to add to) the result-set cache.

    The ``results_maintained``/``results_invalidated`` pair counts how
    stale result-cache entries were handled after store writes —
    incrementally maintained from the append delta vs evicted and
    recomputed. ``delta_rows_applied`` counts the delta rows folded into
    maintained results, and ``encoding_appends`` the rows appended to
    the store's dictionary encoding instead of triggering a rebuild.

    The ``*_rows`` counters are **actual cardinalities** per operator
    kind, counted as each operator materialises its output — the Q-error
    telemetry compares them with the cost model's estimates, and never
    feeds them back into a plan.

    The ``*_seconds`` counters are **exclusive** wall-clock time per
    operator kind — each operator's evaluation time minus the time its
    children spent, so the per-kind totals sum to (at most) the whole
    execution.
    """

    programs: int = 0
    ops_evaluated: int = 0
    memo_hits: int = 0
    # Tables the lazy store encoding has materialised; closures it keeps.
    tables_encoded: int = 0
    closures_kept: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    delta_rows_applied: int = 0
    results_maintained: int = 0
    results_invalidated: int = 0
    encoding_appends: int = 0
    scan_rows: int = 0
    join_rows: int = 0
    union_rows: int = 0
    select_rows: int = 0
    project_rows: int = 0
    fixpoint_rows: int = 0
    scan_seconds: float = 0.0
    join_seconds: float = 0.0
    union_seconds: float = 0.0
    select_seconds: float = 0.0
    project_seconds: float = 0.0
    fixpoint_seconds: float = 0.0
    # Resilience counters, stamped by the session's degradation loop:
    # extra execution attempts after a retryable failure, executions
    # answered by a backend other than the planned one, and circuit
    # breakers newly tripped open along the way.
    retries: int = 0
    degraded: int = 0
    breaker_opens: int = 0

    def operator_rows(self) -> dict[str, int]:
        """Actual output rows by operator kind (Q-error telemetry)."""
        return {
            "scan": self.scan_rows,
            "join": self.join_rows,
            "union": self.union_rows,
            "select": self.select_rows,
            "project": self.project_rows,
            "fixpoint": self.fixpoint_rows,
        }

    def merge(self, other: "ExecutionStats") -> None:
        # Total over every counter (``_COUNTERS``, read off the fields
        # once): a counter added to this class is merged, never dropped.
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


_COUNTERS = tuple(field_.name for field_ in fields(ExecutionStats))


def execute_program(
    program: CompiledProgram,
    store: RelationalStore,
    head: tuple[str, ...] | None = None,
    budget: EvalBudget | None = None,
    kernel=None,
    stats: ExecutionStats | None = None,
    fix_capture: dict | None = None,
) -> ResultSet:
    """Run ``program`` on ``store``; the head-ordered answer stays coded."""
    return execute_batch_programs(
        [program],
        store,
        heads=[head],
        budget=budget,
        kernel=kernel,
        stats=stats,
        fix_captures=None if fix_capture is None else [fix_capture],
    )[0]


class _ClosureShape(NamedTuple):
    """A fixpoint step the ``closure`` hook can run: the recursion
    variable (``chain``, the renames down to its :class:`VarOp`) joined
    to a closed ``relation`` on the relation's column ``key``; the
    variable's column ``fixed`` stays, the relation's ``column`` fills
    the other."""

    chain: list
    relation: PhysOp
    fixed: int
    key: int
    column: int


def execute_batch_programs(
    programs,
    store: RelationalStore,
    heads=None,
    budget: EvalBudget | None = None,
    kernel=None,
    stats: ExecutionStats | None = None,
    fix_captures: list | None = None,
) -> list[ResultSet]:
    """Run several compiled programs with shared encoding and shared memo.

    ``heads[i]`` optionally reorders program ``i``'s output columns
    (nothing is decoded: each answer owns its coded root). The
    programs should come from one store snapshot's compiler (the default:
    :func:`~repro.exec.compile.compile_term` caches per store version) so
    their equal closed subtrees are the *same* operator nodes; the
    runner's memo then materialises each shared node once for the whole
    batch. ``stats``, when given, accumulates operator counters.

    ``fix_captures[i]``, when a dict, receives, for every *closed*
    fixpoint in program ``i`` keyed by its source
    :class:`~repro.ra.terms.Fix` term, its materialised total as a
    kernel-native coded table, plus the kernel name under
    :data:`CAPTURE_KERNEL`. These are what the result cache stores
    beside the answer (which owns the head-ordered root table) so a
    later write can continue semi-naive iteration instead of
    recomputing. Capturing is O(1) per fixpoint: the tables are the
    runner's own materialisations, shared not copied.
    """
    kernel = kernel or default_kernel()
    encoding = encoding_for(store)
    programs = list(programs)
    heads = list(heads) if heads is not None else [None] * len(programs)
    if len(heads) != len(programs):
        raise ValueError(
            f"{len(programs)} program(s) but {len(heads)} head(s)"
        )
    runner = _Runner(programs, encoding, kernel, budget or _NO_BUDGET)
    values = encoding.dictionary.values
    results: list[ResultSet] = []
    if fix_captures is None:
        fix_captures = [None] * len(programs)
    for program, head, capture in zip(programs, heads, fix_captures):
        table = runner.run(program)
        columns = program.columns
        if head is not None and head != columns:
            table = kernel.select_columns(
                table, [columns.index(column) for column in head]
            )
        results.append(ResultSet(table, values))
        if capture is None:
            continue
        capture[CAPTURE_KERNEL] = kernel.NAME
        capture.update(runner.fix_states(program))
    if stats is not None:
        stats.merge(runner.stats)
    return results


class _Runner:
    def __init__(
        self,
        programs,
        encoding: StoreEncoding,
        kernel,
        budget: EvalBudget,
    ):
        self.encoding = encoding
        self.kernel = kernel
        self.budget = budget
        self.stats = ExecutionStats(programs=len(programs))
        self._memo: dict[int, object] = {}
        # Stack of accumulated child-evaluation seconds, one slot per
        # in-flight _eval frame: exclusive per-operator time is the
        # frame's elapsed wall clock minus what its children consumed.
        self._child_seconds: list[float] = []
        self._compose_kernel = getattr(kernel, "compose", None)
        self._closure_kernel = getattr(kernel, "closure", None)
        # Encode every table referenced anywhere in the batch before
        # executing: operators never intern new values, so the packing
        # domain is fixed from here on — across all programs.
        for program in programs:
            for name in program.scan_tables:
                encoding.table(name)
        self.domain = encoding.domain_size

    def run(self, program: CompiledProgram):
        return self._eval(program.root, {})

    def fix_states(self, program: CompiledProgram) -> dict:
        """The total of every closed fixpoint of ``program`` this runner
        materialised, keyed by its Fix term."""
        return {
            op.source: self._memo[id(op)]
            for op in program.root.walk()
            if isinstance(op, FixOp)
            and op.closed
            and op.source is not None
            and id(op) in self._memo
        }

    def _eval(self, op: PhysOp, env: dict):
        if op.closed:
            hit = self._memo.get(id(op))
            if hit is not None:
                self.stats.memo_hits += 1
                return hit
        scan, table, slot = self._stored_closure(op)
        kept = None if table is None else table.closure(slot)
        if kept is not None:  # read as one scan of its relation
            result = self._metered(scan, lambda *_: kept, env)
        else:
            result = self._metered(op, self._eval_uncached, env)
        if op.closed:
            # A memoised table outlives this operator (answers, fix
            # captures and the result cache are drawn from the memo), so
            # it must not pin the kernel's uncharged dedup scratch.
            self._memo[id(op)] = self.kernel.release(result)
        return result

    def _metered(self, op: PhysOp, compute, env: dict):
        """``compute(op, env)`` as one accounted operator evaluation:
        fault site, exclusive per-kind time and rows, budget ticks and
        byte charges. ``None`` (the maintenance runner's "no
        row gained") passes through uncounted."""
        fault_point("kernel.op")
        started = time.perf_counter()
        self._child_seconds.append(0.0)
        try:
            result = compute(op, env)
        finally:
            child = self._child_seconds.pop()
        elapsed = time.perf_counter() - started
        if self._child_seconds:
            self._child_seconds[-1] += elapsed
        if result is None:
            return None
        rows = self.kernel.nrows(result)
        self._count(op, rows, max(elapsed - child, 0.0))
        # Approximate bytes of this materialised intermediate: every
        # encoded column is one int64 code per row.
        self.budget.charge_bytes(rows * max(self.kernel.width(result), 1) * 8)
        return result

    def _count(self, op: PhysOp, rows: int, exclusive: float) -> None:
        """One evaluation of ``op`` with ``rows`` output rows, taking
        ``exclusive`` seconds of its own, in the stats and the budget."""
        self.stats.ops_evaluated += 1
        # Actual cardinalities and exclusive timings per operator kind:
        # what the Q-error telemetry compares with the estimates, and
        # the per-operator times the ledger reports.
        stats = self.stats
        if isinstance(op, ScanOp):
            stats.scan_rows += rows
            stats.scan_seconds += exclusive
        elif isinstance(op, JoinOp):
            stats.join_rows += rows
            stats.join_seconds += exclusive
        elif isinstance(op, UnionOp):
            stats.union_rows += rows
            stats.union_seconds += exclusive
        elif isinstance(op, SelectEqOp):
            stats.select_rows += rows
            stats.select_seconds += exclusive
        elif isinstance(op, ProjectOp):
            stats.project_rows += rows
            stats.project_seconds += exclusive
        elif isinstance(op, FixOp):
            stats.fixpoint_rows += rows
            stats.fixpoint_seconds += exclusive
        self.budget.tick(rows)

    def _eval_uncached(self, op: PhysOp, env: dict):
        kernel = self.kernel
        if isinstance(op, ScanOp):
            table = self.encoding.table(op.table).kernel_table(kernel)
            if op.indices is None:
                return table
            return self._project(table, op.indices, op.dedup)
        if isinstance(op, VarOp):
            bound = env.get(op.name)
            if bound is None:
                raise EvaluationError(
                    f"unbound recursion variable {op.name!r}"
                )
            return bound
        if isinstance(op, ProjectOp):
            sides = self._composition(op)
            if sides is not None:
                return self._compose(op.child, sides, env)
            return self._project(
                self._eval(op.child, env), op.indices, op.dedup
            )
        if isinstance(op, RenameOp):
            return self._eval(op.child, env)
        if isinstance(op, SelectEqOp):
            return kernel.select_eq(
                self._eval(op.child, env), op.index_a, op.index_b
            )
        if isinstance(op, JoinOp):
            return kernel.join(
                self._eval(op.left, env),
                self._eval(op.right, env),
                op.left_key,
                op.right_key,
                op.layout,
                self.domain,
            )
        if isinstance(op, UnionOp):
            left = self._eval(op.left, env)
            right = self._eval(op.right, env)
            if op.right_perm is not None:
                right = kernel.select_columns(right, op.right_perm)
            return kernel.distinct(kernel.concat(left, right), self.domain)
        if isinstance(op, FixOp):
            return self._eval_fixpoint(op, env)
        raise EvaluationError(f"unknown physical operator {op!r}")

    def _composition(self, op: ProjectOp):
        """``((side, key, column), (side, key, column))`` when ``op`` is
        ``distinct`` of one non-key column from each side of a single-key
        join the kernel can compose (in output order), else None. A
        closed join already in the memo is reused, not recomputed."""
        join = op.child
        if (
            self._compose_kernel is None
            or not op.dedup
            or not isinstance(join, JoinOp)
            or len(op.indices) != 2
            or len(join.left_key) != 1
            or id(join) in self._memo
        ):
            return None
        keys = (join.left_key[0], join.right_key[0])
        sides = [join.layout[index] for index in op.indices]
        if {side for side, _ in sides} != {0, 1} or (0, keys[0]) in sides:
            return None
        return tuple((side, keys[side], column) for side, column in sides)

    def _compose(self, join: JoinOp, sides, env: dict):
        """``distinct`` of ``sides`` of ``join``, through the kernel's
        ``compose``: the join is never materialised, but it still counts
        as an evaluated join of its real size — one ``kernel.op`` fault
        site, its rows in the stats and the budget's row ticks, its
        bytes charged — so budgets trip and ``ExecutionStats`` read as
        they would with the join run."""
        tables = (self._eval(join.left, env), self._eval(join.right, env))
        (outer, outer_key, outer_col), (inner, inner_key, inner_col) = sides
        fault_point("kernel.op")
        started = time.perf_counter()
        pairs, joined = self._compose_kernel(
            tables[outer], outer_key, outer_col,
            tables[inner], inner_key, inner_col,
            self.domain,
        )
        elapsed = time.perf_counter() - started
        self._child_seconds[-1] += elapsed
        self._count(join, joined, elapsed)
        self.budget.charge_bytes(joined * len(join.columns) * 8)
        return pairs

    def _project(self, table, indices: list[int], dedup: bool):
        table = self.kernel.select_columns(table, indices)
        return self.kernel.distinct(table, self.domain) if dedup else table

    def _step(self, op: FixOp, env: dict, frontier):
        step_env = dict(env)
        step_env[op.var] = frontier
        produced = self._eval(op.step, step_env)
        if op.step_perm is not None:
            produced = self.kernel.select_columns(produced, op.step_perm)
        return produced

    def _eval_fixpoint(self, op: FixOp, env: dict):
        kernel = self.kernel
        base = self._eval(op.base, env)
        state = kernel.empty_state()
        delta, state = kernel.difference(base, state, self.domain)
        shape = self._closure_shape(op)
        if shape is not None:
            closure = self._closure_kernel(delta, shape.fixed, self.domain)
            if closure is not None:
                total = self._close(op, env, shape, closure)
                _, table, slot = self._stored_closure(op)
                if table is None:
                    return total
                return table.keep_closure(slot, kernel, total)
        empty = kernel.empty(len(op.columns))
        return self._iterate_fixpoint(op, env, state, empty, delta)[0]

    def _closure_shape(self, op: FixOp) -> "_ClosureShape | None":
        """How the kernel's ``closure`` hook runs ``op``, or None when it
        cannot: ``op`` must be linear over two columns, its step a
        composition of the recursion variable with a closed relation that
        leaves the variable's kept column in its place."""
        if (
            self._closure_kernel is None
            or not op.linear
            or len(op.columns) != 2
            or not isinstance(op.step, ProjectOp)
        ):
            return None
        sides = self._composition(op.step)
        if sides is None:
            return None
        join = op.step.child
        children = (join.left, join.right)
        for out, (side, _, fixed) in enumerate(sides):
            chain = self._var_chain(children[side], op.var)
            if chain is not None:
                break
        else:
            return None
        side, key, column = sides[1 - out]
        placed = out if op.step_perm is None else op.step_perm.index(out)
        if placed != fixed or not children[side].closed:
            return None
        return _ClosureShape(chain, children[side], fixed, key, column)

    def _stored_closure(self, op: PhysOp) -> tuple:
        """``(scan, encoded table, slot)`` (else Nones) when ``op`` is a
        closure the hook runs whose base and step relation are both the
        unprojected ``scan``, renames aside: its total is kept at ``slot``."""
        none = (None, None, None)
        if not isinstance(op, FixOp) or not op.closed:
            return none
        scan = _unrenamed(op.base)
        if not isinstance(scan, ScanOp) or scan.indices is not None:
            return none
        shape = self._closure_shape(op)
        if shape is None or _unrenamed(shape.relation) is not scan:
            return none
        slot = (self.kernel.NAME, shape.fixed, shape.key, shape.column)
        return scan, self.encoding.table(scan.table), slot

    @staticmethod
    def _var_chain(op: PhysOp, var: str) -> list | None:
        """The renames from ``op`` down to a scan of ``var``, that scan
        last; None when ``op`` is anything else."""
        chain = []
        while isinstance(op, RenameOp):
            chain.append(op)
            op = op.child
        if not isinstance(op, VarOp) or op.name != var:
            return None
        return [*chain, op]

    def _close(self, op: FixOp, env: dict, shape: "_ClosureShape", closure):
        """Semi-naive iteration of a linear closure through the kernel's
        ``closure`` hook, accounted round by round as
        :meth:`_iterate_fixpoint` accounts it with the step run through
        ``compose``: the same deadline checks, ``kernel.op`` fault
        sites, operator counts, memo hits, row ticks and byte charges, in
        the same order. The hook's own time is join time."""
        step = op.step
        join = step.child
        row_bytes = len(op.columns) * 8
        while closure.rows:
            self.budget.check_now()
            fault_point("kernel.op")  # the step's ProjectOp
            for child in (join.left, join.right):
                if child is shape.relation:
                    relation = self._eval(child, env)
                    continue
                for node in shape.chain:  # the renames, then the VarOp
                    fault_point("kernel.op")
                for node in reversed(shape.chain):
                    self._count(node, closure.rows, 0.0)
                    self.budget.charge_bytes(closure.rows * row_bytes)
            fault_point("kernel.op")  # the join
            started = time.perf_counter()
            joined, produced = closure.step(relation, shape.key, shape.column)
            elapsed = time.perf_counter() - started
            self._child_seconds[-1] += elapsed
            self._count(join, joined, elapsed)
            self.budget.charge_bytes(joined * len(join.columns) * 8)
            self._count(step, produced, 0.0)
            self.budget.charge_bytes(produced * row_bytes)
        return closure.result()

    def _iterate_fixpoint(self, op: FixOp, env: dict, state, total, delta):
        """Semi-naive iteration from an arbitrary sound starting point.

        ``total`` is what the fixpoint already holds, ``delta`` the
        current frontier — rows not in ``total`` and not yet fed to the
        step — and ``state`` must contain both. Returns
        ``(total, rounds)``: the converged total and the frontiers it
        gained, ``delta`` first. Shared with the incremental maintenance
        runner, which seeds ``total`` with a previously materialised
        fixpoint and ``delta`` with the frontier derived from a store
        append.

        The frontiers are stacked once, at the end; only a non-linear
        step, which must see the whole accumulated relation, has the
        total rebuilt every round.
        """
        kernel = self.kernel
        width = len(op.columns)
        rounds = []
        while kernel.nrows(delta):
            self.budget.check_now()
            rounds.append(delta)
            if op.linear:  # semi-naive: only the frontier feeds the step
                frontier = delta
            else:
                total = frontier = kernel.concat_many([total, delta], width)
            produced = self._step(op, env, frontier)
            delta, state = kernel.difference(produced, state, self.domain)
        if op.linear:
            total = kernel.concat_many([total, *rounds], width)
        return total, rounds


def _unrenamed(op: PhysOp) -> PhysOp:
    while isinstance(op, RenameOp):
        op = op.child
    return op
