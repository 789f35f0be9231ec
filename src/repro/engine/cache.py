"""The session's caches: bounded LRU maps, and the result-set cache.

The rewrite cache, the plan cache and the (opt-in) result-set cache are
all :class:`LruCache` s. Keys always embed the session's schema
fingerprint, so a schema change invalidates entries *semantically* —
stale entries simply never hit again and age out of the LRU order.

:class:`ResultCache` alone knows how a cached answer stays fresh. Its
entries carry the store version they were computed at *inside the
value* (:class:`CachedResult`) rather than in the key: a stale entry is
found again after a write and **maintained** from the store's append
delta — re-stamped when the plan reads none of the changed tables, else
one delta pass over the columnar program, re-seeding the semi-naive
executor over the materialised fixpoint totals where the plan has
fixpoints — and evicted when no delta exists (barrier writes) or the
plan is not a maintainable columnar program.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, TypeVar

from repro.engine.backends import VecPlan
from repro.errors import InjectedFault
from repro.exec.executor import CAPTURE_KERNEL, ExecutionStats
from repro.exec.kernels import default_kernel, get_kernel
from repro.exec.maintain import maintain_program, maintainable
from repro.exec.result import ResultSet
from repro.graph.evaluator import EvalBudget, as_budget
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import PreparedQuery

V = TypeVar("V")

_MISSING = object()

#: Entries each keyed memo of a session keeps (parsed query texts,
#: telemetry estimates per executed term); a full memo is emptied.
MEMO_SIZE = 512


@dataclass
class CachedResult:
    """One result-set cache entry, maintainable in place.

    ``answer`` is what the entry serves — for ``ra``/``vec`` plans the
    head-ordered coded root, the cache's only form: a warm hit hands it
    out and decodes nothing. ``version`` is the store version it is
    valid at — a lookup at a newer version triggers maintenance or
    eviction. The answer is all a fixpoint-free plan needs to be
    maintained: the delta pass appends the coded rows the write added
    to its table. ``fix_states`` (None for a fixpoint-free plan) maps
    each closed fixpoint's source :class:`~repro.ra.terms.Fix` term to
    its materialised total as a *kernel-native* table of integer codes;
    a maintenance run replaces the totals of the fixpoints it entered
    and leaves the others as they are. Codes are domain-independent and
    survive append-only writes (the dictionary is append-only), so
    maintenance can seed the executor with these tables as-is, continue
    semi-naive iteration from where the cached execution converged and
    append the coded rows the write added. ``kernel_name`` records which
    kernel produced the tables; a lookup under a different kernel must
    not reuse them.
    """

    answer: ResultSet
    version: int
    fix_states: dict | None = None
    kernel_name: str | None = None


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one cache layer."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class LruCache:
    """A small LRU map that counts hits and misses.

    ``max_size <= 0`` disables storage (every lookup misses) — used to
    switch caching off without changing the calling code.
    """

    def __init__(self, max_size: int = 256):
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def peek(self, key: Hashable):
        """The cached value for ``key`` without counting the lookup.

        Used by the maintenance-aware result-cache flow: whether a found
        entry is a *hit* depends on whether it can be served (fresh or
        maintained), so the caller settles the counters afterwards with
        :meth:`count_hit`/:meth:`count_miss`.
        """
        value = self._data.get(key, _MISSING)
        return None if value is _MISSING else value

    def count_hit(self, key: Hashable | None = None) -> None:
        """Record a hit (and refresh ``key``'s LRU position)."""
        self.hits += 1
        if key is not None and key in self._data:
            self._data.move_to_end(key)

    def count_miss(self) -> None:
        """Record a miss."""
        self.misses += 1

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` under ``key`` (no counter movement)."""
        if self.max_size <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.max_size:
            self._data.popitem(last=False)

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        """Return the cached value for ``key``, creating it on a miss."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            self._data.move_to_end(key)
            return value  # type: ignore[return-value]
        self.misses += 1
        value = factory()
        if self.max_size > 0:
            self._data[key] = value
            if len(self._data) > self.max_size:
                self._data.popitem(last=False)
        return value

    def evict(self, key: Hashable) -> bool:
        """Drop one entry (a stale result-cache entry).

        Returns True when the key was cached. Counters are untouched —
        eviction is bookkeeping, not a lookup.
        """
        return self._data.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._data),
            max_size=self.max_size,
        )


class ResultCache:
    """Whole answers of prepared plans, kept fresh across appends.

    Off when ``max_size <= 0`` (the session default: timed comparisons
    must measure execution, not cache hits); the serving entry points
    switch it on. ``maintenance`` counts what keeping entries fresh did
    (maintained vs invalidated entries, delta rows applied).
    """

    def __init__(self, max_size: int):
        self._entries = LruCache(max_size)
        self.maintenance = ExecutionStats()

    @property
    def enabled(self) -> bool:
        return self._entries.max_size > 0

    def key(self, prepared: "PreparedQuery") -> tuple | None:
        """The result-cache key for one prepared plan, or None.

        (backend, structural plan token, schema fingerprint, the values
        of the options the backend reads). Only backends exposing a
        ``result_token`` (the optimised term plus head, the SQL text)
        participate: logically identical plans share one entry however
        they were prepared. The store version stays out of the key — it
        lives on the :class:`CachedResult`, so a lookup after a write
        finds the stale entry and :meth:`lookup` can maintain it.
        """
        if prepared.plan is None or not self.enabled:
            return None
        backend = prepared.backend
        token_of = getattr(backend, "result_token", None)
        if token_of is None:
            return None
        return (
            backend.name,
            token_of(prepared.plan),
            prepared.fingerprint,
            prepared.exec_options.key_for(backend),
        )

    def peek(self, key: tuple) -> CachedResult | None:
        """The entry under ``key``, as it is (no counting, no upkeep)."""
        return self._entries.peek(key)

    def lookup(
        self,
        prepared: "PreparedQuery",
        key: tuple,
        budget: "float | EvalBudget | None" = None,
    ) -> ResultSet | None:
        """Serve one lookup, maintaining a stale entry.

        A fresh entry is a plain hit. A stale entry (the store moved on)
        is brought up to date by :meth:`_maintain` when the write was
        append-only and the plan is maintainable — counted as a hit —
        otherwise evicted and counted as a miss.
        """
        cache = self._entries
        entry = cache.peek(key)
        if entry is None:
            cache.count_miss()
            return None
        try:
            fault_point("result_cache.load")
        except InjectedFault:
            # Containment: a faulted load degrades to a miss — the
            # query recomputes and re-stores; the entry is untouched.
            cache.count_miss()
            return None
        if entry.version == prepared.session.store.version:
            cache.count_hit(key)
            return entry.answer
        rows = self._maintain(prepared, entry, budget)
        if rows is not None:
            cache.count_hit(key)
            return rows
        cache.evict(key)
        self.maintenance.results_invalidated += 1
        cache.count_miss()
        return None

    def _maintain(
        self,
        prepared: "PreparedQuery",
        entry: CachedResult,
        budget: "float | EvalBudget | None",
    ) -> ResultSet | None:
        """Bring one stale entry up to the current store version.

        Returns the maintained answer, or None when the entry cannot be
        maintained (barrier write, a plan that is not a columnar program
        of monotone operators, tables coded by another kernel). Plans
        that read none of the changed relations are re-stamped without
        any evaluation; the others run one delta pass
        (:func:`~repro.exec.maintain.maintain_program`), seeded with the
        entry's fixpoint totals when the plan has fixpoints. The entry
        is updated only once the pass has finished: a run that raises
        (budget, fault) leaves it as it was.
        """
        try:
            fault_point("maintain.apply")
        except InjectedFault:
            # Containment: a faulted maintenance run degrades to the
            # invalidation path (evict + recompute) before touching the
            # entry — never a partially-maintained result.
            return None
        store = prepared.session.store
        deltas = store.delta_since(entry.version)
        plan = prepared.plan
        if deltas is None or not isinstance(plan, VecPlan):
            return None
        if not set(plan.program.scan_tables) & set(deltas):
            entry.version = store.version
            self.maintenance.results_maintained += 1
            return entry.answer
        if not maintainable(plan.program):
            return None
        kernel = get_kernel(plan.kernel) if plan.kernel else default_kernel()
        if entry.kernel_name != getattr(kernel, "NAME", None):
            return None  # coded tables must not seed a different kernel
        outcome = maintain_program(
            plan.program,
            store,
            deltas,
            entry.fix_states or {},
            head=plan.head,
            kernel=kernel,
            budget=as_budget(budget),
            prev=entry.answer,
        )
        entry.answer = outcome.answer
        entry.version = store.version
        entry.fix_states = outcome.fix_states or None
        self.maintenance.merge(outcome.stats)
        self.maintenance.results_maintained += 1
        return outcome.answer

    def put(
        self,
        key: tuple,
        rows: ResultSet,
        version: int,
        capture: dict | None = None,
    ) -> None:
        """Cache ``rows`` computed at store ``version`` under ``key``.

        ``capture`` is the executor's fix-capture dict: fixpoint totals
        keyed by Fix term, plus the kernel name under its sentinel key.
        """
        try:
            fault_point("result_cache.store")
        except InjectedFault:
            # Containment: a faulted store skips caching — the caller's
            # result is already computed and correct; nothing partial
            # enters the cache.
            return
        kernel_name = capture.pop(CAPTURE_KERNEL, None) if capture else None
        self._entries.put(
            key, CachedResult(rows, version, capture or None, kernel_name)
        )

    def stats(self) -> CacheStats:
        return self._entries.stats()

    def clear(self) -> None:
        self._entries.clear()
        self.maintenance = ExecutionStats()
