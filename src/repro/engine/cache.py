"""Bounded LRU caches with hit/miss counters.

All three session cache layers — the rewrite cache, the per-backend plan
cache and the (opt-in) result-set cache — are instances of
:class:`LruCache`. Keys always embed the session's schema fingerprint,
so a schema change invalidates entries *semantically* — stale entries
simply never hit again and age out of the LRU order. Result-set entries
carry the store version they were computed at *inside the value*
(:class:`CachedResult`) rather than in the key: a stale entry is found
again after a write, so the session can **maintain** it from the
store's append delta (one delta pass over the plan, re-seeding the
semi-naive executor over the materialised fixpoint states where the
plan has fixpoints) instead of recomputing — falling back to eviction
when no delta exists.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from repro.exec.result import ResultSet

V = TypeVar("V")

_MISSING = object()


def result_cache_key(
    backend_name: str,
    plan_token: Hashable,
    fingerprint: str,
    option_values: tuple,
) -> tuple:
    """The result-set cache key for one executable plan.

    ``plan_token`` is the backend's *structural* plan identity (e.g. the
    optimised µ-RA term plus head for ``ra``/``vec``, the generated SQL
    text for ``sqlite``) — logically identical plans share one entry
    however they were prepared. The store version deliberately stays
    *out* of the key: it lives on the :class:`CachedResult` value, so a
    lookup after a write still finds the stale entry and the session can
    maintain it from the store's append delta instead of recomputing.
    The schema fingerprint covers sessions whose store was rebuilt from
    scratch. ``option_values`` are the values of the execution options
    the backend reads (:meth:`~repro.engine.options.ExecOptions.key_for`)
    and partition entries deliberately — even row-invariant tuning knobs
    like ``spill_path`` keep separate entries. That is conservative (a
    mixed-options caller re-executes once per setting) but safe for
    options added later, and the serving flow fixes one options object
    per service anyway.
    """
    return (backend_name, plan_token, fingerprint, option_values)


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
    a ``(total, state, domain)`` triple — its materialised total as a
    *kernel-native* table of integer codes, the membership state
    iteration converged with, and the packing domain of that state; a
    maintenance run replaces the triples of the fixpoints it entered
    and leaves the others as they are. ``seen`` is the ``(membership
    state, domain)`` of the answer's own table once a maintenance run
    has built one. Codes are domain-independent and survive append-only
    writes (the dictionary is append-only), so maintenance can seed the
    executor with these tables as-is, continue semi-naive iteration
    from where the cached execution converged and append the coded rows
    the write added. ``kernel_name`` records which kernel produced the
    tables; a lookup under a different kernel must not reuse them.
    """

    answer: ResultSet
    version: int
    fix_states: dict | None = None
    kernel_name: str | None = None
    seen: tuple | None = None


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

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


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

    def get(self, key: Hashable):
        """The cached value for ``key`` (``None`` on a miss, counted)."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            self._data.move_to_end(key)
            return value
        self.misses += 1
        return None

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
        """Drop one entry (the adaptive planner's re-plan path).

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
