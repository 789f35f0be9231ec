"""Deterministic, seed-driven fault injection at named trust boundaries.

Every boundary where a production graph stack can fail mid-request is
instrumented with a :func:`fault_point` call naming the site:

==============================  ================================================
site                            boundary
==============================  ================================================
``kernel.op``                   one vec-executor operator dispatch
``backend.execute.<name>``      a backend's ``execute`` / ``execute_with_stats``
``snapshot.rebuild``            snapshot-session reconstruction at a pinned
                                store version
``snapshot.rebuild.sqlite``     full sqlite mirror rebuild on ``sync()``
``result_cache.store``          storing a fresh result into the result cache
``result_cache.load``           serving a hit from the result cache
``maintain.apply``              incremental maintenance of a stale cache entry
==============================  ================================================

``fault_point(site)`` is a cheap attribute check when no injector is
active. When one is active, matching rules raise
:class:`~repro.errors.InjectedFault` — the *raising* sites above — while
contained sites (the cache/maintenance ones) catch the fault locally
and degrade (skip the store, treat the load as a miss, fall back to
invalidation), which the chaos suite asserts never corrupts shared
state.

Determinism: each rule draws from its own ``random.Random`` seeded with
``f"{seed}:{site}"``, so whether the *k*-th arrival at a site fires is a
pure function of ``(seed, site, k)`` — independent of thread scheduling
across sites and of how many other sites fired in between. Rules with
``rate >= 1`` never draw at all and fire on every arrival (until
``limit``), which is what most chaos tests want.

Activation, in precedence order:

1. :func:`install` — a context manager tests use to scope an injector;
2. the ``REPRO_FAULTS`` environment variable, read lazily on the first
   :func:`fault_point` after interpreter start or :func:`reset`. Syntax
   is a comma-separated list of ``site[:rate[:limit]]`` rules, e.g.
   ``REPRO_FAULTS="kernel.op:0.2,result_cache.store::1"`` (20% of kernel
   ops, plus the first cache store). ``REPRO_FAULTS_SEED`` seeds the
   draws (default 0).

A rule's site matches an arrival exactly, as a dotted prefix
(``backend.execute`` matches ``backend.execute.vec``), or via the
wildcard ``*`` (every site). :func:`parse_faults` rejects a rule whose
site matches none of :data:`KNOWN_SITES`, so a misspelt site fails
loudly instead of injecting nothing.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import InjectedFault, RequestError

FAULTS_ENV = "REPRO_FAULTS"
SEED_ENV = "REPRO_FAULTS_SEED"

#: Every registered injection site, for harnesses that sweep all of them.
KNOWN_SITES: tuple[str, ...] = (
    "kernel.op",
    "backend.execute.ra",
    "backend.execute.vec",
    "backend.execute.sqlite",
    "backend.execute.reference",
    "snapshot.rebuild",
    "snapshot.rebuild.sqlite",
    "result_cache.store",
    "result_cache.load",
    "maintain.apply",
)


@dataclass
class FaultRule:
    """One ``site[:rate[:limit]]`` rule.

    ``rate`` is the per-arrival fire probability (values >= 1 fire
    deterministically); ``limit`` caps the total fires (``None`` =
    unbounded).
    """

    site: str
    rate: float = 1.0
    limit: int | None = None
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.site:
            raise RequestError("fault rule needs a site name", field="faults")
        if self.rate < 0:
            raise RequestError(
                f"fault rate must be >= 0, got {self.rate}", field="faults"
            )
        if self.limit is not None and self.limit < 1:
            raise RequestError(
                f"fault limit must be >= 1, got {self.limit}", field="faults"
            )

    def matches(self, site: str) -> bool:
        return (
            self.site == "*"
            or self.site == site
            or site.startswith(self.site + ".")
        )


class FaultInjector:
    """Holds the active rules and decides, per arrival, whether to fire."""

    def __init__(self, rules: Iterator[FaultRule] | list[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._arrivals: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._rngs = {
            id(rule): random.Random(f"{seed}:{rule.site}") for rule in self.rules
        }

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFault` if any rule fires for ``site``."""
        with self._lock:
            sequence = self._arrivals.get(site, 0) + 1
            self._arrivals[site] = sequence
            for rule in self.rules:
                if not rule.matches(site):
                    continue
                if rule.limit is not None and rule.fired >= rule.limit:
                    continue
                if rule.rate < 1.0 and not (
                    self._rngs[id(rule)].random() < rule.rate
                ):
                    continue
                rule.fired += 1
                self._fired[site] = self._fired.get(site, 0) + 1
                raise InjectedFault(site, sequence)

    def fired(self, site: str | None = None) -> int:
        """Total faults fired (at ``site``, or across all sites)."""
        with self._lock:
            if site is not None:
                return self._fired.get(site, 0)
            return sum(self._fired.values())

    def arrivals(self, site: str) -> int:
        """How many times execution reached ``site`` (fired or not)."""
        with self._lock:
            return self._arrivals.get(site, 0)


def parse_faults(spec: str, seed: int = 0) -> FaultInjector:
    """Build an injector from ``REPRO_FAULTS`` syntax.

    ``spec`` is ``site[:rate[:limit]]`` rules joined by commas; empty
    segments (``site::1``) take the field's default. A site must be
    ``*``, one of :data:`KNOWN_SITES` or a dotted prefix of one.
    """
    rules = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) > 3:
            raise RequestError(
                f"malformed fault rule {chunk!r} "
                "(expected site[:rate[:limit]])",
                field="faults",
            )
        site = parts[0].strip()
        try:
            rate = float(parts[1]) if len(parts) > 1 and parts[1].strip() else 1.0
            limit = (
                int(parts[2]) if len(parts) > 2 and parts[2].strip() else None
            )
        except ValueError as exc:
            raise RequestError(
                f"malformed fault rule {chunk!r}: {exc}", field="faults"
            ) from exc
        rule = FaultRule(site, rate=rate, limit=limit)
        if not any(rule.matches(known) for known in KNOWN_SITES):
            raise RequestError(
                f"fault rule {chunk!r} names no injection site "
                f"(known: *, {', '.join(KNOWN_SITES)})",
                field="faults",
            )
        rules.append(rule)
    return FaultInjector(rules, seed=seed)


class _Unset:
    pass


_UNSET = _Unset()

# The active injector. ``_UNSET`` means "environment not consulted yet";
# ``None`` means "consulted, injection off" — the distinction keeps
# fault_point a single attribute check + identity test when idle.
_active: FaultInjector | None | _Unset = _UNSET
_env_lock = threading.Lock()


def _from_env() -> FaultInjector | None:
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    try:
        seed = int(os.environ.get(SEED_ENV, "0"))
    except ValueError:
        seed = 0
    return parse_faults(spec, seed=seed)


def active_injector() -> FaultInjector | None:
    """The injector currently in force (resolving the env lazily)."""
    global _active
    current = _active
    if isinstance(current, _Unset):
        with _env_lock:
            if isinstance(_active, _Unset):
                _active = _from_env()
            current = _active
    return current


def fault_point(site: str) -> None:
    """Declare a named trust boundary; raises only when a rule fires."""
    injector = _active
    if injector is None:
        return
    if isinstance(injector, _Unset):
        injector = active_injector()
        if injector is None:
            return
    injector.check(site)


@contextmanager
def install(injector: FaultInjector | None):
    """Scope ``injector`` as the active one (``None`` disables injection)."""
    global _active
    previous = _active
    _active = injector
    try:
        yield injector
    finally:
        _active = previous


def reset() -> None:
    """Forget the active injector; the env is re-read on next use."""
    global _active
    _active = _UNSET
