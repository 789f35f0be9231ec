"""Unified engine layer: ``GraphSession``, the backend protocol and caches.

Quickstart::

    from repro.engine import GraphSession

    session = GraphSession(graph, schema)
    rows = session.execute("x1, x2 <- (x1, livesIn/isLocatedIn+, x2)")
    print(session.explain("x1, x2 <- (x1, livesIn/isLocatedIn+, x2)",
                          backend="sqlite"))

The same query string runs unchanged on every registered backend
(``ra``, ``vec``, ``sqlite``, ``reference``); rewriting and
planning are cached per (query, schema fingerprint, options).
"""

from repro.engine.cache import CachedResult, CacheStats, LruCache
from repro.engine.frontend import schema_fingerprint
from repro.engine.protocol import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.resilience import BreakerConfig, CircuitBreaker, RetryPolicy
from repro.engine.session import GraphSession, PreparedQuery

__all__ = [
    "GraphSession",
    "PreparedQuery",
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "schema_fingerprint",
    "BreakerConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "CacheStats",
    "CachedResult",
    "LruCache",
]
