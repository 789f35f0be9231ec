"""Batched multi-query serving over prepared plans.

The serving layer turns the optimiser + executor stack into something
that answers *traffic*: many queries against one
:class:`~repro.engine.session.GraphSession`, sharing the schema-rewrite
and plan caches, the per-store dictionary encoding, base-relation scans
and any compiled subprograms common to the batch.

Three entry points, thinnest first:

* :meth:`GraphSession.execute_batch` — results for a list of queries,
* :func:`repro.serve.batch.execute_batch` — the same plus a
  :class:`~repro.serve.batch.BatchReport` of what was shared,
* :class:`repro.serve.service.QueryService` — the asyncio front door
  with a bounded worker pool and admission batching per configuration
  and store version (snapshot-isolated reads).

The ``repro batch`` and ``repro serve`` CLI subcommands expose the
synchronous and asynchronous paths respectively.
"""

from repro.serve.batch import BatchOutcome, BatchReport, execute_batch
from repro.serve.service import QueryService, ServiceStats, serve_queries

__all__ = [
    "BatchOutcome",
    "BatchReport",
    "QueryService",
    "ServiceStats",
    "execute_batch",
    "serve_queries",
]
