"""The uniform execution-backend protocol and its registry.

A *backend* adapts one execution substrate (µ-RA engine, the vectorized
columnar engine, SQLite, the graph-pattern engine, the reference
evaluator) to the three-step contract
the session drives: ``prepare`` compiles a (possibly schema-rewritten)
UCQT into a backend-specific plan artefact under the call's resolved
:class:`~repro.engine.options.ExecOptions`, ``execute`` runs a prepared
plan, ``explain`` renders it human-readably via the substrate's existing
printer. Backends are stateless — all derived state (relational store,
SQLite database, pattern engine) lives on the session, so one registry
entry serves every session.

The session calls the execution hooks from one place
(:meth:`~repro.engine.dispatch.Dispatcher.run`): ``run_plans`` for
the plans of one columnar backend that run together, ``execute_with_stats``
for a lone plan of such a backend, ``execute`` for everything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.engine.options import ExecOptions
from repro.exec.result import ResultSet
from repro.query.model import UCQT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import GraphSession


@runtime_checkable
class Backend(Protocol):
    """Uniform adapter interface over one execution substrate."""

    #: Registry key and the ``backend=`` argument of ``session.execute``.
    name: str

    def prepare(
        self, session: "GraphSession", query: UCQT, options: ExecOptions
    ) -> object:
        """Compile ``query`` into this backend's plan artefact.

        ``options`` is the call's resolved :class:`ExecOptions`. A
        backend that reads any of its fields names them in an
        ``option_fields`` tuple attribute: the session puts the values
        of exactly those fields into its plan- and result-cache keys
        (:meth:`ExecOptions.key_for`), so implementations may bake them
        into the plan artefact. Backends without the attribute read
        nothing and key on nothing.
        """

    def execute(
        self,
        session: "GraphSession",
        plan: object,
        timeout_seconds: float | None = None,
    ) -> ResultSet:
        """Run a prepared plan, returning the head-ordered answer (rows
        that were never coded go through ``ResultSet.from_rows``)."""

    def explain(self, session: "GraphSession", plan: object) -> str:
        """Render the prepared plan with the substrate's printer.

        Backends may additionally implement optional hooks:

        * ``result_token(plan) -> Hashable`` — the plan's *structural*
          identity (e.g. the optimised term plus head, or the generated
          SQL text). Backends that do so opt their executions into the
          session's result-set cache, keyed on ``(backend name, token,
          schema fingerprint, option-field values)``; backends without
          the hook are never result-cached.
        * ``prepare_from_term(session, term, query, options) -> plan`` —
          compile a µ-RA term the cost-based planner already optimised,
          skipping the backend's own translate+optimise. Backends
          without it receive the winning candidate's *query* through
          ``prepare`` instead (their candidate space is then the rewrite
          choice, costed via the RA proxy).
        * ``execute_with_stats(session, plan, timeout, stats) -> rows``
          — like ``execute`` but filling an
          :class:`~repro.exec.executor.ExecutionStats` with actual
          per-operator cardinalities; the session runs a lone plan of
          such a backend through it and feeds the counters to the
          Q-error log.
        * ``run_plans(session, plans, budget, stats, fix_captures) ->
          [rows]`` — the batched hook: several plans prepared under one
          :class:`ExecOptions` run through one executor under one
          budget, sharing its encoding and operator memo. The session
          sends every batch of two or more plans of such a (columnar)
          backend through it.
        """


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend instance to the global registry (last write wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {available_backends()}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)
