"""``ExplainReport`` — the structured result of ``session.explain()``.

A report holds what ``explain`` knows about one prepared query as
separate sections: the backend's plan text, the cost planner's ranked
candidate table, the result-cache and maintenance counters, the Q-error
summary and the degradation state. ``render()`` joins the sections
that apply into the explain text the CLI prints, and ``to_dict()`` is
the JSON form the HTTP ``/explain`` endpoint returns next to it. The
report also behaves like its rendered text for the common assertions
(``str(report)``, ``"join" in report``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cache import CacheStats
from repro.exec.executor import ExecutionStats
from repro.planner import PlanChoice

#: The fixed text of the unsatisfiable-plan section.
UNSATISFIABLE_TEXT = (
    "-- empty result: the schema proved this query unsatisfiable --"
)


@dataclass(frozen=True)
class ExplainReport:
    """Everything ``explain`` knows about one prepared query.

    Optional sections are ``None`` exactly when the rendered text would
    omit them: ``result_cache`` only when the plan participates in the
    session's result cache, ``maintenance`` only when maintenance
    counters are nonzero, ``q_error`` only when the session's
    telemetry log holds executions of this backend with a root estimate.
    """

    backend: str                          # backend name the plan targets
    query: str                            # the original query, as text
    plan_text: str | None                 # None: provably unsatisfiable
    choice: PlanChoice | None = None      # cost planner's ranked table
    result_cache: CacheStats | None = None
    maintenance: ExecutionStats | None = None
    q_error: dict | None = None           # {"count","p50","p90","max"}
    #: Degradation state (``session.resilience_stats()``); None when the
    #: session has never retried, degraded, or tripped a breaker, so an
    #: untouched session's text has no resilience section.
    resilience: dict | None = None
    #: What planning this query cost, for cost-planned handles:
    #: ``{"candidates", "plan_seconds"}``. Data only — the rendered text
    #: carries no timings.
    planner: dict | None = None

    @property
    def unsatisfiable(self) -> bool:
        return self.plan_text is None

    def render(self) -> str:
        """The ``explain`` text, assembled from the sections."""
        if self.plan_text is None:
            text = UNSATISFIABLE_TEXT
            if self.choice is not None:
                text += f"\n\n{self.choice.render()}"
            return text
        text = self.plan_text
        if self.choice is not None:
            text += f"\n\n{self.choice.render()}"
        if self.result_cache is not None:
            stats = self.result_cache
            text += (
                f"\n\n-- result cache: {stats.hits} hit(s), "
                f"{stats.misses} miss(es), {stats.size} cached result set(s) --"
            )
            if self.maintenance is not None:
                maintenance = self.maintenance
                text += (
                    f"\n-- incremental maintenance: "
                    f"{maintenance.results_maintained} maintained, "
                    f"{maintenance.results_invalidated} invalidated, "
                    f"{maintenance.delta_rows_applied} delta row(s) applied --"
                )
        if self.q_error is not None:
            summary = self.q_error
            text += (
                f"\n\n-- q-error ({self.backend}): "
                f"{summary['count']} execution(s), "
                f"p50 {summary['p50']:.2f}, p90 {summary['p90']:.2f}, "
                f"max {summary['max']:.2f} --"
            )
        if self.resilience is not None:
            info = self.resilience
            open_breakers = sorted(
                name
                for name, breaker in info.get("breakers", {}).items()
                if breaker.get("state") != "closed"
            )
            text += (
                f"\n\n-- resilience: {info.get('retries', 0)} retrie(s), "
                f"{info.get('degraded', 0)} degraded execution(s), "
                f"{info.get('breaker_opens', 0)} breaker open(s)"
            )
            if open_breakers:
                text += f"; open: {', '.join(open_breakers)}"
            text += " --"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form (the HTTP ``/explain`` payload)."""
        payload: dict = {
            "backend": self.backend,
            "query": self.query,
            "unsatisfiable": self.unsatisfiable,
            "plan": self.plan_text,
        }
        if self.choice is not None:
            payload["candidates"] = self.choice.to_dict()
        if self.planner is not None:
            payload["planner"] = dict(self.planner)
        if self.result_cache is not None:
            stats = self.result_cache
            payload["result_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "size": stats.size,
            }
        if self.maintenance is not None:
            maintenance = self.maintenance
            payload["maintenance"] = {
                "results_maintained": maintenance.results_maintained,
                "results_invalidated": maintenance.results_invalidated,
                "delta_rows_applied": maintenance.delta_rows_applied,
            }
        if self.q_error is not None:
            payload["q_error"] = dict(self.q_error)
        if self.resilience is not None:
            payload["resilience"] = dict(self.resilience)
        return payload

    # -- string-compatible surface ----------------------------------------
    def __str__(self) -> str:
        return self.render()

    def __contains__(self, item: str) -> bool:
        return item in self.render()
