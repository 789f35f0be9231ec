"""Property: a failed execution never poisons shared session state.

Random schemas, graphs and path queries drive every backend into an
injected failure and assert the blast radius is zero:

* the result cache holds no entry for the aborted run (no partial or
  phantom rows can ever be served later);
* the telemetry log records nothing from the aborted run, so the
  cost model never learns from a lie;
* a healthy rerun on the *same* session — through whatever plan-cache
  entries the failed attempt left behind — returns exactly the rows an
  untouched control session computes.

A wildcard sweep then fires probabilistically at *every* instrumented
site and checks the all-or-nothing contract: each call either raises a
taxonomy error or returns precisely the control rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.random_graphs import (
    random_graph,
    random_path_expr,
    random_schema,
)
from repro.engine import GraphSession
from repro.errors import InjectedFault, ReproError
from repro.query.model import single_relation_query
from repro.testing.faults import FaultInjector, FaultRule, install

BACKENDS = ("ra", "vec", "sqlite", "reference")

_SEEDS = st.integers(min_value=0, max_value=10_000)
_BACKEND_IDX = st.integers(min_value=0, max_value=len(BACKENDS) - 1)


def _setting(schema_seed, graph_seed, expr_seed):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=30)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    return schema, graph, single_relation_query(expr)


@given(_SEEDS, _SEEDS, _SEEDS, _BACKEND_IDX)
@settings(max_examples=15, deadline=None)
def test_injected_failure_leaves_shared_state_clean(
    schema_seed, graph_seed, expr_seed, backend_idx
):
    schema, graph, query = _setting(schema_seed, graph_seed, expr_seed)
    backend = BACKENDS[backend_idx]

    with GraphSession(graph, schema) as control:
        expected = control.execute(query, backend, rewrite=False)

    with GraphSession(graph, schema, result_cache_size=8) as session:
        # Planning happens before the fault boundary; prime the plan
        # cache so the failed attempt cannot even *grow* it, and the
        # byte-identity check below is exact.
        session.prepare(query, backend, rewrite=False)
        plans_before = list(session.planning.plans._data.items())
        recorded_before = session.telemetry.total_recorded
        records_before = session.telemetry.records
        injector = FaultInjector(
            [FaultRule(f"backend.execute.{backend}")], seed=schema_seed
        )
        with install(injector):
            with pytest.raises(InjectedFault):
                session.execute(query, backend, rewrite=False)
        assert injector.fired() >= 1

        # Nothing cached, nothing learned, no plan-cache churn.
        assert session.cache_stats["result"].size == 0
        assert list(session.planning.plans._data.items()) == plans_before
        assert session.telemetry.total_recorded == recorded_before
        assert session.telemetry.records == records_before

        # The same session, through any plan the failed attempt left in
        # the plan cache, still answers exactly the control rows.
        assert session.execute(query, backend, rewrite=False) == expected


@given(_SEEDS, _SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=10, deadline=None)
def test_wildcard_chaos_is_all_or_nothing(
    schema_seed, graph_seed, expr_seed, fault_seed
):
    schema, graph, query = _setting(schema_seed, graph_seed, expr_seed)

    with GraphSession(graph, schema) as control:
        expected = {
            backend: control.execute(query, backend, rewrite=False)
            for backend in BACKENDS
        }

    with GraphSession(graph, schema, result_cache_size=8) as session:
        with install(
            FaultInjector([FaultRule("*", rate=0.5)], seed=fault_seed)
        ):
            for backend in BACKENDS:
                for _ in range(2):
                    try:
                        rows = session.execute(query, backend, rewrite=False)
                    except ReproError:
                        continue
                    assert rows == expected[backend]
        # Injection off: the session is fully serviceable again.
        for backend in BACKENDS:
            assert (
                session.execute(query, backend, rewrite=False)
                == expected[backend]
            )
