"""Property: calibration is *plan-side only*.

Fitting cost profiles from telemetry and activating them (including
``backend="auto"`` substrate choice) may change which plan runs, but
must never change a query's rows — on any backend, over random
conforming schema/graph/query triples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.random_graphs import (
    random_graph,
    random_path_expr,
    random_schema,
)
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.query.model import single_relation_query

_SEEDS = st.integers(min_value=0, max_value=10_000)

_BACKENDS = ("vec", "ra", "sqlite")
COST = ExecOptions(planner="cost")


@given(_SEEDS, _SEEDS, st.lists(_SEEDS, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_calibration_never_changes_results(
    schema_seed, graph_seed, expr_seeds
):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    queries = [
        single_relation_query(
            random_path_expr(schema, expr_seed, max_depth=3)
        )
        for expr_seed in expr_seeds
    ]

    with GraphSession(graph, schema) as session:
        # Uncalibrated rows per backend, cost-planned so telemetry
        # carries estimates to regress against.
        expected = {
            backend: [
                session.execute(query, backend, exec_options=COST)
                for query in queries
            ]
            for backend in _BACKENDS
        }
        session.calibrate()
        # Unsatisfiable queries execute nothing, so the log (and hence
        # the fitted set) may be empty or partial — a subset, never more.
        assert set(session.calibration.fitted_backends) <= set(_BACKENDS)
        # Calibrated re-execution: same rows on every backend ...
        for backend in _BACKENDS:
            for query, rows in zip(queries, expected[backend]):
                assert session.execute(query, backend, exec_options=COST) == rows
        # ... and under the calibrated auto choice, whatever substrate
        # it routes each query to.
        for query, rows in zip(queries, expected["ra"]):
            assert session.execute(query, "auto") == rows
