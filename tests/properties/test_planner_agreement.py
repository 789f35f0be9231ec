"""Cost-based selection is semantics-preserving.

Whichever candidate the cost planner picks — the original query or its
schema rewrite — executing it on any backend must produce exactly the
original query's result. Random
schemas, random conforming databases, random path queries; compared
against the direct path-semantics evaluator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.random_graphs import (
    random_graph,
    random_path_expr,
    random_schema,
)
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.graph.evaluator import evaluate_path
from repro.query.model import single_relation_query

_SEEDS = st.integers(min_value=0, max_value=10_000)

#: The backends the cost planner compiles its one winner for: the two
#: columnar configurations and generated SQL (gdb/reference execute the
#: winner's UCQT, which test_session_agreement already covers).
_BACKENDS = ("ra", "vec", "sqlite")
COST = ExecOptions(planner="cost")


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=25, deadline=None)
def test_cost_planner_preserves_semantics(schema_seed, graph_seed, expr_seed):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = evaluate_path(graph, expr)

    with GraphSession(graph, schema, exec_options=COST) as session:
        for backend in _BACKENDS:
            for rewrite in (False, True):
                rows = session.execute(query, backend, rewrite=rewrite)
                assert rows == expected, (backend, rewrite)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=15, deadline=None)
def test_repeated_cost_planned_runs_preserve_semantics(
    schema_seed, graph_seed, expr_seed
):
    """Executing a cost-planned query never changes what later runs of
    it answer: three runs in one session equal the reference."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=28)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = evaluate_path(graph, expr)

    with GraphSession(graph, schema, exec_options=COST) as session:
        for _ in range(3):
            assert session.execute(query, "vec") == expected


@given(_SEEDS, _SEEDS, st.lists(_SEEDS, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_auto_backend_matches_uniform_backends(
    schema_seed, graph_seed, expr_seeds
):
    """``backend="auto"`` (the default backend under the cost planner)
    answers the rows of every uniform backend."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    queries = [
        single_relation_query(
            random_path_expr(schema, expr_seed, max_depth=3)
        )
        for expr_seed in expr_seeds
    ]

    with GraphSession(graph, schema) as session:
        for query in queries:
            expected = session.execute(query, "ra", exec_options=COST)
            for backend in _BACKENDS:
                rows = session.execute(query, backend, exec_options=COST)
                assert rows == expected, backend
            assert session.execute(query, "auto") == expected
