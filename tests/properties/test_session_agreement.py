"""Property-based cross-backend agreement through the GraphSession façade.

The engine-layer variant of ``test_engines_agree``: the *same session*
must produce identical result sets on every registered backend, for
random schemas, random conforming databases and random path queries —
baseline and schema-rewritten, cold caches and warm. A session with the
result cache on must serve those rows too, the second time from the
cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.random_graphs import (
    random_graph,
    random_path_expr,
    random_schema,
)
from repro.engine import GraphSession, available_backends
from repro.graph.evaluator import evaluate_path
from repro.query.model import single_relation_query

_SEEDS = st.integers(min_value=0, max_value=10_000)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=40, deadline=None)
def test_session_backends_agree(schema_seed, graph_seed, expr_seed):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = evaluate_path(graph, expr)

    with GraphSession(graph, schema) as session:
        for backend in available_backends():
            for rewrite in (False, True):
                rows = session.execute(query, backend, rewrite=rewrite)
                assert rows == expected, (backend, rewrite)
        # Second pass runs entirely from the caches and must not drift.
        for backend in available_backends():
            first = session.prepare(query, backend)
            assert first.execute() == expected, backend
            second = session.prepare(query, backend)
            assert second.plan is first.plan, backend


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=15, deadline=None)
def test_result_cached_session_serves_identical_rows(
    schema_seed, graph_seed, expr_seed
):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=30)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = evaluate_path(graph, expr)

    with GraphSession(graph, schema, result_cache_size=16) as session:
        cold = session.execute(query, "vec", rewrite=False)
        warm = session.execute(query, "vec", rewrite=False)
        assert cold == warm == expected
        if session.prepare(query, "vec", rewrite=False).plan is not None:
            assert session.cache_stats["result"].hits >= 1
