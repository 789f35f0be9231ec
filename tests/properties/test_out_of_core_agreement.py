"""Property: out-of-core vec execution equals in-memory execution.

Random schemas, random conforming graphs and random path queries must
produce identical result sets whether a compiled columnar program runs
purely in memory or with every large table spilled to memmap-backed
files (a spill threshold of one byte re-homes everything the kernel
supports) — on every available kernel, including the pure-Python one
where spill is a no-op. A session running with spill on must serve the
same rows too.
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
from repro.exec import available_kernels, execute_program, get_kernel
from repro.graph.evaluator import evaluate_path
from repro.query.model import single_relation_query

_SEEDS = st.integers(min_value=0, max_value=10_000)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=25, deadline=None)
def test_spilled_agrees_with_in_memory(schema_seed, graph_seed, expr_seed):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = evaluate_path(graph, expr)

    with GraphSession(graph, schema) as session:
        prepared = session.prepare(query, "vec", rewrite=False)
        if prepared.plan is None:
            assert expected == frozenset()
            return
        for kernel_name in available_kernels():
            kernel = get_kernel(kernel_name)
            for label, options in (
                ("in-memory", {}),
                ("spilled", {"spill_threshold_bytes": 1}),
            ):
                rows = execute_program(
                    prepared.plan.program,
                    session.store,
                    head=prepared.plan.head,
                    kernel=kernel,
                    **options,
                )
                assert rows == expected, (kernel_name, label)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=10, deadline=None)
def test_out_of_core_session_serves_identical_rows(
    schema_seed, graph_seed, expr_seed
):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=30)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = evaluate_path(graph, expr)

    with GraphSession(graph, schema, result_cache_size=16) as session:
        options = ExecOptions(spill_threshold_bytes=1)
        cold = session.execute(
            query, "vec", rewrite=False, exec_options=options
        )
        warm = session.execute(
            query, "vec", rewrite=False, exec_options=options
        )
        assert cold == warm == expected
