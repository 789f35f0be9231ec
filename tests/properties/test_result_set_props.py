"""Property: a coded answer is the frozenset of its rows, unread or read.

Random schemas, random conforming graphs and random path queries: on
every backend and kernel, with and without the schema rewrite, the
answer's ``len`` (taken from the coded root, before anything is decoded)
is the number of distinct rows, the answer equals and hashes as the
plain frozenset in both directions, and the payload serialised from its
columns is the payload of the row-wise path.
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
from repro.exec import available_kernels
from repro.exec.result import ResultSet
from repro.graph.evaluator import evaluate_path
from repro.query.model import single_relation_query
from repro.server.models import rows_payload

_SEEDS = st.integers(min_value=0, max_value=10_000)

_CONFIGURATIONS = [
    ExecOptions(backend=backend)
    for backend in ("ra", "sqlite", "reference")
] + [
    ExecOptions(backend="vec", kernel=kernel) for kernel in available_kernels()
]


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=40, deadline=None)
def test_answers_are_their_frozensets(schema_seed, graph_seed, expr_seed):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    expected = frozenset(evaluate_path(graph, expr))
    payload = [list(row) for row in sorted(expected)]

    with GraphSession(graph, schema) as session:
        for options in _CONFIGURATIONS:
            for rewrite in (False, True):
                answer = session.execute(
                    query, rewrite=rewrite, exec_options=options
                )
                assert isinstance(answer, ResultSet)
                assert len(answer) == len(expected), options  # still coded
                assert rows_payload(answer) == payload
                assert answer == expected and expected == answer
                assert hash(answer) == hash(expected)
                assert answer.to_rows() == expected
