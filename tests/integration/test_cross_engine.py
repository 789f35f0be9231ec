"""Integration: all 48 workload queries × 5 engines × {baseline, schema}.

This is the repository's flagship correctness gate: every query of
Tables 4 and the YAGO workload must produce identical results on the
reference evaluator, the µ-RA engine (optimised), the vectorized
columnar engine, SQLite, and the graph-pattern engine — for both the
baseline and the rewritten query.
"""

import pytest

from repro.core.rewriter import rewrite_query
from repro.datasets.random_graphs import random_graph, random_schema
from repro.engine import GraphSession
from repro.exec import compile_term, execute_program
from repro.gdb.engine import PatternEngine
from repro.query.evaluation import evaluate_ucqt
from repro.query.parser import parse_query
from repro.ra.evaluate import evaluate_term
from repro.ra.optimizer import optimize_term
from repro.ra.translate import TranslationContext, ucqt_to_ra
from repro.sql.sqlite_backend import SqliteBackend
from repro.storage.relational import RelationalStore
from repro.workloads.ldbc_queries import LDBC_QUERIES
from repro.workloads.yago_queries import YAGO_QUERIES


@pytest.fixture(scope="module")
def ldbc_engines(request):
    schema, graph, store = request.getfixturevalue("ldbc_small")
    backend = SqliteBackend(store)
    yield schema, graph, store, backend, PatternEngine(graph)
    backend.close()


@pytest.fixture(scope="module")
def yago_engines(request):
    schema, graph, store = request.getfixturevalue("yago_small")
    backend = SqliteBackend(store)
    yield schema, graph, store, backend, PatternEngine(graph)
    backend.close()


def _assert_engines_agree(schema, graph, store, backend, pattern_engine, query):
    reference = evaluate_ucqt(graph, query)
    rewritten = rewrite_query(query, schema).query
    for variant_name, variant in (("baseline", query), ("schema", rewritten)):
        if variant.is_empty:
            assert reference == frozenset(), variant_name
            continue
        assert evaluate_ucqt(graph, variant) == reference, variant_name
        term = optimize_term(ucqt_to_ra(variant, TranslationContext()), store)
        _columns, rows = evaluate_term(term, store)
        assert frozenset(rows) == reference, f"{variant_name} on ra"
        program = compile_term(term, store)
        vec_rows = execute_program(program, store, head=variant.head)
        assert vec_rows == reference, f"{variant_name} on vec"
        assert backend.execute_ucqt(variant) == reference, (
            f"{variant_name} on sqlite"
        )
        assert pattern_engine.evaluate_ucqt(variant) == reference, (
            f"{variant_name} on gdb"
        )


@pytest.mark.parametrize("workload_query", LDBC_QUERIES, ids=lambda q: q.qid)
def test_ldbc_query_cross_engine(ldbc_engines, workload_query):
    _assert_engines_agree(*ldbc_engines, workload_query.query)


@pytest.mark.parametrize("workload_query", YAGO_QUERIES, ids=lambda q: q.qid)
def test_yago_query_cross_engine(yago_engines, workload_query):
    _assert_engines_agree(*yago_engines, workload_query.query)


# A node test over a reversed closure feeding a reversed main edge: the
# translator shares one ``Rename(Rel e0)`` object between the fixpoint
# base and the outer join, and the tuple-at-a-time interpreter this repo
# once had grew that shared set in place (58 rows, the closure's own pair
# count, for the first query). The other three were always correct.
_REVERSED_CLOSURE_QUERIES = [
    ("x1, x2 <- (x1, [-e0+]-e0, x2)", 16),
    ("x1, x2 <- (x1, [-e0]-e0, x2)", 16),
    ("x1, x2 <- (x1, [e0+]-e0, x2)", 11),
    ("x1, x2 <- (x1, [-e0+]e0, x2)", 15),
]


@pytest.fixture(scope="module")
def random59_engines():
    schema = random_schema(59)
    graph = random_graph(schema, 0, max_nodes=14, max_edges=36)
    store = RelationalStore.from_graph(graph, schema)
    backend = SqliteBackend(store)
    yield schema, graph, store, backend, PatternEngine(graph)
    backend.close()


@pytest.mark.parametrize("text, count", _REVERSED_CLOSURE_QUERIES)
def test_reversed_closure_node_test_cross_engine(random59_engines, text, count):
    schema, graph, *_ = random59_engines
    query = parse_query(text)
    reference = evaluate_ucqt(graph, query)
    assert len(reference) == count
    _assert_engines_agree(*random59_engines, query)
    with GraphSession(graph, schema) as session:
        assert session.execute(text) == reference, "default backend"
        for backend in ("ra", "vec", "sqlite", "reference"):
            for rewrite in (True, False):
                assert (
                    session.execute(text, backend, rewrite=rewrite) == reference
                ), f"{backend}, rewrite={rewrite}"
