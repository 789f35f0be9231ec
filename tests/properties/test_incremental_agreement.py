"""Property: maintained results equal cold recomputation, always.

Random schemas, graphs and path queries, then a random interleaving of
append-only writes and reads on a result-caching session. After every
read, the possibly-maintained ``vec`` answers (one per kernel) and the
session's ``ra``/``sqlite`` answers must equal a cold evaluation over
the store's current contents — whatever mix of plain hits, re-stamps,
delta passes, seeded fixpoints and invalidations served them. Two
variants: ``rewrite=False`` with edges between arbitrary existing node
ids (the recursion stays in the plan; an expression without a closure
gives a fixpoint-free one), and ``rewrite=True`` with edges that conform
to the schema, so the rewritten plans stay in use across the writes.
The ``reference``/``gdb`` backends evaluate the *graph* object,
which the store-level appends deliberately bypass, so they stay out of
scope here (:mod:`test_vec_agreement` covers them on static stores).
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
from repro.exec.kernels import available_kernels
from repro.query.model import single_relation_query

_SEEDS = st.integers(min_value=0, max_value=10_000)
_SCRIPTS = st.lists(
    st.integers(min_value=0, max_value=999), min_size=2, max_size=8
)
_VEC = [ExecOptions(backend="vec", kernel=name) for name in available_kernels()]


def _arbitrary_edge(store, schema, choice):
    edge_tables = sorted(store.edge_tables)
    node_ids = sorted(
        {
            row[0]
            for name in store.node_tables
            for row in store.table(name).rows
        }
    )
    if not (edge_tables and node_ids):
        return None
    return edge_tables[choice % len(edge_tables)], (
        node_ids[choice % len(node_ids)],
        node_ids[(choice // 7) % len(node_ids)],
    )


def _conforming_edge(store, schema, choice):
    """An edge one of the schema's triples allows between stored nodes."""
    triples = sorted(
        (edge.edge_label, edge.source_label, edge.target_label)
        for edge in schema.edges()
    )
    label, source_label, target_label = triples[choice % len(triples)]
    sources = sorted(row[0] for row in store.table(source_label).rows)
    targets = sorted(row[0] for row in store.table(target_label).rows)
    if not (sources and targets):
        return None
    return label, (
        sources[choice % len(sources)],
        targets[(choice // 7) % len(targets)],
    )


def _check_agreement(schema_seed, graph_seed, expr_seed, script, rewrite):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=30)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    pick_edge = _conforming_edge if rewrite else _arbitrary_edge

    with GraphSession(graph, schema, result_cache_size=64) as cached:
        store = cached.store
        with GraphSession(graph, schema, store=store) as cold:

            def check():
                expected = cold.execute(query, "ra", rewrite=False)
                for options in _VEC:
                    assert (
                        cached.execute(
                            query, rewrite=rewrite, exec_options=options
                        )
                        == expected
                    )
                assert cached.execute(query, "ra", rewrite=rewrite) == expected
                assert (
                    cached.execute(query, "sqlite", rewrite=rewrite)
                    == expected
                )

            check()  # populate the caches before the first write
            for choice in script:
                picked = pick_edge(store, schema, choice) if choice % 3 else None
                if picked is None:
                    check()
                    continue
                store.add_rows(picked[0], [picked[1]])
                assert cached.rewrite_sound() or not rewrite
            check()  # always end on a read


@given(_SEEDS, _SEEDS, _SEEDS, _SCRIPTS)
@settings(max_examples=25, deadline=None)
def test_maintained_results_equal_cold_recompute(
    schema_seed, graph_seed, expr_seed, script
):
    # rewrite=False keeps the recursion in the plan — the seeded-fixpoint
    # maintenance path.
    _check_agreement(schema_seed, graph_seed, expr_seed, script, False)


@given(_SEEDS, _SEEDS, _SEEDS, _SCRIPTS)
@settings(max_examples=25, deadline=None)
def test_maintained_rewritten_results_equal_cold_recompute(
    schema_seed, graph_seed, expr_seed, script
):
    _check_agreement(schema_seed, graph_seed, expr_seed, script, True)
