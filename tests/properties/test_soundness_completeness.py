"""Property-based tests of the paper's central claims.

Theorem 1 (soundness + completeness) manifests operationally as: for any
schema S, any database D consistent with S, and any path expression ϕ, the
schema-enriched query ``RS(ϕ)`` returns exactly ``⟦ϕ⟧D``. We drive the
whole pipeline (simplify → infer → merge → de-redundant → translate) with
randomly generated schemas, conforming databases and expressions.
"""

import time

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from repro.algebra.ast import Concat, Edge, Plus, Repeat, Reverse, Union
from repro.algebra.ops import strip_annotations
from repro.algebra.printer import to_text
from repro.core.inference import TriplesBoundExceeded, compatible_triples
from repro.core.rewriter import RewriteOptions, rewrite_query
from repro.core.simplify import simplify
from repro.datasets.random_graphs import (
    random_graph,
    random_path_expr,
    random_schema,
)
from repro.graph.evaluator import evaluate_path
from repro.query.evaluation import evaluate_ucqt
from repro.query.model import single_relation_query
from repro.schema.model import GraphSchema, SchemaEdge, SchemaNode

_SEEDS = st.integers(min_value=0, max_value=10_000)

#: Seconds one nested-repetition case may spend rewriting; the worst
#: case seen takes a fraction of a second once inference is bounded.
_REWRITE_SECONDS = 5.0


def _bounded_triples(schema, expr):
    """``TS(expr)``, rejecting the example when it crosses the engine's
    bound (the rewriter keeps such a relation as written)."""
    try:
        return compatible_triples(schema, expr)
    except TriplesBoundExceeded:
        reject()


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=120, deadline=None)
# (e0+2..4)1..3: a TCONCAT of 699 x 699 triples once grew without bound.
@example(3335, 0, 4252)
def test_rewriting_preserves_semantics(schema_seed, graph_seed, expr_seed):
    """Theorem 1, end to end: baseline and rewritten queries agree on
    every conforming database."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=18, max_edges=50)
    expr = random_path_expr(schema, expr_seed, max_depth=4)
    query = single_relation_query(expr)
    result = rewrite_query(query, schema)

    expected = {
        (n, m) for (n, m) in evaluate_path(graph, expr)
    }
    rewritten = evaluate_ucqt(graph, result.query)
    assert rewritten == frozenset(expected), (
        f"schema={schema.name} expr={to_text(expr)} "
        f"rewritten={result.query}"
    )


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=60, deadline=None)
def test_rewriting_preserves_semantics_without_merge(
    schema_seed, graph_seed, expr_seed
):
    """Each raw triple on its own must also preserve semantics (Def. 10/11
    before the merging optimisation)."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=40)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    options = RewriteOptions(apply_merge=False, max_disjuncts=4096)
    result = rewrite_query(query, schema, options)
    assert evaluate_ucqt(graph, result.query) == evaluate_path(graph, expr)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=120, deadline=None)
def test_simplification_preserves_semantics(schema_seed, graph_seed, expr_seed):
    """R1-R5 (plus the commuting rules) never change ⟦ϕ⟧D."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=18, max_edges=50)
    expr = random_path_expr(schema, expr_seed, max_depth=4)
    assert evaluate_path(graph, simplify(expr)) == evaluate_path(graph, expr)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=80, deadline=None)
def test_compatible_triples_sound(schema_seed, graph_seed, expr_seed):
    """Soundness direction of Theorem 1: every pair matched by a triple's
    annotated expression (with the right endpoint labels) is in ⟦ϕ⟧D."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=15, max_edges=40)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    expr = simplify(expr)
    expected = evaluate_path(graph, expr)
    for triple in _bounded_triples(schema, expr):
        sources = graph.nodes_with_label(triple.source)
        targets = graph.nodes_with_label(triple.target)
        for pair in evaluate_path(graph, triple.expr):
            if pair[0] in sources and pair[1] in targets:
                assert pair in expected


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=80, deadline=None)
def test_compatible_triples_complete(schema_seed, graph_seed, expr_seed):
    """Completeness direction: every pair of ⟦ϕ⟧D is produced by some
    compatible triple whose endpoint labels match the pair's labels."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=15, max_edges=40)
    expr = simplify(random_path_expr(schema, expr_seed, max_depth=3))
    triples = _bounded_triples(schema, expr)
    triple_results = [
        (t, evaluate_path(graph, t.expr)) for t in triples
    ]
    for pair in evaluate_path(graph, expr):
        source_label = graph.node_label(pair[0])
        target_label = graph.node_label(pair[1])
        assert any(
            t.source == source_label
            and t.target == target_label
            and pair in result
            for t, result in triple_results
        ), f"pair {pair} not covered for {to_text(expr)}"


@given(_SEEDS, _SEEDS)
@settings(max_examples=80, deadline=None)
def test_triples_strip_back_to_expansion(schema_seed, expr_seed):
    """The underlying expressions of TS(ϕ) are instantiations of ϕ: every
    annotated expression matches a union-free expansion of ϕ in which each
    closure either survives verbatim or is replaced by a fixed-length
    chain (the PlC elimination)."""
    schema = random_schema(schema_seed)
    expr = simplify(random_path_expr(schema, expr_seed, max_depth=3))
    from repro.core.rewriter import _match_plus_lengths, _union_expansion

    expansion = _union_expansion(expr, limit=100_000)
    if expansion is None:
        return
    for triple in _bounded_triples(schema, expr):
        stripped = strip_annotations(triple.expr)
        assert any(
            _match_plus_lengths(candidate, triple.expr, stripped) is not None
            for candidate in expansion
        ), f"{stripped} does not instantiate {expr}"


def _cyclic_schema(seed: int) -> GraphSchema:
    """``random_schema(seed)`` with its first edge also run backwards, so
    that edge's label lies on a cycle (or is already a self-loop)."""
    schema = random_schema(seed)
    edges = list(schema.edges())
    first = edges[0]
    closing = SchemaEdge(first.target_label, first.edge_label, first.source_label)
    return GraphSchema(
        [SchemaNode(label) for label in sorted(schema.node_labels)],
        [*edges, closing],
        name=schema.name,
    )


@st.composite
def _nested_repetitions(draw, labels):
    """A repetition nested at least three deep, each level possibly
    closed (``ϕ+``) or joined with one more edge before it repeats."""

    def atom():
        label = Edge(draw(st.sampled_from(labels)))
        return Reverse(label) if draw(st.booleans()) else label

    expr = atom()
    for _ in range(draw(st.integers(3, 4))):
        step = draw(st.sampled_from(("plain", "plus", "concat", "union")))
        if step == "plus":
            expr = Plus(expr)
        elif step == "concat":
            expr = Concat(expr, atom())
        elif step == "union":
            expr = Union(expr, atom())
        lo = draw(st.integers(1, 2))
        expr = Repeat(expr, lo, lo + draw(st.integers(0, 2)))
    return expr


@given(st.data(), _SEEDS, _SEEDS)
@settings(max_examples=40, deadline=None)
def test_nested_repetition_rewrites_in_time(data, schema_seed, graph_seed):
    """Nested repetitions multiply the path lengths inference enumerates
    (``(((e0)2..4)1..3)2..4`` reaches 48 steps): the rewrite must stay
    within its bound, finish in a time cap, and answer as the original."""
    schema = _cyclic_schema(schema_seed)
    expr = data.draw(_nested_repetitions(sorted(schema.edge_labels)))
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=30)
    query = single_relation_query(expr)
    started = time.perf_counter()
    result = rewrite_query(query, schema)
    elapsed = time.perf_counter() - started
    assert elapsed < _REWRITE_SECONDS, f"{to_text(expr)} took {elapsed:.1f} s"
    assert evaluate_ucqt(graph, result.query) == evaluate_path(graph, expr), (
        f"schema={schema.name} expr={to_text(expr)}"
    )
