"""The chain planner keeps answers.

With an estimator, the translator brackets every concatenation chain by
cost and may seed a closure at either end of a sub-chain with its
neighbour (``R+ /L T = µX. (R /L T) ∪ (R ∘ X)`` and ``S /L R+ = µX.
(S /L R) ∪ (X ∘ R)``). Every plan it can pick must answer like the
reference evaluator: the properties below build *each* option, not only
the one the estimates favour, and run the planned query end to end on
both kernels, with and without the schema rewrite. A cached answer
whose plan holds a seeded closure must also survive appends to either
side of the seed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.ast import (
    AnnotatedConcat,
    BranchLeft,
    BranchRight,
    Concat,
    Edge,
    PathExpr,
    Plus,
    Reverse,
)
from repro.core.rewriter import rewrite_query
from repro.datasets.random_graphs import random_graph, random_schema
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.graph.evaluator import evaluate_path
from repro.graph.model import yago_example_graph
from repro.query.model import single_relation_query
from repro.ra.evaluate import evaluate_term
from repro.ra.terms import Fix
from repro.ra.translate import (
    SR,
    TR,
    TranslationContext,
    _build_chain,
    _Chain,
)
from repro.schema.builder import yago_example_schema
from repro.storage.relational import RelationalStore

_SEEDS = st.integers(min_value=0, max_value=10_000)

#: How a planned query is run: the default kernel and the pure-Python
#: one under the greedy planner (which chain-plans on ``vec``), and the
#: cost planner's chain-planned winner on ``ra``.
RUNS = (
    ExecOptions(backend="vec"),
    ExecOptions(backend="vec", kernel="python"),
    ExecOptions(backend="ra", planner="cost"),
)


def _random_chain(
    schema, rng: random.Random, annotate: bool = True
) -> PathExpr:
    """A chain of 2–6 elements: edges, reverses, branches and closures
    (placed anywhere, first and last included), bracketed at random, its
    junctions plain or (``annotate``) annotated with a random label
    set."""
    edges = sorted(schema.edge_labels)
    nodes = sorted(schema.node_labels)

    def atom() -> PathExpr:
        label = Edge(rng.choice(edges))
        return Reverse(label) if rng.random() < 0.3 else label

    def element() -> PathExpr:
        roll = rng.random()
        if roll < 0.4:
            return Plus(atom() if rng.random() < 0.7 else Concat(atom(), atom()))
        if roll < 0.5:
            return BranchRight(atom(), atom())
        if roll < 0.6:
            return BranchLeft(atom(), atom())
        return atom()

    def join(left: PathExpr, right: PathExpr) -> PathExpr:
        if annotate and rng.random() < 0.3:
            labels = frozenset(rng.sample(nodes, rng.randint(1, len(nodes))))
            return AnnotatedConcat(left, right, labels)
        return Concat(left, right)

    parts = [element() for _ in range(rng.randint(2, 6))]
    while len(parts) > 1:
        at = rng.randrange(len(parts) - 1)
        parts[at:at + 2] = [join(parts[at], parts[at + 1])]
    return parts[0]


def _random_plan(chain: _Chain, rng: random.Random) -> dict:
    """One of the options the planner weighs, for every span."""
    plan = {}
    count = len(chain.elements)
    for i in range(count):
        for j in range(i + 2, count + 1):
            options = [("split", k) for k in range(i + 1, j)]
            if isinstance(chain.elements[i], Plus):
                options.append(("first",))
            if isinstance(chain.elements[j - 1], Plus):
                options.append(("last",))
            plan[(i, j)] = rng.choice(options)
    return plan


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=60, deadline=None)
def test_every_chain_plan_answers_like_the_reference(
    schema_seed, graph_seed, chain_seed
):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    rng = random.Random(chain_seed)
    expr = _random_chain(schema, rng)
    expected = evaluate_path(graph, expr)
    store = RelationalStore.from_graph(graph, schema)
    chain = _Chain.of(expr)
    for _ in range(3):
        plan = _random_plan(chain, rng)
        term = _build_chain(
            chain, 0, len(chain.elements), plan, TranslationContext()
        )
        columns, rows = evaluate_term(term, store)
        assert columns == (SR, TR)
        assert frozenset(rows) == expected, (expr, plan)


@given(_SEEDS, _SEEDS, _SEEDS)
@settings(max_examples=30, deadline=None)
def test_planned_chains_answer_like_the_reference(
    schema_seed, graph_seed, chain_seed
):
    """Planned as the estimates say, on both kernels: a chain with
    random annotations as it is, and a plain one also through the schema
    rewrite, whose annotated junctions and label atoms it then plans."""
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=14, max_edges=36)
    rng = random.Random(chain_seed)
    annotated = _random_chain(schema, rng)
    plain = _random_chain(schema, rng, annotate=False)
    with GraphSession(graph, schema) as session:
        for expr, rewrites in ((annotated, (False,)), (plain, (False, True))):
            expected = evaluate_path(graph, expr)
            query = single_relation_query(expr)
            for rewrite in rewrites:
                if rewrite and rewrite_query(query, schema).query.is_empty:
                    assert expected == frozenset()
                    continue
                for options in RUNS:
                    answer = session.execute(
                        query, rewrite=rewrite, exec_options=options
                    )
                    assert frozenset(answer) == expected, (expr, rewrite)


# -- maintenance of a seeded closure ------------------------------------------
SEEDED = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"


def _cold(store, query: str):
    with GraphSession(
        yago_example_graph(), yago_example_schema(), store=store
    ) as cold:
        return cold.execute(query, "vec", rewrite=False)


def _new_row(store, table: str) -> tuple:
    present = store.table(table).rows
    sources = sorted({row[0] for row in present})
    targets = sorted({row[1] for row in store.table("isLocatedIn").rows})
    return next(
        (source, target)
        for source in sources
        for target in targets
        if source != target and (source, target) not in present
    )


@pytest.mark.parametrize("table", ["isLocatedIn", "livesIn"])
def test_seeded_closure_is_maintained_under_appends(table):
    with GraphSession(
        yago_example_graph(), yago_example_schema(), result_cache_size=8
    ) as session:
        handle = session.prepare(SEEDED, "vec", rewrite=False)
        fixpoints = [
            node for node in handle.plan.term.walk() if isinstance(node, Fix)
        ]
        # The closure starts from its neighbour: its base scans livesIn.
        assert any(
            "livesIn" in {getattr(n, "name", None) for n in fix.base.walk()}
            for fix in fixpoints
        )
        before = session.execute(SEEDED, "vec", rewrite=False)
        store = session.store
        store.add_rows(table, [_new_row(store, table)])
        maintained = session.execute(SEEDED, "vec", rewrite=False)
        assert maintained == _cold(store, SEEDED)
        assert frozenset(before) <= frozenset(maintained)
        counters = session.cache_stats["maintenance"]
        assert counters.results_maintained == 1
        assert counters.results_invalidated == 0
