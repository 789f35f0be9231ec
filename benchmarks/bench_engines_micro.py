"""Micro-benchmarks: the substrate operations the experiments stand on.

Not a paper artefact per se, but the calibration data behind every figure:
transitive-closure evaluation on each engine, the inference engine, and
prepared-query execution through the unified ``GraphSession`` layer —
plans are compiled once via ``session.prepare`` so each benchmark times
pure execution on its substrate (the warm path production traffic hits).
The pattern engine serves no session and is timed on its own.
"""

import pytest

from repro.algebra.parser import parse
from repro.core.inference import InferenceEngine
from repro.datasets.yago import yago_schema
from repro.gdb.engine import PatternEngine
from repro.graph.evaluator import evaluate_path
from repro.query.parser import parse_query

CLOSURE = parse("isLocatedIn+")
CLOSURE_QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"
ANCHORED_QUERY = (
    "x1, x2 <- (x1, owns/isLocatedIn, y) && (y, isLocatedIn, z)"
    " && (z, isLocatedIn, x2)"
)


def test_closure_reference_engine(benchmark, yago_context):
    result = benchmark(evaluate_path, yago_context.graph, CLOSURE)
    assert result


def test_closure_ra_engine(benchmark, yago_context):
    prepared = yago_context.session.prepare(CLOSURE_QUERY, "ra", rewrite=False)
    rows = benchmark(prepared.execute)
    assert rows


def test_closure_sqlite(benchmark, yago_context):
    prepared = yago_context.session.prepare(
        CLOSURE_QUERY, "sqlite", rewrite=False
    )
    rows = benchmark(prepared.execute)
    assert rows


def test_anchored_chain_ra_engine(benchmark, yago_context):
    """The schema-rewritten shape: anchored fixed-length joins."""
    prepared = yago_context.session.prepare(ANCHORED_QUERY, "ra", rewrite=False)
    rows = benchmark(prepared.execute)
    assert rows


def test_inference_engine_throughput(benchmark):
    schema = yago_schema()
    expr = parse("owns/isLocatedIn+/dealsWith+")

    def infer():
        return InferenceEngine(schema).triples(expr)

    triples = benchmark(infer)
    assert len(triples) == 1


def test_pattern_engine_anchored_expansion(benchmark, yago_context):
    engine = PatternEngine(yago_context.graph)
    query = parse_query("x1, x2 <- (x1, owns/isLocatedIn+, x2)")
    rows = benchmark(engine.evaluate_ucqt, query)
    assert rows


def test_session_execute_warm_path(benchmark, yago_context):
    """Full ``session.execute`` with hot caches: rewrite + plan lookups
    plus execution — the per-request cost of a cached production query."""
    session = yago_context.session
    session.execute(CLOSURE_QUERY, "ra")  # warm both cache layers
    rows = benchmark(session.execute, CLOSURE_QUERY, "ra")
    assert rows
    assert session.cache_stats["plan"].hits > 0
