"""repro — Schema-Based Query Optimisation for Graph Databases.

A full reproduction of the SIGMOD 2025 paper by Sharma, Genevès, Gesbert
and Layaïda (arXiv:2403.01863): UCQT graph queries over Tarski's algebra,
graph schemas, the schema-based rewriting pipeline (type inference, PlC,
triple merging, redundancy removal), plus the execution substrates used by
the paper's evaluation — a recursive relational algebra engine and a
``WITH RECURSIVE`` SQL backend (executed on SQLite) behind one façade,
:class:`~repro.engine.session.GraphSession`: construct it once from a
graph and a schema, and it owns the derived artefacts (relational store,
SQLite database) plus two cache layers (schema rewriting, per-backend
plans) keyed on the schema fingerprint. The graph-pattern engine with
Cypher emission (:mod:`repro.gdb`, the paper's Neo4j stand-in) runs the
Fig. 14 comparison from :mod:`repro.bench`.

Quickstart::

    from repro import GraphSession, yago_example_graph, yago_example_schema

    session = GraphSession(yago_example_graph(), yago_example_schema())
    query = "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)"
    rows = session.execute(query)                      # µ-RA on vec
    assert rows == session.execute(query, "sqlite")    # same on SQLite
    assert rows == session.execute(query, "reference") # and naively
    print(session.explain(query, "ra"))                # Fig. 17 plan
    prepared = session.prepare(query, "sqlite")        # skip rewrite+plan
    prepared.execute()

The lower-level pieces (``parse_query``, ``rewrite_query``,
``evaluate_ucqt``, the translators) remain importable for pipeline-level
experimentation.
"""

from repro.algebra import parse as parse_path
from repro.algebra import to_text as path_to_text
from repro.core import (
    RewriteOptions,
    RewriteResult,
    compatible_triples,
    merge_triples,
    rewrite_query,
    simplify,
)
from repro.engine import (
    Backend,
    GraphSession,
    PreparedQuery,
    available_backends,
    register_backend,
)
from repro.errors import (
    ConsistencyError,
    EmptyQueryError,
    ParseError,
    QueryTimeout,
    ReproError,
    SchemaError,
    TranslationError,
)
from repro.exec.result import ResultSet
from repro.graph import EvalBudget, PropertyGraph, evaluate_path
from repro.graph.model import yago_example_graph
from repro.query import CQT, UCQT, evaluate_ucqt, parse_query
from repro.schema import GraphSchema, SchemaBuilder, check_consistency
from repro.schema.builder import yago_example_schema
from repro.serve import BatchOutcome, BatchReport, QueryService

__version__ = "1.2.0"

__all__ = [
    "GraphSession",
    "PreparedQuery",
    "ResultSet",
    "QueryService",
    "BatchOutcome",
    "BatchReport",
    "Backend",
    "register_backend",
    "available_backends",
    "parse_path",
    "path_to_text",
    "parse_query",
    "simplify",
    "compatible_triples",
    "merge_triples",
    "rewrite_query",
    "RewriteOptions",
    "RewriteResult",
    "PropertyGraph",
    "GraphSchema",
    "SchemaBuilder",
    "check_consistency",
    "evaluate_path",
    "evaluate_ucqt",
    "EvalBudget",
    "CQT",
    "UCQT",
    "yago_example_schema",
    "yago_example_graph",
    "ReproError",
    "ParseError",
    "SchemaError",
    "ConsistencyError",
    "EmptyQueryError",
    "QueryTimeout",
    "TranslationError",
    "__version__",
]
