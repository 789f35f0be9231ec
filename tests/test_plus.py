"""Unit tests for the PlC algorithm (Def. 8)."""

import pytest

from repro.algebra.ast import Edge, Plus
from repro.algebra.parser import parse
from repro.core.inference import InferenceEngine
from repro.core.plus import plus_compatibility, plus_compatibility_with_stats
from repro.schema.model import GraphSchema, SchemaEdge, SchemaNode
from repro.schema.triples import SchemaTriple


def t(source, label, target):
    return SchemaTriple(source, Edge(label), target)


class TestAcyclic:
    def test_chain_enumerates_all_paths(self):
        triples = frozenset([t("A", "e", "B"), t("B", "e", "C")])
        result = plus_compatibility(Edge("e"), triples)
        endpoints = {(r.source, r.target) for r in result}
        assert endpoints == {("A", "B"), ("B", "C"), ("A", "C")}
        assert not any(r.expr.is_recursive() for r in result)

    def test_path_expressions_are_annotated_chains(self):
        triples = frozenset([t("A", "e", "B"), t("B", "e", "C")])
        result = plus_compatibility(Edge("e"), triples)
        long_path = next(r for r in result if r.source == "A" and r.target == "C")
        assert "{B}" in str(long_path.expr)

    def test_diamond(self):
        triples = frozenset(
            [t("A", "e", "B"), t("A", "e", "C"), t("B", "e", "D"), t("C", "e", "D")]
        )
        result = plus_compatibility(Edge("e"), triples)
        ad_paths = [r for r in result if (r.source, r.target) == ("A", "D")]
        # Two distinct length-2 routes: via B and via C.
        assert len(ad_paths) == 2

    def test_empty_input(self):
        assert plus_compatibility(Edge("e"), frozenset()) == frozenset()


class TestCycles:
    def test_self_loop_keeps_closure(self):
        triples = frozenset([t("A", "e", "A")])
        result = plus_compatibility(Edge("e"), triples)
        assert result == {SchemaTriple("A", Plus(Edge("e")), "A")}

    def test_two_cycle(self):
        triples = frozenset([t("A", "e", "B"), t("B", "e", "A")])
        result = plus_compatibility(Edge("e"), triples)
        closed = Plus(Edge("e"))
        assert result == {
            SchemaTriple("A", closed, "B"),
            SchemaTriple("B", closed, "A"),
            SchemaTriple("A", closed, "A"),
            SchemaTriple("B", closed, "B"),
        }

    def test_tail_into_cycle_keeps_closure(self):
        # A -> B, B -> B: every path through B taints with the cycle.
        triples = frozenset([t("A", "e", "B"), t("B", "e", "B")])
        result = plus_compatibility(Edge("e"), triples)
        assert all(r.expr.is_recursive() for r in result)
        assert {(r.source, r.target) for r in result} == {
            ("A", "B"), ("B", "B"),
        }

    def test_mixed_graph_has_both_kinds(self):
        # acyclic part P -> C -> R; cyclic part X -> X.
        triples = frozenset(
            [t("P", "e", "C"), t("C", "e", "R"), t("X", "e", "X")]
        )
        result, stats = plus_compatibility_with_stats(Edge("e"), triples)
        assert stats.fixed_paths == 3  # P->C, C->R, P->C->R
        assert stats.closure_kept == 1  # (X, e+, X)

    def test_cycle_with_exit(self):
        # A <-> B cycle, B -> C exit: all triples keep the closure.
        triples = frozenset(
            [t("A", "e", "B"), t("B", "e", "A"), t("B", "e", "C")]
        )
        result = plus_compatibility(Edge("e"), triples)
        assert all(r.expr.is_recursive() for r in result)
        assert ("A", "C") in {(r.source, r.target) for r in result}


class TestOverflowFallback:
    def test_fallback_to_closures(self):
        # A complete acyclic 6-layer label graph explodes in simple paths.
        triples = []
        layers = 7
        for layer in range(layers - 1):
            for i in range(3):
                for j in range(3):
                    triples.append(t(f"L{layer}_{i}", "e", f"L{layer+1}_{j}"))
        result, stats = plus_compatibility_with_stats(
            Edge("e"), frozenset(triples), max_disjuncts=25
        )
        assert stats.fixed_paths == 0
        assert stats.closure_kept == len(result)
        # Soundness of the fallback: reachable pairs are all present.
        endpoints = {(r.source, r.target) for r in result}
        assert ("L0_0", f"L{layers-1}_2") in endpoints

    def test_small_max_disjuncts_keeps_the_closure(self):
        # Three labels in a row, each joined to the next by three parallel
        # triples: e+ has 3 + 3 + 9 closure-free paths.
        labels = ("A", "B", "C")
        schema = GraphSchema(
            [SchemaNode(label) for label in labels],
            [
                SchemaEdge(source, f"e{i}", target)
                for source, target in zip(labels, labels[1:])
                for i in range(3)
            ],
        )
        expr = parse("(e0 | e1 | e2)+")
        default = InferenceEngine(schema)
        assert all(not t.expr.is_recursive() for t in default.triples(expr))
        assert default.plus_stats[expr].fixed_paths == 15
        small = InferenceEngine(schema, max_disjuncts=2)  # 4 path steps
        kept = small.triples(expr)
        assert {t.expr for t in kept} == {expr}
        assert {(t.source, t.target) for t in kept} == {
            ("A", "B"), ("B", "C"), ("A", "C"),
        }
        assert small.plus_stats[expr].fixed_paths == 0

    def test_no_fallback_when_under_cap(self):
        triples = frozenset([t("A", "e", "B"), t("B", "e", "C")])
        result, stats = plus_compatibility_with_stats(
            Edge("e"), triples, max_disjuncts=500
        )
        assert stats.fixed_paths == 3


class TestStatsShape:
    def test_fig1_isl_stats(self, fig1_schema):
        from repro.schema.triples import triples_for_edge_label

        base = triples_for_edge_label(fig1_schema, "isLocatedIn")
        result, stats = plus_compatibility_with_stats(Edge("isLocatedIn"), base)
        assert stats.fixed_paths == 6
        assert stats.path_lengths == (1, 1, 1, 2, 2, 3)
        assert stats.closure_kept == 0
