"""Unit tests for Q translation (Fig. 9) and the full rewriter pipeline."""

import pytest

from repro.algebra.ast import AnnotatedConcat, Edge
from repro.algebra.parser import parse
from repro.core.merge import MergedTriple
from repro.core.rewriter import RewriteOptions, rewrite_query
from repro.core.translate import (
    cqt_of_merged_triple,
    q_translate,
    schema_enriched_query,
)
from repro.errors import TranslationError
from repro.query.evaluation import evaluate_ucqt
from repro.query.parser import parse_query


def fresh_factory():
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"g{counter[0]}"

    return fresh


class TestQTranslation:
    def test_plain_expression_single_relation(self):
        fragment = q_translate("a", "b", parse("x/y+"), fresh_factory())
        assert len(fragment.relations) == 1
        assert fragment.atoms == []

    def test_annotated_junction_splits(self):
        expr = AnnotatedConcat(Edge("x"), Edge("y"), frozenset({"L"}))
        fragment = q_translate("a", "b", expr, fresh_factory())
        assert len(fragment.relations) == 2
        (atom,) = fragment.atoms
        assert atom.labels == {"L"}
        # The two relations chain through the fresh variable.
        assert fragment.relations[0].target == fragment.relations[1].source

    def test_unannotated_runs_stay_whole(self):
        """Example 13: only the annotated junction becomes a variable."""
        expr = parse("lvIn/isL/{REG}isL/dw+")
        fragment = q_translate("a", "b", expr, fresh_factory())
        assert len(fragment.relations) == 2
        texts = sorted(str(r.expr) for r in fragment.relations)
        assert texts == ["isL/dw+", "lvIn/isL"]

    def test_branch_with_annotation_decomposes(self):
        inner = AnnotatedConcat(Edge("x"), Edge("y"), frozenset({"L"}))
        expr = parse("m")  # placeholder, build BranchRight manually
        from repro.algebra.ast import BranchRight

        branch_expr = BranchRight(Edge("m"), inner)
        fragment = q_translate("a", "b", branch_expr, fresh_factory())
        # main relation (a, m, b) + branch split into two via annotation
        assert len(fragment.relations) == 3

    def test_cqt_of_merged_triple_endpoint_atoms(self):
        triple = MergedTriple(
            frozenset({"S"}), Edge("e"), frozenset({"T", "U"})
        )
        cqt = cqt_of_merged_triple(triple)
        labels = {atom.var: atom.labels for atom in cqt.atoms}
        assert labels == {"x1": {"S"}, "x2": {"T", "U"}}

    def test_schema_enriched_query_union(self):
        triples = [
            MergedTriple(None, Edge("a"), None),
            MergedTriple(None, Edge("b"), None),
        ]
        query = schema_enriched_query(triples)
        assert len(query.disjuncts) == 2


class TestRewriterPipeline:
    def test_example_13_rewrite(self, fig1_schema):
        query = parse_query(
            "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)"
        )
        result = rewrite_query(query, fig1_schema)
        assert not result.reverted
        (cqt,) = result.query.disjuncts
        assert len(cqt.relations) == 2
        (atom,) = cqt.atoms
        assert atom.labels == {"REGION"}

    def test_semantics_preserved_on_example(self, fig1_schema, fig2_graph):
        query = parse_query("x1, x2 <- (x1, livesIn/isLocatedIn+, x2)")
        result = rewrite_query(query, fig1_schema)
        assert evaluate_ucqt(fig2_graph, query) == evaluate_ucqt(
            fig2_graph, result.query
        )

    def test_reverted_when_schema_uninformative(self, fig1_schema):
        query = parse_query("x1, x2 <- (x1, isMarriedTo+, x2)")
        result = rewrite_query(query, fig1_schema)
        assert result.reverted
        assert result.query is query

    def test_union_splitting_alone_reverts(self, fig1_schema):
        query = parse_query("x1, x2 <- (x1, isMarriedTo | hasChild, x2)")
        # hasChild is not in fig1 schema; use labels that exist
        query = parse_query("x1, x2 <- (x1, isMarriedTo | dealsWith, x2)")
        result = rewrite_query(query, fig1_schema)
        assert result.reverted

    def test_unsatisfiable_relation_empties_query(self, fig1_schema):
        query = parse_query("x1, x2 <- (x1, owns/dealsWith, x2)")
        result = rewrite_query(query, fig1_schema)
        assert result.is_empty
        assert not result.reverted

    def test_unsatisfiable_disjunct_dropped_other_kept(self, fig1_schema):
        query = parse_query(
            "x1, x2 <- (x1, owns/dealsWith, x2) || (x1, owns, x2)"
        )
        result = rewrite_query(query, fig1_schema)
        assert len(result.query.disjuncts) == 1

    def test_closure_elimination_stats(self, fig1_schema):
        query = parse_query("x1, x2 <- (x1, owns/isLocatedIn+, x2)")
        result = rewrite_query(query, fig1_schema)
        assert result.stats.closures_eliminated == 1
        assert sorted(result.stats.surviving_fixed_lengths) == [1, 2, 3]

    def test_kept_closure_not_counted_eliminated(self, fig1_schema):
        query = parse_query("x1, x2 <- (x1, dealsWith+, x2)")
        result = rewrite_query(query, fig1_schema)
        assert result.stats.closures_eliminated == 0

    def test_multi_relation_rewrite(self, fig1_schema, fig2_graph):
        query = parse_query(
            "y <- (y, livesIn/isLocatedIn+, m) && (y, owns, z)"
        )
        result = rewrite_query(query, fig1_schema)
        assert evaluate_ucqt(fig2_graph, query) == evaluate_ucqt(
            fig2_graph, result.query
        )

    def test_existing_atoms_preserved(self, fig1_schema):
        query = parse_query(
            "x1, x2 <- (x1, owns/isLocatedIn+, x2) && PERSON(x1)"
        )
        result = rewrite_query(query, fig1_schema)
        for cqt in result.query.disjuncts:
            assert any(
                atom.var == "x1" and atom.labels == {"PERSON"}
                for atom in cqt.atoms
            )

    def test_fresh_variables_avoid_collisions(self, fig1_schema):
        query = parse_query(
            "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2) && (x1, owns, _v1)"
        )
        result = rewrite_query(query, fig1_schema)
        for cqt in result.query.disjuncts:
            variables = [v for rel in cqt.relations for v in (rel.source, rel.target)]
            # _v1 from the original query must not be reused as a fresh name
            assert variables.count("_v1") == 1 or not any(
                "_v1" == rel.source or "_v1" == rel.target
                for rel in cqt.relations
                if rel.expr.edge_labels() != {"owns"}
            )


class TestExpansionBound:
    """Inference stops at ``4 × max_disjuncts`` triples per set, and the
    relation that crosses it keeps its original form."""

    def test_nested_repetition_reverts_in_time(self):
        import time

        from repro.datasets.random_graphs import random_path_expr, random_schema
        from repro.query.model import single_relation_query

        schema = random_schema(3335)
        expr = random_path_expr(schema, 4252, max_depth=4)
        assert str(expr) == "(e0+2..4)1..3"
        started = time.perf_counter()
        result = rewrite_query(single_relation_query(expr), schema)
        assert time.perf_counter() - started < 1.0
        assert result.reverted
        assert result.query == result.original
        assert result.stats.relations_reverted_by_guard == 1

    def test_bound_follows_max_disjuncts(self, fig1_schema):
        from repro.core.inference import InferenceEngine, TriplesBoundExceeded

        expr = parse("isLocatedIn1..3")
        assert len(InferenceEngine(fig1_schema).triples(expr)) == 6
        with pytest.raises(TriplesBoundExceeded):
            InferenceEngine(fig1_schema, max_disjuncts=1).triples(expr)
        query = parse_query("x1, x2 <- (x1, isLocatedIn1..3, x2)")
        result = rewrite_query(query, fig1_schema, RewriteOptions(max_disjuncts=1))
        assert result.reverted
        assert result.stats.relations_reverted_by_guard == 1

    def test_seed_770_query_answers_within_its_budget(self):
        from repro.datasets.random_graphs import random_graph, random_schema
        from repro.engine import GraphSession

        schema = random_schema(770)
        query = "x1, x2 <- (x1, (((e0)2..4)1..3)2..4, x2)"
        with GraphSession(random_graph(schema, 770), schema) as session:
            expected = session.execute(query, "reference", rewrite=False)
            answer = session.execute(query, timeout_seconds=1.0)
        assert expected and answer == expected


def _match_stripping_every_node(original, merged):
    """Table 6's matcher as it stood before it was handed the stripped
    expression: it strips the merged subterm at every node it visits."""
    from repro.algebra.ast import BranchLeft, BranchRight, Concat, Conj, Plus
    from repro.algebra.ops import strip_annotations
    from repro.core.rewriter import _spine_parts

    if isinstance(original, Plus):
        if strip_annotations(merged) == original:
            return []
        return None if merged.is_recursive() else [_spine_parts(merged)]
    if isinstance(original, Concat) and isinstance(
        merged, (Concat, AnnotatedConcat)
    ):
        left = _match_stripping_every_node(original.left, merged.left)
        right = _match_stripping_every_node(original.right, merged.right)
        return None if left is None or right is None else left + right
    if isinstance(original, (Conj, BranchRight, BranchLeft)) and type(
        original
    ) is type(merged):
        first, second = (
            _match_stripping_every_node(*pair)
            for pair in zip(original.children(), merged.children())
        )
        return None if first is None or second is None else first + second
    return [] if strip_annotations(merged) == original else None


def _closure_statistics_cases():
    """The 48 workload queries on their schemas, and a nested repetition
    over random schema 8220 with its first edge also run backwards that
    rewrites into 102 CQTs."""
    from repro.datasets.ldbc import ldbc_schema
    from repro.datasets.random_graphs import random_schema
    from repro.datasets.yago import yago_schema
    from repro.query.model import single_relation_query
    from repro.schema.model import GraphSchema, SchemaEdge, SchemaNode
    from repro.workloads.ldbc_queries import ldbc_queries
    from repro.workloads.yago_queries import yago_queries

    cases = [(yago_schema(), q.query) for q in yago_queries()]
    cases += [(ldbc_schema(), q.query) for q in ldbc_queries()]
    schema = random_schema(8220)
    edges = list(schema.edges())
    first = edges[0]
    closing = SchemaEdge(first.target_label, first.edge_label, first.source_label)
    schema = GraphSchema(
        [SchemaNode(label) for label in sorted(schema.node_labels)],
        [*edges, closing],
        name=schema.name,
    )
    expr = parse("(((-e2/-e2)1..1+2..4 | e1)1..2/-e1)1..2")
    cases.append((schema, single_relation_query(expr)))
    return cases


class TestClosureStatistics:
    """Table 6 bookkeeping strips each merged expression once, and reads
    the statistics that stripping at every visited node read."""

    def test_stats_equal_stripping_at_every_node(self, monkeypatch):
        from repro.core import rewriter

        cases = _closure_statistics_cases()
        assert len(cases) == 49
        stats = [rewrite_query(query, schema).stats for schema, query in cases]
        monkeypatch.setattr(
            rewriter,
            "_match_plus_lengths",
            lambda original, merged, _: _match_stripping_every_node(
                original, merged
            ),
        )
        for (schema, query), fast in zip(cases, stats):
            assert rewrite_query(query, schema).stats == fast

    def test_each_merged_expression_is_stripped_once(self, monkeypatch):
        from unittest import mock

        from repro.core import rewriter

        schema, query = _closure_statistics_cases()[-1]
        strip = mock.Mock(wraps=rewriter.strip_annotations)
        monkeypatch.setattr(rewriter, "strip_annotations", strip)
        result = rewrite_query(query, schema)
        assert len(result.query.disjuncts) == 102
        # 115,702 calls when the matcher stripped at every node.
        assert strip.call_count == 102


class TestOptions:
    def test_max_disjuncts_guard_reverts(self, fig1_schema):
        options = RewriteOptions(max_disjuncts=1)
        query = parse_query("x1, x2 <- (x1, owns/isLocatedIn+, x2)")
        result = rewrite_query(query, fig1_schema, options)
        assert result.reverted
        assert result.stats.relations_reverted_by_guard >= 1

    def test_no_merge_mode_produces_more_disjuncts(self, fig1_schema):
        base = rewrite_query(
            parse_query("x1, x2 <- (x1, isLocatedIn+, x2)"), fig1_schema
        )
        unmerged = rewrite_query(
            parse_query("x1, x2 <- (x1, isLocatedIn+, x2)"),
            fig1_schema,
            RewriteOptions(apply_merge=False),
        )
        assert len(unmerged.query.disjuncts) >= len(base.query.disjuncts)

    def test_no_redundancy_keeps_atoms(self, fig1_schema, fig2_graph):
        query = parse_query("x1, x2 <- (x1, livesIn/isLocatedIn, x2)")
        kept = rewrite_query(
            query, fig1_schema, RewriteOptions(apply_redundancy_removal=False)
        )
        # without removal, the junction {CITY} atom must appear
        assert any(cqt.atoms for cqt in kept.query.disjuncts)
        # and semantics still hold
        assert evaluate_ucqt(fig2_graph, query) == evaluate_ucqt(
            fig2_graph, kept.query
        )

    def test_no_simplification_flag(self, fig1_schema):
        query = parse_query("x1, x2 <- (x1, (isMarriedTo+)+, x2)")
        with_simplify = rewrite_query(query, fig1_schema)
        without = rewrite_query(
            query, fig1_schema, RewriteOptions(apply_simplification=False)
        )
        assert with_simplify.reverted or without.reverted or True
