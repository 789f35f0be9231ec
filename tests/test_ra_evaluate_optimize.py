"""Unit tests for the RA evaluator, optimizer, stats and planner."""

import pytest

from repro.algebra.parser import parse
from repro.errors import QueryTimeout
from repro.graph.evaluator import EvalBudget, evaluate_path
from repro.planner.cost import cost_term
from repro.query.parser import parse_query
from repro.ra.evaluate import evaluate_term
from repro.ra.optimizer import optimize_term
from repro.ra.stats import Estimator
from repro.ra.terms import Fix, Join, Project, Rel, Rename, Var
from repro.ra.translate import SR, TR, TranslationContext, path_to_ra, ucqt_to_ra


class TestEvaluator:
    def test_projection_dedupes(self, ldbc_small):
        _, _, store = ldbc_small
        columns, rows = evaluate_term(Project(Rel("knows"), ("Sr",)), store)
        assert columns == ("Sr",)
        assert len(rows) == store.table("knows").distinct_count("Sr")

    def test_union_aligns_columns(self, ldbc_small):
        _, _, store = ldbc_small
        from repro.ra.terms import RaUnion

        flipped = Rename.of(Rel("knows"), {"Sr": "Tr", "Tr": "Sr"})
        columns, rows = evaluate_term(RaUnion(Rel("knows"), flipped), store)
        base = store.table("knows").rows
        assert rows == base | {(m, n) for (n, m) in base}

    def test_fixpoint_semi_naive_equals_reference(self, ldbc_small):
        _, graph, store = ldbc_small
        term = path_to_ra(parse("replyOf+"))
        _cols, rows = evaluate_term(term, store)
        assert frozenset(rows) == evaluate_path(graph, parse("replyOf+"))

    def test_nonlinear_fixpoint_naive_fallback(self, ldbc_small):
        """A quadratic step (X ⋈ X) still converges via the naive loop."""
        _, graph, store = ldbc_small
        ctx = TranslationContext()
        var = Var("X", (SR, TR))
        middle = "m_nl"
        step = Project(
            Join(
                Rename.of(var, {TR: middle}),
                Rename.of(Var("X", (SR, TR)), {SR: middle}),
            ),
            (SR, TR),
        )
        term = Fix("X", Rel("replyOf"), step)
        _cols, rows = evaluate_term(term, store)
        assert frozenset(rows) == evaluate_path(graph, parse("replyOf+"))

    def test_budget_timeout(self, ldbc_small):
        _, _, store = ldbc_small
        term = path_to_ra(parse("knows+"))
        with pytest.raises(QueryTimeout):
            evaluate_term(term, store, EvalBudget(-1.0))

    def test_shared_subterm_evaluated_once(self, ldbc_small):
        """Identity-shared fixpoints across union arms are cached."""
        _, _, store = ldbc_small
        from repro.ra.terms import RaUnion

        fix = path_to_ra(parse("replyOf+"))
        union = RaUnion(fix, fix)
        _cols, rows = evaluate_term(union, store)
        _cols2, expected = evaluate_term(fix, store)
        assert rows == expected


class TestOptimizer:
    @pytest.mark.parametrize(
        "text",
        [
            "x1, x2 <- (x1, knows/workAt/isLocatedIn, x2)",
            "x1, x2 <- (x1, replyOf+/hasCreator, x2) && Comment(x1)",
            "x1, x2 <- (x1, -hasCreator/-likes, x2) || (x1, knows, x2)",
            "x1, x2 <- (x1, (knows & (studyAt/-studyAt))+, x2)",
            "x1, x2 <- (x1, likes[hasTag], x2)",
        ],
    )
    def test_optimization_preserves_results(self, ldbc_small, text):
        _, _, store = ldbc_small
        term = ucqt_to_ra(parse_query(text), TranslationContext())
        _cols, expected = evaluate_term(term, store)
        optimized = optimize_term(term, store)
        _cols2, rows = evaluate_term(optimized, store)
        assert rows == expected

    def test_rename_collapse(self, ldbc_small):
        _, _, store = ldbc_small
        term = Rename.of(Rename.of(Rel("knows"), {"Sr": "a"}), {"a": "b"})
        optimized = optimize_term(term, store)
        assert optimized == Rename.of(Rel("knows"), {"Sr": "b"})

    def test_identity_rename_dropped(self, ldbc_small):
        _, _, store = ldbc_small
        term = Rename.of(Rel("knows"), {})
        assert optimize_term(term, store) == Rel("knows")

    def test_project_folds_into_scan(self, ldbc_small):
        _, _, store = ldbc_small
        term = Project(Rel("knows"), ("Sr",))
        assert optimize_term(term, store) == Rel("knows", ("Sr",))

    def test_self_join_collapses(self, ldbc_small):
        _, _, store = ldbc_small
        term = Join(Rel("knows"), Rel("knows"))
        assert optimize_term(term, store) == Rel("knows")

    def test_join_reorder_keeps_results(self, ldbc_small):
        _, graph, store = ldbc_small
        query = parse_query(
            "x1, x2 <- (x1, knows, y) && (y, workAt, z) && (z, isLocatedIn, x2)"
        )
        term = ucqt_to_ra(query)
        _c1, expected = evaluate_term(term, store)
        _c2, rows = evaluate_term(optimize_term(term, store), store)
        assert rows == expected


class TestStatsAndPlan:
    def test_base_table_estimate_exact(self, ldbc_small):
        _, _, store = ldbc_small
        estimator = Estimator(store)
        assert estimator.rows(Rel("knows")) == store.table("knows").row_count

    def test_join_estimate_positive_and_bounded(self, ldbc_small):
        _, _, store = ldbc_small
        estimator = Estimator(store)
        term = Join(
            Rename.of(Rel("knows"), {"Tr": "m"}),
            Rename.of(Rel("workAt"), {"Sr": "m"}),
        )
        estimate = estimator.rows(term)
        cartesian = estimator.rows(Rel("knows")) * estimator.rows(Rel("workAt"))
        assert 0 <= estimate <= cartesian

    def test_fixpoint_estimate_grows(self, ldbc_small):
        _, _, store = ldbc_small
        estimator = Estimator(store)
        fix = path_to_ra(parse("replyOf+"))
        assert estimator.rows(fix) > estimator.rows(Rel("replyOf"))

    def test_explain_contains_operators(self, ldbc_small):
        _, _, store = ldbc_small
        query = parse_query("x1, x2 <- (x1, knows/workAt, x2)")
        term = optimize_term(ucqt_to_ra(query), store)
        text = cost_term(term, store).render(store)
        assert text.startswith("Project")
        assert "Scan" in text and "on knows" in text
        assert "rows =" in text

    def test_explain_recursive_union(self, ldbc_small):
        _, _, store = ldbc_small
        term = optimize_term(path_to_ra(parse("replyOf+")), store)
        text = cost_term(term, store).render(store)
        assert text.startswith("Fixpoint")

    def test_fig17_property_semijoin_collapses_intermediate(self):
        """The schema-enriched plan prunes isLocatedIn through the
        Organisation semi-join; the baseline scans it whole (Fig. 17).
        The effect needs realistic table-size ratios, so this test uses
        the SF-1 dataset rather than the tiny shared fixture."""
        from repro.datasets.ldbc import generate_ldbc, ldbc_schema, ldbc_store

        store = ldbc_store(generate_ldbc(1, seed=42), ldbc_schema())
        baseline = parse_query("s, t <- (s, knows/workAt/isLocatedIn, t)")
        enriched = parse_query(
            "s, t <- (s, knows/workAt/{Organisation}isLocatedIn, t)"
        )
        base_term = optimize_term(ucqt_to_ra(baseline), store)
        enriched_term = optimize_term(ucqt_to_ra(enriched), store)
        base_plan = cost_term(base_term, store)
        enriched_plan = cost_term(enriched_term, store)
        # Same estimated final cardinality.
        assert abs(base_plan.rows - enriched_plan.rows) < 1.0

        def min_join_rows(node):
            best = float("inf")
            if node.kind == "join":
                best = node.rows
            for child in node.inputs:
                best = min(best, min_join_rows(child))
            return best

        assert min_join_rows(enriched_plan) < min_join_rows(base_plan)
