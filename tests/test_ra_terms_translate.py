"""Unit tests for RA terms and the UCQT2RRA translator (incl. Table 2)."""

import pytest

from repro.algebra.parser import parse
from repro.errors import EvaluationError, TranslationError
from repro.graph.evaluator import evaluate_path
from repro.query.parser import parse_query
from repro.ra.evaluate import evaluate_term
from repro.ra.terms import (
    Fix,
    Join,
    Project,
    RaUnion,
    Rel,
    Rename,
    SelectEq,
    Var,
    term_size,
)
from repro.ra.translate import (
    SR,
    TR,
    TranslationContext,
    cqt_to_ra,
    node_set_term,
    path_to_ra,
    ucqt_to_ra,
)


class TestColumns:
    def test_rel_columns(self, ldbc_small):
        _, _, store = ldbc_small
        assert Rel("knows").columns(store) == ("Sr", "Tr")

    def test_rel_projection_columns(self, ldbc_small):
        _, _, store = ldbc_small
        assert Rel("Person", ("Sr",)).columns(store) == ("Sr",)

    def test_rel_bad_projection(self, ldbc_small):
        _, _, store = ldbc_small
        with pytest.raises(EvaluationError):
            Rel("knows", ("Nope",)).columns(store)

    def test_rename_columns(self, ldbc_small):
        _, _, store = ldbc_small
        term = Rename.of(Rel("knows"), {"Sr": "x", "Tr": "y"})
        assert term.columns(store) == ("x", "y")

    def test_rename_swap(self, ldbc_small):
        _, _, store = ldbc_small
        term = Rename.of(Rel("knows"), {"Sr": "Tr", "Tr": "Sr"})
        assert term.columns(store) == ("Tr", "Sr")

    def test_rename_duplicate_rejected(self, ldbc_small):
        _, _, store = ldbc_small
        term = Rename.of(Rel("knows"), {"Sr": "Tr"})
        with pytest.raises(EvaluationError):
            term.columns(store)

    def test_join_columns_union(self, ldbc_small):
        _, _, store = ldbc_small
        term = Join(Rel("knows"), Rename.of(Rel("workAt"), {"Sr": "Tr", "Tr": "z"}))
        assert term.columns(store) == ("Sr", "Tr", "z")

    def test_union_requires_same_columns(self, ldbc_small):
        _, _, store = ldbc_small
        term = RaUnion(Rel("knows"), Rel("Person", ("Sr",)))
        with pytest.raises(EvaluationError):
            term.columns(store)

    def test_free_vars(self):
        var = Var("X", (SR, TR))
        fix = Fix("X", Rel("knows"), Project(Join(var, Rel("knows")), (SR, TR)))
        assert var.free_vars() == {"X"}
        assert fix.free_vars() == frozenset()

    def test_term_size(self):
        assert term_size(Join(Rel("a"), Rel("b"))) == 3


class TestPathTranslation:
    """Each operator's RA translation must agree with Fig. 5 semantics."""

    @pytest.mark.parametrize(
        "text",
        [
            "knows",
            "-knows",
            "knows/workAt",
            "knows | workAt",
            "knows & knows",
            "knows[workAt]",
            "[workAt]knows",
            "knows+",
            "replyOf+",
            "-replyOf+",
            "knows1..3",
            "knows/workAt/isLocatedIn",
            "(knows | workAt/-workAt)+",
        ],
    )
    def test_matches_reference_semantics(self, ldbc_small, text):
        _, graph, store = ldbc_small
        expr = parse(text)
        expected = evaluate_path(graph, expr)
        term = path_to_ra(expr)
        columns, rows = evaluate_term(term, store)
        assert set(columns) == {SR, TR}
        sr, tr = columns.index(SR), columns.index(TR)
        assert {(row[sr], row[tr]) for row in rows} == expected

    def test_conj_is_natural_join(self):
        term = path_to_ra(parse("a & b"))
        assert isinstance(term, Join)

    def test_closure_is_fixpoint(self):
        term = path_to_ra(parse("a+"))
        assert isinstance(term, Fix)

    def test_translation_cache_shares_subterms(self):
        ctx = TranslationContext()
        first = path_to_ra(parse("knows+"), ctx)
        second = path_to_ra(parse("knows+"), ctx)
        assert first is second


class TestCqtTranslation:
    def test_label_atom_becomes_semijoin(self, ldbc_small):
        _, graph, store = ldbc_small
        query = parse_query("x1, x2 <- (x1, knows, x2) && Person(x1)")
        term = ucqt_to_ra(query)
        columns, rows = evaluate_term(term, store)
        assert frozenset(rows) == evaluate_path(graph, parse("knows"))

    def test_self_loop_variable_uses_selecteq(self, ldbc_small):
        _, graph, store = ldbc_small
        query = parse_query("x1 <- (x1, knows/knows, x1)")
        term = ucqt_to_ra(query)
        assert any(isinstance(node, SelectEq) for node in term.walk())
        columns, rows = evaluate_term(term, store)
        expected = {
            (n,) for (n, m) in evaluate_path(graph, parse("knows/knows"))
            if n == m
        }
        assert frozenset(rows) == expected

    def test_closure_source_filter_pushed_into_fixpoint(self, ldbc_small):
        _, graph, store = ldbc_small
        query = parse_query("x1, x2 <- (x1, replyOf+, x2) && Comment(x1)")
        term = ucqt_to_ra(query)
        fixes = [node for node in term.walk() if isinstance(node, Fix)]
        assert len(fixes) == 1
        # the base of the fixpoint contains the node-set semi-join
        assert any(
            isinstance(node, Rel) and node.name == "Comment"
            for node in fixes[0].base.walk()
        )
        columns, rows = evaluate_term(term, store)
        comments = graph.nodes_with_label("Comment")
        expected = {
            (n, m)
            for (n, m) in evaluate_path(graph, parse("replyOf+"))
            if n in comments
        }
        assert frozenset(rows) == expected

    def test_closure_target_filter_flips_direction(self, ldbc_small):
        _, graph, store = ldbc_small
        query = parse_query("x1, x2 <- (x1, replyOf+, x2) && Post(x2)")
        term = ucqt_to_ra(query)
        columns, rows = evaluate_term(term, store)
        posts = graph.nodes_with_label("Post")
        expected = {
            (n, m)
            for (n, m) in evaluate_path(graph, parse("replyOf+"))
            if m in posts
        }
        assert frozenset(rows) == expected

    def test_empty_query_rejected(self):
        from repro.query.model import UCQT

        with pytest.raises(TranslationError):
            ucqt_to_ra(UCQT(head=("x", "y"), disjuncts=()))

    def test_node_set_term_union(self, ldbc_small):
        _, graph, store = ldbc_small
        term = node_set_term(frozenset({"City", "Country"}), "v")
        columns, rows = evaluate_term(term, store)
        assert columns == ("v",)
        expected = graph.nodes_with_labels(["City", "Country"])
        assert {row[0] for row in rows} == set(expected)


class TestTermKeys:
    """Terms are the planner's dictionary keys: the hash is cached per
    node, stays structural, and never crosses a pickle boundary."""

    #: Evaluated here and, natively, in the child processes below.
    SOURCE = (
        'RaUnion('
        'Fix("X", Rel("knows"), Project(Join('
        'Rename.of(Var("X", ("Sr", "Tr")), {"Tr": "m"}), '
        'Rename.of(Rel("knows"), {"Sr": "m"})), ("Sr", "Tr"))), '
        'SelectEq(Rel("knows", ("Sr", "Tr")), "Sr", "Tr"))'
    )

    def _term(self):
        return eval(self.SOURCE)

    def test_cached_hash_is_the_structural_hash(self):
        for node in self._term().walk():
            fields = [
                value for name, value in vars(node).items() if name != "_hash"
            ]
            assert hash(node) == hash((type(node).__name__, *fields))

    def test_equal_terms_built_separately_share_estimates(self, ldbc_small):
        from repro.ra.stats import Estimator

        first, second = self._term(), self._term()
        assert first is not second and first == second
        assert first != RaUnion(first.right, first.left)
        estimator = Estimator(ldbc_small[2])
        estimate = estimator.estimate(first)
        entries = len(estimator._cache)
        assert second in estimator._cache
        assert estimator.estimate(second) is estimate
        assert len(estimator._cache) == entries

    def test_pickle_round_trip_under_another_hash_seed(self):
        import os
        import pickle
        import subprocess
        import sys

        import repro

        payload = pickle.dumps(self._term())
        assert b"_hash" not in payload
        check = (
            "import pickle, sys\n"
            "from repro.ra.terms import *\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"native = {self.SOURCE}\n"
            "assert hash(loaded) == hash(native)\n"
            "assert {native: 'found'}[loaded] == 'found'\n"
            "assert all(hash(n) == hash(m) for n, m in"
            " zip(loaded.walk(), native.walk()))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        for seed in ("1", "2"):  # at most one can be this process's seed
            done = subprocess.run(
                [sys.executable, "-c", check],
                input=payload,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": src,
                },
                capture_output=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode()
