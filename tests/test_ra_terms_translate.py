"""Unit tests for RA terms and the UCQT2RRA translator (incl. Table 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.parser import parse
from repro.errors import EvaluationError, TranslationError
from repro.graph.evaluator import evaluate_path
from repro.query.parser import parse_query
from repro.ra import terms
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


class TestChainPlanner:
    """With an estimator the translator plans each concatenation chain;
    without one, or past ``MAX_PLANNED_CHAIN`` elements, it keeps the
    parsed bracketing."""

    @staticmethod
    def _planned(store, text):
        from repro.ra.stats import Estimator

        query = parse_query(f"x1, x2 <- (x1, {text}, x2)")
        return query, ucqt_to_ra(
            query, TranslationContext(estimator=Estimator(store))
        )

    @pytest.mark.parametrize(
        "text, seed_table",
        [
            # S / R+: the closure grows from the head's targets.
            ("knows/replyOf+", "knows"),
            # R+ / T: the closure grows back from the rest's sources.
            ("replyOf+/hasCreator", "hasCreator"),
        ],
    )
    def test_closure_is_seeded_by_its_neighbour(
        self, ldbc_small, text, seed_table
    ):
        _, graph, store = ldbc_small
        query, term = self._planned(store, text)
        (fix,) = [node for node in term.walk() if isinstance(node, Fix)]
        assert seed_table in {
            node.name for node in fix.base.walk() if isinstance(node, Rel)
        }
        columns, rows = evaluate_term(term, store)
        assert frozenset(rows) == evaluate_path(graph, parse(text))

    def test_long_chain_keeps_parsed_bracketing(self, ldbc_small):
        from repro.ra.translate import MAX_PLANNED_CHAIN

        _, _, store = ldbc_small
        text = "/".join(["knows", "workAt", "-workAt"] * 3)
        assert text.count("/") + 1 > MAX_PLANNED_CHAIN
        query, term = self._planned(store, text)
        assert term is ucqt_to_ra(query, TranslationContext())


#: A term spec is ``(class name, *fields)``, with a nested spec in each
#: field that holds a sub-term; these are those fields' positions.
_CHILD_FIELDS = {
    "Project": (0,), "Rename": (0,), "SelectEq": (0,),
    "Join": (0, 1), "RaUnion": (0, 1), "Fix": (1, 2),
}
_COLUMN = st.sampled_from(["Sr", "Tr", "m"])
_COLUMNS = st.lists(_COLUMN, min_size=1, max_size=3).map(tuple)
_TERM_SPECS = st.recursive(
    st.one_of(
        st.tuples(
            st.just("Rel"), st.sampled_from(["knows", "workAt"]),
            st.none() | _COLUMNS,
        ),
        st.tuples(st.just("Var"), st.sampled_from(["X", "Y"]), _COLUMNS),
    ),
    lambda child: st.one_of(
        st.tuples(st.just("Project"), child, _COLUMNS),
        st.tuples(
            st.just("Rename"), child,
            st.lists(st.tuples(_COLUMN, _COLUMN), max_size=2).map(tuple),
        ),
        st.tuples(st.just("SelectEq"), child, _COLUMN, _COLUMN),
        st.tuples(st.just("Join"), child, child),
        st.tuples(st.just("RaUnion"), child, child),
        st.tuples(st.just("Fix"), st.sampled_from(["X", "Y"]), child, child),
    ),
    max_leaves=10,
)


def _build(spec):
    """The term ``spec`` describes, built bottom-up."""
    kind, *fields = spec
    children = _CHILD_FIELDS.get(kind, ())
    return getattr(terms, kind)(
        *(_build(f) if i in children else f for i, f in enumerate(fields))
    )


def _subspecs(spec):
    yield spec
    kind, *fields = spec
    for index in _CHILD_FIELDS.get(kind, ()):
        yield from _subspecs(fields[index])


class TestTermKeys:
    """Terms are the planner's dictionary keys, so they are interned:
    equal terms are one object however and wherever they were built,
    and the intern table keeps no term alive on its own."""

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

    def test_equal_terms_built_separately_are_the_same_object(self):
        import copy
        import dataclasses
        import pickle

        first, second = self._term(), self._term()
        assert first is second
        assert first is not RaUnion(first.right, first.left)
        for node in first.walk():  # identity, not a structural walk
            assert type(node).__eq__ is object.__eq__
            assert type(node).__hash__ is object.__hash__
        # Every way of making a term lands on the interned one.
        scan = Rel("knows", ("Sr", "Tr"))
        assert Rel(name="knows", projection=("Sr", "Tr")) is scan
        assert Rel("knows") is Rel("knows", None) is Rel("knows", projection=None)
        assert dataclasses.replace(Rel("knows"), projection=("Sr", "Tr")) is scan
        assert Rename.of(scan, {"Tr": "m", "Sr": "n"}) is Rename(
            scan, (("Sr", "n"), ("Tr", "m"))
        )
        assert copy.copy(first) is first
        assert copy.deepcopy(first) is first
        assert pickle.loads(pickle.dumps(first)) is first

    def test_equal_terms_built_separately_share_estimates(self, ldbc_small):
        from repro.ra.stats import Estimator

        estimator = Estimator(ldbc_small[2])
        estimate = estimator.estimate(self._term())
        entries = len(estimator._cache)
        assert self._term() in estimator._cache
        assert estimator.estimate(self._term()) is estimate
        assert len(estimator._cache) == entries

    def test_pickle_round_trip_under_another_hash_seed(self):
        import os
        import pickle
        import subprocess
        import sys

        import repro

        payload = pickle.dumps(self._term())
        check = (
            "import pickle, sys\n"
            "from repro.ra.terms import *\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"native = {self.SOURCE}\n"
            "assert loaded is native\n"
            "assert {native: 'found'}[loaded] == 'found'\n"
            "assert all(n is m for n, m in zip(loaded.walk(), native.walk()))\n"
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

    @settings(max_examples=150, deadline=None)
    @given(_TERM_SPECS, _TERM_SPECS)
    def test_rebuilt_trees_are_identical_and_different_ones_distinct(
        self, spec, other
    ):
        term = _build(spec)
        assert _build(spec) is term
        assert (_build(other) is term) == (other == spec)
        # Within one tree: one object per distinct sub-structure.
        subspecs = list(_subspecs(spec))
        subterms = [_build(sub) for sub in subspecs]
        assert len({id(sub) for sub in subterms}) == len(set(subspecs))
        assert all(
            (a is b) == (x == y)
            for x, a in zip(subspecs, subterms)
            for y, b in zip(subspecs, subterms)
        )

    def test_threads_racing_to_build_a_term_get_one_object(self):
        import sys
        import threading

        nonce = f"race{id(object())}"
        barrier = threading.Barrier(8)
        results: list[list] = [[] for _ in range(8)]

        def build(slot: int) -> None:
            barrier.wait(timeout=60)
            for index in range(2000):
                scan = Rel(f"{nonce}-{index}", ("Sr", "Tr"))
                results[slot].append(
                    Project(
                        Join(scan, Rename.of(scan, {"Sr": "m", "Tr": "Sr"})),
                        ("Sr",),
                    )
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(built) == 2000 for built in results)
        for built in zip(*results):
            assert all(term is built[0] for term in built)
            for nodes in zip(*(term.walk() for term in built)):
                assert all(node is nodes[0] for node in nodes)

    def test_intern_table_lets_go_of_dropped_plans(self):
        import gc

        from repro.datasets.ldbc import ldbc_session
        from repro.datasets.yago import yago_session
        from repro.engine.options import ExecOptions
        from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

        gc.collect()
        before = len(terms._INTERNED)
        cost = ExecOptions(planner="cost")
        # Both sessions stay open until the count is read: a store that
        # outlives this test (a session-scoped fixture's) may already
        # hold every term one dataset's plans intern, so only their
        # union is sure to add terms, and only while it is alive.
        sessions = []
        for queries, open_session in (
            (YAGO_QUERIES, lambda: yago_session(0.02)),
            (LDBC_QUERIES, lambda: ldbc_session(0.05)),
        ):
            with open_session() as session:
                for query in queries:
                    session.prepare(query.text, exec_options=cost)
                    session.prepare(query.text, rewrite=False)
            sessions.append(session)
        gc.collect()
        assert len(terms._INTERNED) > before
        del session, sessions
        gc.collect()
        assert len(terms._INTERNED) == before

