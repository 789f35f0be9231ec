"""Unit tests for structural helpers (strip, transform, rebuild)."""

import pytest

from repro.algebra.ast import (
    AnnotatedConcat,
    BranchLeft,
    BranchRight,
    Concat,
    Conj,
    Edge,
    Plus,
    Repeat,
    Reverse,
    Union,
)
from repro.algebra.ops import (
    rebuild,
    strip_annotations,
    transform_bottom_up,
)


class TestStripAnnotations:
    def test_simple(self):
        expr = AnnotatedConcat(Edge("a"), Edge("b"), frozenset({"X"}))
        assert strip_annotations(expr) == Concat(Edge("a"), Edge("b"))

    def test_nested(self):
        inner = AnnotatedConcat(Edge("a"), Edge("b"), frozenset({"X"}))
        expr = AnnotatedConcat(inner, Edge("c"), frozenset({"Y"}))
        assert strip_annotations(expr) == Concat(
            Concat(Edge("a"), Edge("b")), Edge("c")
        )

    def test_under_branch(self):
        expr = BranchRight(
            AnnotatedConcat(Edge("a"), Edge("b"), frozenset({"X"})), Edge("c")
        )
        assert strip_annotations(expr) == BranchRight(
            Concat(Edge("a"), Edge("b")), Edge("c")
        )

    def test_noop_on_plain(self):
        expr = Conj(Edge("a"), Plus(Edge("b")))
        assert strip_annotations(expr) == expr


class TestRebuild:
    @pytest.mark.parametrize(
        "expr",
        [
            Concat(Edge("a"), Edge("b")),
            Union(Edge("a"), Edge("b")),
            Conj(Edge("a"), Edge("b")),
            BranchRight(Edge("a"), Edge("b")),
            BranchLeft(Edge("a"), Edge("b")),
            Plus(Edge("a")),
            Repeat(Edge("a"), 1, 2),
            Reverse(Edge("a")),
            AnnotatedConcat(Edge("a"), Edge("b"), frozenset({"X"})),
        ],
    )
    def test_identity_rebuild(self, expr):
        assert rebuild(expr, expr.children()) == expr

    def test_rebuild_with_new_children(self):
        expr = Concat(Edge("a"), Edge("b"))
        assert rebuild(expr, (Edge("x"), Edge("y"))) == Concat(
            Edge("x"), Edge("y")
        )

    def test_rebuild_preserves_annotation(self):
        expr = AnnotatedConcat(Edge("a"), Edge("b"), frozenset({"X"}))
        rebuilt = rebuild(expr, (Edge("c"), Edge("d")))
        assert rebuilt == AnnotatedConcat(Edge("c"), Edge("d"), frozenset({"X"}))

    def test_rebuild_preserves_branch_left_order(self):
        expr = BranchLeft(Edge("test"), Edge("main"))
        rebuilt = rebuild(expr, expr.children())
        assert rebuilt.branch == Edge("test")
        assert rebuilt.main == Edge("main")


class TestTransform:
    def test_bottom_up_rename(self):
        def bump(node):
            if isinstance(node, Edge):
                return Edge(node.label.upper())
            return node

        expr = Concat(Edge("a"), Plus(Edge("b")))
        assert transform_bottom_up(expr, bump) == Concat(
            Edge("A"), Plus(Edge("B"))
        )
