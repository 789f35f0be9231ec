"""Structural helpers over path-expression ASTs."""

from __future__ import annotations

from typing import Callable

from repro.algebra.ast import (
    AnnotatedConcat,
    BranchLeft,
    BranchRight,
    Concat,
    Conj,
    Edge,
    PathExpr,
    Plus,
    Repeat,
    Reverse,
    Union,
)


def rebuild(expr: PathExpr, children: tuple[PathExpr, ...]) -> PathExpr:
    """Reconstruct ``expr`` with new children (same node type and extras)."""
    if isinstance(expr, Edge):
        return expr
    if isinstance(expr, Reverse):
        (child,) = children
        return Reverse(child)  # type: ignore[arg-type]
    if isinstance(expr, Concat):
        left, right = children
        return Concat(left, right)
    if isinstance(expr, AnnotatedConcat):
        left, right = children
        return AnnotatedConcat(left, right, expr.labels)
    if isinstance(expr, Union):
        left, right = children
        return Union(left, right)
    if isinstance(expr, Conj):
        left, right = children
        return Conj(left, right)
    if isinstance(expr, BranchRight):
        main, branch = children
        return BranchRight(main, branch)
    if isinstance(expr, BranchLeft):
        branch, main = children
        return BranchLeft(branch, main)
    if isinstance(expr, Plus):
        (child,) = children
        return Plus(child)
    if isinstance(expr, Repeat):
        (child,) = children
        return Repeat(child, expr.lo, expr.hi)
    raise TypeError(f"unknown path expression node: {expr!r}")


def transform_bottom_up(
    expr: PathExpr, fn: Callable[[PathExpr], PathExpr]
) -> PathExpr:
    """Rewrite ``expr`` by applying ``fn`` to every node, children first."""
    children = tuple(transform_bottom_up(child, fn) for child in expr.children())
    if children != expr.children():
        expr = rebuild(expr, children)
    return fn(expr)


def strip_annotations(expr: PathExpr) -> PathExpr:
    """Erase node-label annotations, recovering the *underlying* expression.

    This is the inverse direction of the enrichment of §3.1.1 and is what
    Def. 9 partitions merged triples by.
    """

    def drop(node: PathExpr) -> PathExpr:
        if isinstance(node, AnnotatedConcat):
            return Concat(node.left, node.right)
        return node

    return transform_bottom_up(expr, drop)
