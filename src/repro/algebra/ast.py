"""AST for path expressions in Tarski's algebra (paper Fig. 3).

The grammar implemented here::

    phi ::= le                  single edge label          (Edge)
          | phi1 / phi2         concatenation              (Concat)
          | phi1 | phi2         union                      (Union)
          | phi1 & phi2         conjunction                (Conj)
          | phi1[phi2]          branch right               (BranchRight)
          | [phi1]phi2          branch left                (BranchLeft)
          | -le                 reverse (labels only)      (Reverse)
          | phi+                transitive closure         (Plus)
          | phi{lo..hi}         bounded repetition (sugar) (Repeat)

plus the *annotated* concatenation of §3.1.1, ``psi1 /L psi2`` where ``L``
is a set of node labels (:class:`AnnotatedConcat`).

All nodes are immutable and hashable so they can be used as dict keys and
set members (the inference engine memoises on them), and equality is
structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class PathExpr:
    """Base class for path-expression nodes."""

    def children(self) -> tuple["PathExpr", ...]:
        """Direct sub-expressions, left to right."""
        return ()

    def walk(self) -> Iterator["PathExpr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Number of AST nodes."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the AST (a single label has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(k.depth() for k in kids)

    def edge_labels(self) -> frozenset[str]:
        """All edge labels mentioned anywhere in the expression."""
        return frozenset(
            node.label for node in self.walk() if isinstance(node, Edge)
        )

    def is_recursive(self) -> bool:
        """True if the expression contains a transitive closure (paper: RQ)."""
        return any(isinstance(node, Plus) for node in self.walk())

    def is_annotated(self) -> bool:
        """True if any concatenation carries a node-label annotation."""
        return any(isinstance(node, AnnotatedConcat) for node in self.walk())

    # Operator sugar so tests and examples can compose expressions naturally.
    def __truediv__(self, other: "PathExpr") -> "Concat":
        return Concat(self, _as_expr(other))

    def __or__(self, other: "PathExpr") -> "Union":
        return Union(self, _as_expr(other))

    def __and__(self, other: "PathExpr") -> "Conj":
        return Conj(self, _as_expr(other))

    def plus(self) -> "Plus":
        return Plus(self)


def _as_expr(value: "PathExpr | str") -> PathExpr:
    if isinstance(value, PathExpr):
        return value
    if isinstance(value, str):
        return Edge(value)
    raise TypeError(f"cannot treat {value!r} as a path expression")


@dataclass(frozen=True)
class Edge(PathExpr):
    """A single edge label ``le``."""

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("edge label must be non-empty")

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Reverse(PathExpr):
    """``-le`` — traverse an edge backwards.

    The paper restricts reverse to single edge labels (Fig. 3); general
    reverses add no expressive power. We enforce the same restriction.
    """

    expr: Edge

    def __post_init__(self) -> None:
        if not isinstance(self.expr, Edge):
            raise ValueError(
                "reverse is only defined on single edge labels (paper Fig. 3)"
            )

    def children(self) -> tuple[PathExpr, ...]:
        return (self.expr,)

    @property
    def label(self) -> str:
        return self.expr.label

    def __str__(self) -> str:
        return f"-{self.expr}"


@dataclass(frozen=True)
class Concat(PathExpr):
    """``phi1 / phi2`` — paths following ``phi1`` then ``phi2``."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[PathExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class AnnotatedConcat(PathExpr):
    """``psi1 /L psi2`` — annotated concatenation (§3.1.1).

    Matches paths that follow ``left``, arrive at a node whose label is in
    ``labels``, and continue with ``right``. ``labels`` is a frozenset of
    node labels; the single-label form of the paper is the singleton case,
    sets arise from triple merging (Def. 9).
    """

    left: PathExpr
    right: PathExpr
    labels: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", frozenset(self.labels))
        if not self.labels:
            raise ValueError("annotation label set must be non-empty")

    def children(self) -> tuple[PathExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class Union(PathExpr):
    """``phi1 | phi2`` — union of path results."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[PathExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class Conj(PathExpr):
    """``phi1 & phi2`` — conjunction (intersection of path results)."""

    left: PathExpr
    right: PathExpr

    def children(self) -> tuple[PathExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class BranchRight(PathExpr):
    """``phi1[phi2]`` — existential test on the *target* of ``phi1``.

    Returns pairs ``(n, m)`` of ``phi1`` such that some ``phi2`` path leaves
    ``m`` (Fig. 5).
    """

    main: PathExpr
    branch: PathExpr

    def children(self) -> tuple[PathExpr, ...]:
        return (self.main, self.branch)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class BranchLeft(PathExpr):
    """``[phi1]phi2`` — existential test on the *source* of ``phi2``."""

    branch: PathExpr
    main: PathExpr

    def children(self) -> tuple[PathExpr, ...]:
        return (self.branch, self.main)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class Plus(PathExpr):
    """``phi+`` — transitive closure, union of ``phi^i`` for i >= 1."""

    expr: PathExpr

    def children(self) -> tuple[PathExpr, ...]:
        return (self.expr,)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


@dataclass(frozen=True)
class Repeat(PathExpr):
    """``phi{lo..hi}`` — bounded repetition, e.g. ``knows1..3`` in Table 4.

    Syntactic sugar for ``phi^lo | ... | phi^hi``; :func:`expand` performs
    the desugaring. Kept as a node so printed queries stay readable.
    """

    expr: PathExpr
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"invalid repetition bounds {self.lo}..{self.hi}")

    def children(self) -> tuple[PathExpr, ...]:
        return (self.expr,)

    def expand(self) -> PathExpr:
        """Desugar into a union of fixed-length concatenations."""
        alternatives = [
            concat_all([self.expr] * k) for k in range(self.lo, self.hi + 1)
        ]
        return union_all(alternatives)

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)


def concat_all(parts: Sequence[PathExpr]) -> PathExpr:
    """Right-fold a sequence of expressions into nested concatenations."""
    parts = list(parts)
    if not parts:
        raise ValueError("cannot concatenate an empty sequence")
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Concat(part, result)
    return result


def union_all(parts: Iterable[PathExpr]) -> PathExpr:
    """Right-fold a sequence of expressions into nested unions."""
    parts = list(parts)
    if not parts:
        raise ValueError("cannot union an empty sequence")
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Union(part, result)
    return result
