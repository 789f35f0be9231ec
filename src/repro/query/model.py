"""Conjunctive queries with Tarski's algebra — CQT and UCQT (paper Def. 4).

A CQT is a set of *relations* ``(x, ϕ, y)`` over node variables, a set of
*label atoms* ``ηA(x) ∈ L`` restricting the labels of nodes bound to ``x``,
a tuple of head variables and a set of existential body variables.

A UCQT is a union of union-compatible CQTs (same head variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from repro.algebra.ast import PathExpr
from repro.algebra.printer import to_text
from repro.errors import EvaluationError


@dataclass(frozen=True)
class LabelAtom:
    """``ηA(var) ∈ labels`` — the node bound to ``var`` must carry one of
    the given labels. The paper's single-label atoms are the singleton case
    (Def. 4); label *sets* arise from merged triples (Def. 9)."""

    var: str
    labels: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", frozenset(self.labels))
        if not self.labels:
            raise EvaluationError(f"label atom on {self.var!r} has no labels")

    def __str__(self) -> str:
        if len(self.labels) == 1:
            return f"{next(iter(self.labels))}({self.var})"
        return "{" + ",".join(sorted(self.labels)) + "}(" + self.var + ")"


@dataclass(frozen=True)
class Relation:
    """``(source, ϕ, target)`` — a path-expression edge between variables."""

    source: str
    expr: PathExpr
    target: str

    def __str__(self) -> str:
        return f"({self.source}, {to_text(self.expr)}, {self.target})"


@dataclass(frozen=True)
class CQT:
    """A conjunctive query with Tarski's algebra (Def. 4)."""

    head: tuple[str, ...]
    relations: tuple[Relation, ...]
    atoms: tuple[LabelAtom, ...] = ()

    def __post_init__(self) -> None:
        if not self.head:
            raise EvaluationError("a CQT needs at least one head variable")
        if len(set(self.head)) != len(self.head):
            raise EvaluationError(f"duplicate head variables in {self.head}")
        known = self.variables()
        for var in self.head:
            if var not in known or not self.relations:
                # A head variable must occur in some relation to be bound.
                if var not in {v for r in self.relations for v in (r.source, r.target)}:
                    raise EvaluationError(
                        f"head variable {var!r} does not occur in any relation"
                    )
        for atom in self.atoms:
            if atom.var not in known:
                raise EvaluationError(
                    f"label atom on {atom.var!r} references an unknown variable"
                )

    def variables(self) -> frozenset[str]:
        """All variables occurring in relations."""
        return frozenset(
            v for rel in self.relations for v in (rel.source, rel.target)
        )

    @property
    def body(self) -> frozenset[str]:
        """Existential (non-head) variables."""
        return self.variables() - frozenset(self.head)

    def is_recursive(self) -> bool:
        """True if any relation's expression has a transitive closure."""
        return any(rel.expr.is_recursive() for rel in self.relations)

    def labels_for(self, var: str) -> frozenset[str] | None:
        """Intersection of all label atoms on ``var`` (None = unconstrained)."""
        constraint: frozenset[str] | None = None
        for atom in self.atoms:
            if atom.var == var:
                constraint = (
                    atom.labels if constraint is None else constraint & atom.labels
                )
        return constraint

    def __str__(self) -> str:
        parts = [str(rel) for rel in self.relations]
        parts.extend(str(atom) for atom in self.atoms)
        return f"{', '.join(self.head)} <- " + " && ".join(parts)


@dataclass(frozen=True)
class UCQT:
    """A union of union-compatible CQTs (paper §2.4.1)."""

    head: tuple[str, ...]
    disjuncts: tuple[CQT, ...]

    def __post_init__(self) -> None:
        for cqt in self.disjuncts:
            if cqt.head != self.head:
                raise EvaluationError(
                    f"CQT head {cqt.head} is not union-compatible with {self.head}"
                )

    @property
    def is_empty(self) -> bool:
        """True when schema analysis proved the query returns nothing."""
        return not self.disjuncts

    def is_recursive(self) -> bool:
        return any(cqt.is_recursive() for cqt in self.disjuncts)

    def __iter__(self) -> Iterator[CQT]:
        return iter(self.disjuncts)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # Rendered once per (frozen) query: the text keys the session's
        # rewrite, plan and planner caches.
        if not self.disjuncts:
            return f"{', '.join(self.head)} <- FALSE"
        return " || ".join(str(cqt) for cqt in self.disjuncts)


def drop_unsatisfiable_disjuncts(query: UCQT) -> UCQT:
    """Remove disjuncts whose label atoms intersect to the empty set.

    The schema rewriter *appends* its inferred label atoms to any
    user-written ones, so a disjunct can end up demanding disjoint label
    sets for one variable — satisfiable by no node. The graph-side
    engines evaluate such disjuncts to nothing, but the relational
    translators reject an empty node-set semi-join; normalising here
    keeps every backend on identical (and minimal) input.
    """
    keep = tuple(
        cqt
        for cqt in query.disjuncts
        if all(cqt.labels_for(var) != frozenset() for var in cqt.variables())
    )
    if len(keep) == len(query.disjuncts):
        return query
    return UCQT(query.head, keep)


def single_relation_query(
    expr: PathExpr, source: str = "x1", target: str = "x2"
) -> UCQT:
    """The UCQT ``source, target <- (source, expr, target)`` used all over
    the paper's workload tables."""
    cqt = CQT(head=(source, target), relations=(Relation(source, expr, target),))
    return UCQT(head=(source, target), disjuncts=(cqt,))
