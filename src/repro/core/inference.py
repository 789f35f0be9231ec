"""The path-expression / schema-triple compatibility relation (paper Fig. 8).

``TS(ϕ) = {t | ⊢S ϕ : t}`` is computed by structural recursion that mirrors
the inference rules exactly:

* **TBASIC** — an edge label is compatible with each basic schema triple
  carrying it (Def. 5).
* **TMINUS** — reversing swaps source and target.
* **TCONCAT** — triples chain when the left target equals the right source;
  the junction becomes an annotated concatenation ``ψ1/l ψ2``.
* **TUNION L/R** — a union is compatible with each side's triples.
* **TCONJ** — both sides must agree on source *and* target labels.
* **TBRANCH R/L** — branches chain like concatenation but keep the main
  expression's endpoints.
* **TPLUS** — delegates to ``PlC`` (Def. 8, :mod:`repro.core.plus`).

Bounded repetitions (``knows1..3``) are UCQT sugar, expanded before
inference: one triple per schema path of every length up to ``hi``, and
nested repetitions multiply those lengths. So no rule may build a set of
over ``4 × max_disjuncts`` triples (1024 at the default); each set is
checked as it grows, and :class:`TriplesBoundExceeded` makes the rewriter
keep the relation as written (sound by Prop. 4.3).

The engine memoises per sub-expression: ``TS`` is requested repeatedly for
shared subterms (e.g. by TPLUS and by Table 6 statistics collection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
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
from repro.core.plus import (
    DEFAULT_MAX_DISJUNCTS,
    PlusStatistics,
    plus_compatibility_with_stats,
)
from repro.errors import UnknownLabelError
from repro.schema.model import GraphSchema
from repro.schema.triples import SchemaTriple, triples_for_edge_label


_SOURCE = attrgetter("source")
_TARGET = attrgetter("target")
_ENDS = attrgetter("source", "target")


class TriplesBoundExceeded(Exception):
    """A ``TS`` set grew past :attr:`InferenceEngine.max_triples`."""


@dataclass
class InferenceEngine:
    """Computes ``TS(ϕ)`` against a fixed schema, with memoisation.

    Attributes:
        schema: the graph schema S.
        max_disjuncts: the rewriter's expansion bound: ``PlC`` stops after
            twice as many path steps, and no set exceeds :attr:`max_triples`.
        strict_labels: when True (default), an edge label absent from the
            schema raises :class:`UnknownLabelError`; when False it simply
            yields no triples (the query is unsatisfiable under S).
    """

    schema: GraphSchema
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
    strict_labels: bool = True
    _cache: dict[PathExpr, frozenset[SchemaTriple]] = field(default_factory=dict)
    #: PlC statistics per closed subterm, for Table 6.
    plus_stats: dict[Plus, PlusStatistics] = field(default_factory=dict)

    @property
    def max_triples(self) -> int:
        """The largest ``TS`` set any rule may build."""
        return 4 * self.max_disjuncts

    def triples(self, expr: PathExpr) -> frozenset[SchemaTriple]:
        """``TS(expr)`` — all schema triples compatible with ``expr``
        (:class:`TriplesBoundExceeded` past :attr:`max_triples`)."""
        cached = self._cache.get(expr)
        if cached is not None:
            return cached
        result = self._compute(expr)
        self._check(result)
        self._cache[expr] = result
        return result

    def _check(self, triples: set[SchemaTriple] | frozenset[SchemaTriple]) -> None:
        if len(triples) > self.max_triples:
            raise TriplesBoundExceeded(f"over {self.max_triples} triples")

    # -- rule dispatch ---------------------------------------------------
    def _compute(self, expr: PathExpr) -> frozenset[SchemaTriple]:
        if isinstance(expr, Edge):
            return self._basic(expr.label, reverse=False)
        if isinstance(expr, Reverse):
            return self._basic(expr.expr.label, reverse=True)
        if isinstance(expr, Concat):  # TCONCAT: chain through a label
            return self._join(
                expr.left, expr.right, _TARGET, _SOURCE,
                lambda t1, t2: SchemaTriple(
                    t1.source,
                    AnnotatedConcat(t1.expr, t2.expr, frozenset({t1.target})),
                    t2.target,
                ),
            )
        if isinstance(expr, Union):
            return self.triples(expr.left) | self.triples(expr.right)
        if isinstance(expr, Conj):  # TCONJ: both ends must agree
            return self._join(
                expr.left, expr.right, _ENDS, _ENDS,
                lambda t1, t2: SchemaTriple(
                    t1.source, Conj(t1.expr, t2.expr), t1.target
                ),
            )
        if isinstance(expr, BranchRight):  # TBRANCH R: off main's target
            return self._join(
                expr.main, expr.branch, _TARGET, _SOURCE,
                lambda main, branch: SchemaTriple(
                    main.source, BranchRight(main.expr, branch.expr), main.target
                ),
            )
        if isinstance(expr, BranchLeft):  # TBRANCH L: off main's source
            return self._join(
                expr.main, expr.branch, _SOURCE, _SOURCE,
                lambda main, branch: SchemaTriple(
                    main.source, BranchLeft(branch.expr, main.expr), main.target
                ),
            )
        if isinstance(expr, Plus):
            return self._plus(expr)
        if isinstance(expr, Repeat):
            return self.triples(expr.expand())
        if isinstance(expr, AnnotatedConcat):
            raise TypeError(
                "inference runs on plain path expressions; annotations are "
                "produced, not consumed, by TS"
            )
        raise TypeError(f"unknown path expression node: {expr!r}")

    # -- individual rules --------------------------------------------------
    def _basic(self, label: str, reverse: bool) -> frozenset[SchemaTriple]:
        """TBASIC and TMINUS."""
        if not self.schema.has_edge_label(label):
            if self.strict_labels:
                raise UnknownLabelError(label, kind="edge")
            return frozenset()
        base = triples_for_edge_label(self.schema, label)
        if not reverse:
            return base
        return frozenset(
            SchemaTriple(t.target, Reverse(Edge(label)), t.source) for t in base
        )

    def _join(
        self,
        left: PathExpr,
        right: PathExpr,
        left_key: Callable[[SchemaTriple], object],
        right_key: Callable[[SchemaTriple], object],
        build: Callable[[SchemaTriple, SchemaTriple], SchemaTriple],
    ) -> frozenset[SchemaTriple]:
        """``build`` over every pair of ``TS(left)`` and ``TS(right)``
        triples whose keys match, checked against the bound per triple."""
        left_triples = self.triples(left)
        right_by_key: dict[object, list[SchemaTriple]] = {}
        for triple in self.triples(right):
            right_by_key.setdefault(right_key(triple), []).append(triple)
        result: set[SchemaTriple] = set()
        for t1 in left_triples:
            for t2 in right_by_key.get(left_key(t1), ()):
                result.add(build(t1, t2))
                self._check(result)
        return frozenset(result)

    def _plus(self, expr: Plus) -> frozenset[SchemaTriple]:
        """TPLUS via PlC (Def. 8)."""
        inner = self.triples(expr.expr)
        result, stats = plus_compatibility_with_stats(
            expr.expr, inner, self.max_disjuncts
        )
        self.plus_stats[expr] = stats
        return result


def compatible_triples(
    schema: GraphSchema,
    expr: PathExpr,
    strict_labels: bool = True,
) -> frozenset[SchemaTriple]:
    """One-shot ``TS(ϕ)`` (constructs a fresh :class:`InferenceEngine`)."""
    return InferenceEngine(schema, strict_labels=strict_labels).triples(expr)
