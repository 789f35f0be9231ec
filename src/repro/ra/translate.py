"""UCQT → recursive relational algebra (paper §4, UCQT2RRA).

Path expressions translate structurally; conjunction and branching follow
the paper's Table 2 (natural-join formulation); transitive closures become
µ fixpoints with left-linear recursion.

Label atoms produced by the schema rewriter become semi-joins against node
tables (the Fig. 15 pattern). When a label atom constrains a closure's
source (resp. target) variable, the semi-join is *pushed into the fixpoint
base* — with the recursion direction flipped to right-linear for target
constraints — which is the µ-RA "join pushing" rewriting of Jachiet et al.
that the paper's translator relies on.

Concatenation chains are *planned* when the context carries the planning
pass's :class:`~repro.ra.stats.Estimator`: a chain ``e0 /L0 e1 ... en``
is flattened, and dynamic programming over its sub-chains picks the
cheapest of every split point (a composition keeping its junction's
guard) and, for a sub-chain that starts or ends with a closure, that
closure seeded by the rest — ``R+ /L T = µX. (R /L T) ∪ (R ∘ X)``,
``S /L R+ = µX. (S /L R) ∪ (X ∘ R)`` — which pushes the neighbour's join
into the fixpoint. Without an estimator (SQL generation, the ``ra``
backend's greedy prepare, the paper's plan figures), or past
:data:`MAX_PLANNED_CHAIN` elements, a chain keeps its parsed bracketing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
from repro.errors import TranslationError
from repro.query.model import CQT, UCQT
from repro.ra.stats import Estimate, Estimator
from repro.ra.terms import (
    Fix,
    Join,
    Project,
    RaTerm,
    RaUnion,
    Rel,
    Rename,
    SelectEq,
    Var,
)

SR, TR = "Sr", "Tr"


@dataclass
class TranslationContext:
    """Fresh-name supply shared across one query translation.

    The context also memoises path-expression translation: the same
    sub-expression always maps to the *same term object*, so repeated
    closures across a rewritten query's disjuncts (e.g. ``knows+`` in every
    arm) share one fixpoint — which the evaluator and the SQL generator
    then compute/emit exactly once.
    """

    #: The planning pass's estimator; with one, concatenation chains
    #: are bracketed and closures seeded by cost (:func:`_plan_chain`).
    estimator: Estimator | None = None
    _counter: itertools.count = field(default_factory=itertools.count)
    _expr_cache: dict = field(default_factory=dict)

    def fresh_column(self) -> str:
        return f"m{next(self._counter)}"

    def fresh_fix_var(self) -> str:
        return f"X{next(self._counter)}"


def node_set_term(labels: frozenset[str], column: str) -> RaTerm:
    """Key-only scan of the union of node tables, exposed as ``column``."""
    terms = [
        Rename.of(Rel(label, (SR,)), {SR: column})
        for label in sorted(labels)
    ]
    result = terms[0]
    for term in terms[1:]:
        result = RaUnion(result, term)
    return result


def path_to_ra(
    expr: PathExpr, ctx: TranslationContext | None = None
) -> RaTerm:
    """Translate a path expression into an RA term with columns (Sr, Tr)."""
    ctx = ctx or TranslationContext()
    return _translate(expr, ctx)


def _translate(expr: PathExpr, ctx: TranslationContext) -> RaTerm:
    cached = ctx._expr_cache.get(expr)
    if cached is not None:
        return cached
    term = _translate_uncached(expr, ctx)
    ctx._expr_cache[expr] = term
    return term


def _translate_uncached(expr: PathExpr, ctx: TranslationContext) -> RaTerm:
    if isinstance(expr, Edge):
        return Rel(expr.label, (SR, TR))
    if isinstance(expr, Reverse):
        return Rename.of(Rel(expr.expr.label, (SR, TR)), {SR: TR, TR: SR})
    if isinstance(expr, (Concat, AnnotatedConcat)):
        return _translate_chain(expr, ctx)
    if isinstance(expr, Union):
        return RaUnion(_translate(expr.left, ctx), _translate(expr.right, ctx))
    if isinstance(expr, Conj):
        # Table 2: both sides share (Sr, Tr); natural join intersects.
        return Join(_translate(expr.left, ctx), _translate(expr.right, ctx))
    if isinstance(expr, BranchRight):
        # Table 2: main ⋈ ρ(π_Sr(branch): Sr→Tr) — an existential semi-join.
        main = _translate(expr.main, ctx)
        branch = Rename.of(
            Project(_translate(expr.branch, ctx), (SR,)), {SR: TR}
        )
        return Project(Join(main, branch), (SR, TR))
    if isinstance(expr, BranchLeft):
        branch = Project(_translate(expr.branch, ctx), (SR,))
        main = _translate(expr.main, ctx)
        return Project(Join(branch, main), (SR, TR))
    if isinstance(expr, Plus):
        return _closure(_translate(expr.expr, ctx), ctx, direction="left")
    if isinstance(expr, Repeat):
        return _translate(expr.expand(), ctx)
    raise TranslationError(f"cannot translate path expression node {expr!r}")


def _composition(
    left: RaTerm, right: RaTerm, labels: frozenset[str] | None, middle: str
) -> RaTerm:
    """``left / right`` joined on column ``middle``; ``labels`` (an
    annotated junction) semi-joins the middle against those node tables."""
    joined: RaTerm = Rename.of(left, {TR: middle})
    if labels is not None:
        joined = Join(joined, node_set_term(labels, middle))
    return Project(Join(joined, Rename.of(right, {SR: middle})), (SR, TR))


def _closure(
    base: RaTerm,
    ctx: TranslationContext,
    direction: str,
    seeded_base: RaTerm | None = None,
) -> Fix:
    """µ fixpoint for a transitive closure over ``base``.

    ``direction='left'``: X = B ∪ π(X ⋈ B) — grows paths at the target end.
    ``direction='right'``: X = B ∪ π(B ⋈ X) — grows paths at the source end.
    ``seeded_base`` optionally replaces the base (filter pushed into µ).
    """
    var_name = ctx.fresh_fix_var()
    middle = ctx.fresh_column()
    recursion = Var(var_name, (SR, TR))
    start = seeded_base if seeded_base is not None else base
    if direction == "left":
        step = Project(
            Join(
                Rename.of(recursion, {TR: middle}),
                Rename.of(base, {SR: middle}),
            ),
            (SR, TR),
        )
    elif direction == "right":
        step = Project(
            Join(
                Rename.of(base, {TR: middle}),
                Rename.of(recursion, {SR: middle}),
            ),
            (SR, TR),
        )
    else:  # pragma: no cover - internal misuse
        raise TranslationError(f"unknown closure direction {direction!r}")
    return Fix(var_name, start, step)


# -- the chain planner ---------------------------------------------------------
#: Chains with more elements than this keep their parsed bracketing: the
#: dynamic programme below is cubic in a chain's length.
MAX_PLANNED_CHAIN = 8

#: The junction column of the chain planner's arithmetic (never built).
_JUNCTION = "junction"


@dataclass(frozen=True)
class _Chain:
    """A concatenation chain ``e0 /L0 e1 /L1 ... en``, flattened.

    ``junctions[k]`` is the label set guarding the node between
    ``elements[k]`` and ``elements[k + 1]`` (None: a plain ``/``).
    ``parsed`` maps each span ``(i, j)`` the parser bracketed to its
    split point and its expression node.
    """

    elements: tuple[PathExpr, ...]
    junctions: tuple[frozenset[str] | None, ...]
    parsed: dict[tuple[int, int], tuple[int, PathExpr]]

    @classmethod
    def of(cls, expr: PathExpr) -> "_Chain":
        elements: list[PathExpr] = []
        junctions: list[frozenset[str] | None] = []
        parsed: dict[tuple[int, int], tuple[int, PathExpr]] = {}

        def flatten(node: PathExpr) -> None:
            if not isinstance(node, (Concat, AnnotatedConcat)):
                elements.append(node)
                return
            start = len(elements)
            flatten(node.left)
            split = len(elements)
            junctions.append(
                node.labels if isinstance(node, AnnotatedConcat) else None
            )
            flatten(node.right)
            parsed[(start, len(elements))] = (split, node)

        flatten(expr)
        return cls(tuple(elements), tuple(junctions), parsed)

    def key(self, i: int, j: int) -> tuple:
        """The translation-memo key of span ``(i, j)``'s planned term."""
        return ("chain", self.elements[i:j], self.junctions[i:j - 1])


#: How span ``(i, j)`` is built: ``("split", k)`` composes ``(i, k)``
#: with ``(k, j)``; ``("first",)`` is the leading closure seeded by the
#: rest, ``("last",)`` the trailing closure seeded by the head.
_Option = tuple


def _translate_chain(expr: PathExpr, ctx: TranslationContext) -> RaTerm:
    """A concatenation chain, bracketed and seeded by cost when the
    context carries an estimator and the chain is short enough, else as
    parsed."""
    chain = _Chain.of(expr)
    plan = None
    if ctx.estimator is not None and len(chain.elements) <= MAX_PLANNED_CHAIN:
        plan = _plan_chain(chain, ctx)
    return _build_chain(chain, 0, len(chain.elements), plan, ctx)


def _plan_chain(
    chain: _Chain, ctx: TranslationContext
) -> dict[tuple[int, int], _Option]:
    """The cheapest way to build every span of ``chain`` (dynamic
    programming over spans, shortest first).

    Options are costed by arithmetic over the leaf estimates, never by
    building them: a composition costs the rows its joins produce plus
    the rows its projection keeps (what the optimiser's join ordering
    ranks by), a closure the rows its step joins plus the rows it keeps.
    The parsed split is tried first and the seeded closures last, and an
    option replaces the best so far only when strictly cheaper, so ties
    keep the parsed bracketing and the unseeded closure.
    """
    estimator = ctx.estimator
    assert estimator is not None
    elements, junctions = chain.elements, chain.junctions
    count = len(elements)

    guards = [
        None if labels is None
        else estimator.estimate(node_set_term(labels, SR)).renamed(
            {SR: _JUNCTION}
        )
        for labels in junctions
    ]

    def compose(left: Estimate, right: Estimate, guard: Estimate | None):
        """(rows joined, estimate kept) of ``left / right``."""
        joined = left.renamed({TR: _JUNCTION})
        examined = 0.0
        if guard is not None:
            joined = joined.join(guard)
            examined += joined.rows
        joined = joined.join(right.renamed({SR: _JUNCTION}))
        return examined + joined.rows, joined.project((SR, TR))

    def closure(inner: Estimate, seed: Estimate, first: bool):
        """(cost, estimate) of the fixpoint of ``inner`` from ``seed``,
        growing at the source end when ``first``, else the target end."""
        total = estimator.closure(seed)
        step = compose(inner, total, None) if first else compose(total, inner, None)
        return step[0] + total.rows, total

    inners: list[Estimate | None] = []
    best: dict[tuple[int, int], tuple[float, Estimate, _Option]] = {}
    for index, element in enumerate(elements):
        inner = None
        if isinstance(element, Plus):
            inner = estimator.estimate(_translate(element.expr, ctx))
            cost, total = closure(inner, inner, False)
        else:
            cost, total = 0.0, estimator.estimate(_translate(element, ctx))
        inners.append(inner)
        best[(index, index + 1)] = (cost, total, ("leaf",))

    for length in range(2, count + 1):
        for i in range(count - length + 1):
            j = i + length
            default = chain.parsed.get((i, j), (j - 1, None))[0]
            candidates: list[tuple[float, Estimate, _Option]] = []
            for k in [default, *(k for k in range(i + 1, j) if k != default)]:
                left, right = best[(i, k)], best[(k, j)]
                examined, kept = compose(left[1], right[1], guards[k - 1])
                candidates.append(
                    (left[0] + right[0] + examined + kept.rows, kept, ("split", k))
                )
            first, last = inners[i], inners[j - 1]
            if first is not None:
                rest = best[(i + 1, j)]
                examined, seed = compose(first, rest[1], guards[i])
                cost, total = closure(first, seed, True)
                candidates.append(
                    (rest[0] + examined + seed.rows + cost, total, ("first",))
                )
            if last is not None:
                head = best[(i, j - 1)]
                examined, seed = compose(head[1], last, guards[j - 2])
                cost, total = closure(last, seed, False)
                candidates.append(
                    (head[0] + examined + seed.rows + cost, total, ("last",))
                )
            chosen = candidates[0]
            for candidate in candidates[1:]:
                if candidate[0] < chosen[0] * (1.0 - 1e-9):
                    chosen = candidate
            best[(i, j)] = chosen
    return {span: entry[2] for span, entry in best.items()}


def _build_chain(
    chain: _Chain,
    i: int,
    j: int,
    plan: dict[tuple[int, int], _Option] | None,
    ctx: TranslationContext,
) -> RaTerm:
    """The term of span ``(i, j)``: as ``plan`` chose, else as parsed.

    A planned span is memoised by its content, so an equal sub-chain
    anywhere in the query is one term; a parsed one by its node, as
    every other path expression is.
    """
    elements = chain.elements
    if j - i == 1:
        return _translate(elements[i], ctx)
    if plan is None:
        split, node = chain.parsed[(i, j)]
        option: _Option = ("split", split)
        key: object = node
    else:
        option, key = plan[(i, j)], chain.key(i, j)
    cached = ctx._expr_cache.get(key)
    if cached is not None:
        return cached
    if option[0] == "split":
        split = option[1]
        labels = chain.junctions[split - 1]
        # Fresh names in the order the parsed translation drew them.
        middle = ctx.fresh_column() if labels is not None else None
        left = _build_chain(chain, i, split, plan, ctx)
        right = _build_chain(chain, split, j, plan, ctx)
        if middle is None:
            middle = ctx.fresh_column()
        term = _composition(left, right, labels, middle)
    elif option[0] == "first":
        # R+ /L T = µX. (R /L T) ∪ (R ∘ X)
        inner = _translate(elements[i].expr, ctx)
        rest = _build_chain(chain, i + 1, j, plan, ctx)
        seed = _composition(inner, rest, chain.junctions[i], ctx.fresh_column())
        term = _closure(inner, ctx, direction="right", seeded_base=seed)
    else:
        # S /L R+ = µX. (S /L R) ∪ (X ∘ R)
        inner = _translate(elements[j - 1].expr, ctx)
        head = _build_chain(chain, i, j - 1, plan, ctx)
        seed = _composition(
            head, inner, chain.junctions[j - 2], ctx.fresh_column()
        )
        term = _closure(inner, ctx, direction="left", seeded_base=seed)
    ctx._expr_cache[key] = term
    return term


def _relation_term(
    expr: PathExpr,
    source_labels: frozenset[str] | None,
    target_labels: frozenset[str] | None,
    ctx: TranslationContext,
) -> tuple[RaTerm, bool, bool]:
    """RA term for one CQT relation, with fixpoint filter pushing.

    Returns ``(term, source_handled, target_handled)`` — the flags tell the
    caller whether the label constraints were already absorbed into the
    term (pushed into a fixpoint) or still need an outer semi-join.
    """
    if not isinstance(expr, Plus):
        return _translate(expr, ctx), False, False

    inner = _translate(expr.expr, ctx)
    if source_labels is not None:
        seeded = Join(node_set_term(source_labels, SR), inner)
        term = _closure(inner, ctx, direction="left", seeded_base=seeded)
        return term, True, False
    if target_labels is not None:
        seeded = Join(inner, node_set_term(target_labels, TR))
        term = _closure(inner, ctx, direction="right", seeded_base=seeded)
        return term, False, True
    return _translate(expr, ctx), False, False


def cqt_to_ra(
    cqt: CQT, ctx: TranslationContext | None = None
) -> RaTerm:
    """Translate a CQT: join all relations on shared variables, semi-join
    label atoms against node tables, project the head."""
    ctx = ctx or TranslationContext()
    atom_labels = {var: cqt.labels_for(var) for var in cqt.variables()}
    handled: set[str] = set()

    term: RaTerm | None = None
    for relation in cqt.relations:
        source_constraint = (
            atom_labels.get(relation.source)
            if relation.source not in handled
            else None
        )
        target_constraint = (
            atom_labels.get(relation.target)
            if relation.target not in handled
            else None
        )
        rel_term, src_done, dst_done = _relation_term(
            relation.expr, source_constraint, target_constraint, ctx
        )
        if src_done:
            handled.add(relation.source)
        if dst_done:
            handled.add(relation.target)

        if relation.source == relation.target:
            temp = ctx.fresh_column()
            rel_term = Project(
                SelectEq(
                    Rename.of(rel_term, {SR: relation.source, TR: temp}),
                    relation.source,
                    temp,
                ),
                (relation.source,),
            )
        else:
            rel_term = Rename.of(
                rel_term, {SR: relation.source, TR: relation.target}
            )
        term = rel_term if term is None else Join(term, rel_term)

    if term is None:
        raise TranslationError("CQT without relations cannot be translated")

    for var, labels in sorted(atom_labels.items()):
        if labels is None or var in handled:
            continue
        term = Join(term, node_set_term(labels, var))

    return Project(term, tuple(cqt.head))


def ucqt_to_ra(
    query: UCQT, ctx: TranslationContext | None = None
) -> RaTerm:
    """Translate a UCQT as the union of its disjuncts' RA terms."""
    ctx = ctx or TranslationContext()
    if query.is_empty:
        raise TranslationError(
            "the schema proved this query empty; evaluate to ∅ directly"
        )
    terms = [cqt_to_ra(cqt, ctx) for cqt in query.disjuncts]
    result = terms[0]
    for term in terms[1:]:
        result = RaUnion(result, term)
    return result
