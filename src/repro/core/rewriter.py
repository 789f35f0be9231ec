"""The full schema-based rewriting pipeline (paper Fig. 10, Rewriter box).

``rewrite_query`` runs, for every relation of every CQT of a UCQT query:

1. **PPS** — preliminary path simplification (R1–R5),
2. **SQ-Rewriter** — type inference producing ``TS(ϕ)``,
3. **SQ-Merge** — triple merging and redundant-annotation removal,
4. translation back into CQT fragments (``Q``/``C``), distributing the
   resulting union over the enclosing conjunctive query.

The rewriting is *opportunistic* (paper §5.2): when the schema yields no
optimisation for any relation, the original query is returned unchanged and
the result is flagged ``reverted`` — guaranteeing no performance
regression. A blow-up guard reverts individual relations whose rewriting
would exceed ``max_disjuncts`` alternatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.algebra.ast import PathExpr, Plus
from repro.algebra.ops import strip_annotations
from repro.algebra.printer import to_text
from repro.core.inference import InferenceEngine
from repro.core.merge import MergedTriple, merge_triples
from repro.core.plus import DEFAULT_MAX_PATHS
from repro.core.redundancy import remove_redundant_annotations
from repro.core.simplify import simplify
from repro.core.translate import QueryFragment, q_translate
from repro.query.model import CQT, UCQT, LabelAtom, Relation
from repro.schema.model import GraphSchema


@dataclass(frozen=True)
class RewriteOptions:
    """Pipeline switches (used by the ablation benchmarks).

    Attributes:
        apply_simplification: run R1–R5 first (PPS stage).
        apply_merge: merge compatible triples (Def. 9); disabling emits one
            CQT per raw triple.
        apply_redundancy_removal: drop schema-implied annotations (§3.2.2).
        max_paths: simple-path cap for ``PlC``.
        max_disjuncts: cap on the number of CQTs a single rewritten query
            may contain before the rewriter falls back to the original.
        strict_labels: raise on edge labels missing from the schema.
    """

    apply_simplification: bool = True
    apply_merge: bool = True
    apply_redundancy_removal: bool = True
    max_paths: int = DEFAULT_MAX_PATHS
    max_disjuncts: int = 256
    strict_labels: bool = True


@dataclass
class PlusRewriteInfo:
    """Closure-elimination bookkeeping for one ``ϕ+`` subterm (Table 6)."""

    expr_text: str
    eliminated: bool
    fixed_paths: int
    path_lengths: tuple[int, ...]


@dataclass
class RewriteStats:
    """What the rewriter did to one query."""

    relations_total: int = 0
    relations_enriched: int = 0
    relations_unsatisfiable: int = 0
    relations_reverted_by_guard: int = 0
    annotations_added: int = 0
    label_atoms_added: int = 0
    closures: list[PlusRewriteInfo] = field(default_factory=list)
    #: Lengths of the fixed paths that actually appear in the rewritten
    #: query (Table 6's #Paths / Min / Avg / Max are computed from these).
    surviving_fixed_lengths: list[int] = field(default_factory=list)

    @property
    def closures_eliminated(self) -> int:
        return sum(1 for c in self.closures if c.eliminated)


@dataclass
class RewriteResult:
    """Outcome of :func:`rewrite_query`."""

    original: UCQT
    query: UCQT
    reverted: bool
    stats: RewriteStats

    @property
    def is_empty(self) -> bool:
        return self.query.is_empty


#: ``path expression -> (merged triples or None, stats it contributes)``:
#: the naming-independent half of rewriting a relation, computed once per
#: distinct expression of one query's rewrite.
RelationAnalyses = dict[
    PathExpr, tuple[list[MergedTriple] | None, RewriteStats]
]


def _analyse_relation(
    expr: PathExpr, schema: GraphSchema, options: RewriteOptions
) -> tuple[list[MergedTriple] | None, RewriteStats]:
    """Inference, merge, redundancy removal, guard and reversion check
    for one relation's path expression — everything that does not
    depend on variable names.

    Returns the merged triples the relation rewrites into — None when
    the rewriter should keep the original relation (nothing gained or
    guard tripped), [] when it is unsatisfiable under the schema — and
    the statistics the relation contributes wherever it is rewritten.
    """
    stats = RewriteStats()
    if options.apply_simplification:
        expr = simplify(expr)

    engine = InferenceEngine(
        schema, max_paths=options.max_paths, strict_labels=options.strict_labels
    )
    triples = engine.triples(expr)

    if not triples:
        stats.relations_unsatisfiable += 1
        _record_closure_stats(expr, engine, [], stats)
        return [], stats

    if options.apply_merge:
        merged = merge_triples(triples)
    else:
        merged = [
            MergedTriple(frozenset({t.source}), t.expr, frozenset({t.target}))
            for t in sorted(triples, key=lambda t: (to_text(t.expr), t.source, t.target))
        ]

    if options.apply_redundancy_removal:
        merged = [remove_redundant_annotations(schema, t) for t in merged]

    _record_closure_stats(expr, engine, merged, stats)

    if len(merged) > options.max_disjuncts:
        stats.relations_reverted_by_guard += 1
        return None, stats

    # Reversion check (paper §5.2): the schema taught us nothing when the
    # merged triples carry no annotations and no endpoint constraints and
    # their expressions are exactly the union/repetition expansion of the
    # (simplified) original — i.e. the rewrite would only split unions the
    # engine can evaluate equally well in place.
    if all(
        t.sources is None and t.targets is None and not t.expr.is_annotated()
        for t in merged
    ):
        expansion = _union_expansion(expr, limit=4 * options.max_disjuncts)
        if expansion is not None and {t.expr for t in merged} == expansion:
            return None, stats

    return merged, stats


def _relation_alternatives(
    relation: Relation,
    schema: GraphSchema,
    options: RewriteOptions,
    stats: RewriteStats,
    fresh,
    analyses: RelationAnalyses,
) -> list[QueryFragment] | None:
    """Rewrite one relation into alternative fragments (one per merged
    triple). Returns None when the rewriter should keep the original
    relation (nothing gained or guard tripped); [] when the relation is
    unsatisfiable under the schema. Only the translation into fragments,
    with its ``fresh`` variable names, runs per call; the analysis is
    taken from (or added to) ``analyses``."""
    analysis = analyses.get(relation.expr)
    if analysis is None:
        analysis = analyses[relation.expr] = _analyse_relation(
            relation.expr, schema, options
        )
    merged, contributed = analysis
    stats.relations_unsatisfiable += contributed.relations_unsatisfiable
    stats.relations_reverted_by_guard += contributed.relations_reverted_by_guard
    stats.closures.extend(contributed.closures)
    stats.surviving_fixed_lengths.extend(contributed.surviving_fixed_lengths)
    if merged is None:
        return None

    fragments: list[QueryFragment] = []
    for triple in merged:
        fragment = QueryFragment()
        q_translate(relation.source, relation.target, triple.expr, fresh, fragment)
        if triple.sources is not None:
            fragment.atoms.append(LabelAtom(relation.source, triple.sources))
        if triple.targets is not None:
            fragment.atoms.append(LabelAtom(relation.target, triple.targets))
        fragments.append(fragment)
    return fragments


def _record_closure_stats(
    expr: PathExpr,
    engine: InferenceEngine,
    merged: list[MergedTriple],
    stats: RewriteStats,
) -> None:
    """Table 6 bookkeeping: per ``ϕ+`` subterm, was the closure eliminated
    from the *final* rewritten query, and which fixed-length paths survive?

    ``PlC`` enumerates fixed paths for the closure in isolation; outer
    composition (TCONCAT) prunes most of them. We therefore match each
    surviving merged expression against the union expansion of the original
    expression, treating every ``ϕ+`` position as a wildcard that either
    stayed ``ϕ+`` or became a closure-free chain whose spine length we
    record.
    """
    plus_terms = list(engine.plus_stats)
    if not plus_terms:
        return
    expansion = _union_expansion(expr, limit=1024) or {expr}
    surviving_lengths: list[int] = []
    for triple in merged:
        for candidate in expansion:
            lengths = _match_plus_lengths(candidate, triple.expr)
            if lengths is not None:
                surviving_lengths.extend(lengths)
                break
    kept_subterms = {
        node
        for triple in merged
        for node in triple.expr.walk()
        if isinstance(node, Plus)
    }
    for plus_term in plus_terms:
        plc = engine.plus_stats[plus_term]
        eliminated = bool(merged) and plus_term not in kept_subterms
        stats.closures.append(
            PlusRewriteInfo(
                expr_text=to_text(plus_term),
                eliminated=eliminated and plc.fixed_paths > 0,
                fixed_paths=plc.fixed_paths,
                path_lengths=plc.path_lengths,
            )
        )
    stats.surviving_fixed_lengths.extend(surviving_lengths)


def _spine_parts(expr: PathExpr) -> int:
    """Number of parts along the top concatenation spine."""
    from repro.algebra.ast import AnnotatedConcat, Concat

    if isinstance(expr, (Concat, AnnotatedConcat)):
        return _spine_parts(expr.left) + _spine_parts(expr.right)
    return 1


def _match_plus_lengths(
    original: PathExpr, merged: PathExpr
) -> list[int] | None:
    """Match a merged expression against an expansion candidate, returning
    the chain lengths that replaced eliminated closures (None = no match)."""
    from repro.algebra.ast import AnnotatedConcat, BranchLeft, BranchRight, Concat, Conj

    if isinstance(original, Plus):
        if strip_annotations(merged) == original:
            return []  # closure kept: nothing replaced
        if merged.is_recursive():
            return None
        return [_spine_parts(merged)]
    if isinstance(original, Concat) and isinstance(
        merged, (Concat, AnnotatedConcat)
    ):
        left = _match_plus_lengths(original.left, merged.left)
        right = _match_plus_lengths(original.right, merged.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(original, (Conj, BranchRight, BranchLeft)) and type(
        original
    ) is type(merged):
        first = _match_plus_lengths(original.children()[0], merged.children()[0])
        second = _match_plus_lengths(original.children()[1], merged.children()[1])
        if first is None or second is None:
            return None
        return first + second
    if strip_annotations(merged) == original:
        return []
    return None


def _union_expansion(
    expr: PathExpr, limit: int
) -> set[PathExpr] | None:
    """The set of union-free instantiations of ``expr``.

    Unions are distributed to the top and bounded repetitions expanded —
    mirroring how the inference rules (TUNION, TCONCAT, Repeat expansion)
    shape the underlying expressions of ``TS(ϕ)``. Closures are atomic
    (annotations never live under ``+``). Returns None when the expansion
    exceeds ``limit`` (the caller then skips the reversion check).
    """
    from repro.algebra.ast import (
        BranchLeft,
        BranchRight,
        Concat,
        Conj,
        Edge,
        Repeat,
        Reverse,
        Union,
    )
    from repro.algebra.ops import rebuild

    def expand(node: PathExpr) -> set[PathExpr] | None:
        if isinstance(node, (Edge, Reverse, Plus)):
            return {node}
        if isinstance(node, Union):
            left = expand(node.left)
            right = expand(node.right)
            if left is None or right is None:
                return None
            merged = left | right
            return merged if len(merged) <= limit else None
        if isinstance(node, Repeat):
            return expand(node.expand())
        if isinstance(node, (Concat, Conj, BranchRight, BranchLeft)):
            first, second = node.children()
            left = expand(first)
            right = expand(second)
            if left is None or right is None:
                return None
            combos = {
                rebuild(node, (a, b)) for a in left for b in right
            }
            return combos if len(combos) <= limit else None
        return None

    return expand(expr)


def _rewrite_cqt(
    cqt: CQT,
    schema: GraphSchema,
    options: RewriteOptions,
    stats: RewriteStats,
    fresh,
    analyses: RelationAnalyses,
) -> list[CQT] | None:
    """Rewrite every relation of a CQT and distribute the unions.

    Returns None if nothing changed, [] if the CQT is unsatisfiable.
    """
    per_relation: list[list[QueryFragment]] = []
    any_change = False
    for relation in cqt.relations:
        stats.relations_total += 1
        alternatives = _relation_alternatives(
            relation, schema, options, stats, fresh, analyses
        )
        if alternatives == []:
            return []
        if alternatives is None:
            keep = QueryFragment(relations=[relation])
            per_relation.append([keep])
        else:
            any_change = True
            stats.relations_enriched += 1
            per_relation.append(alternatives)

    if not any_change:
        return None

    combo_count = 1
    for alternatives in per_relation:
        combo_count *= len(alternatives)
    if combo_count > options.max_disjuncts:
        stats.relations_reverted_by_guard += 1
        return None

    rewritten: list[CQT] = []
    for combo in itertools.product(*per_relation):
        relations: list[Relation] = []
        atoms: list[LabelAtom] = list(cqt.atoms)
        for fragment in combo:
            relations.extend(fragment.relations)
            atoms.extend(fragment.atoms)
            stats.label_atoms_added += len(fragment.atoms)
        rewritten.append(CQT(cqt.head, tuple(relations), tuple(atoms)))
    return rewritten


def rewrite_query(
    query: UCQT,
    schema: GraphSchema,
    options: RewriteOptions | None = None,
) -> RewriteResult:
    """Run the full Rewriter pipeline on a UCQT query."""
    options = options or RewriteOptions()
    analyses: RelationAnalyses = {}
    stats = RewriteStats()
    fresh = _fresh_namer(query)

    new_disjuncts: list[CQT] = []
    any_change = False
    for cqt in query.disjuncts:
        rewritten = _rewrite_cqt(cqt, schema, options, stats, fresh, analyses)
        if rewritten is None:
            new_disjuncts.append(cqt)
        elif rewritten == []:
            any_change = True  # disjunct eliminated entirely
        else:
            any_change = True
            new_disjuncts.extend(rewritten)

    if not any_change:
        return RewriteResult(query, query, reverted=True, stats=stats)
    result = UCQT(query.head, tuple(new_disjuncts))
    return RewriteResult(query, result, reverted=False, stats=stats)


def enumerate_rewrites(
    query: UCQT,
    schema: GraphSchema,
    options: RewriteOptions | None = None,
) -> list[tuple[str, RewriteResult]]:
    """The cost planner's rewrite candidate: ``[("rewritten", result)]``
    for the full rewrite of ``query``, or ``[]`` when it reverted.

    The original query is *not* in the list — it is always a candidate
    and the caller adds it unconditionally.
    """
    full = rewrite_query(query, schema, options)
    return [] if full.reverted else [("rewritten", full)]


def _fresh_namer(query: UCQT):
    """Fresh-variable factory avoiding collision with the query's names."""
    used = set(query.head)
    for cqt in query.disjuncts:
        used |= cqt.variables()
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"_v{counter[0]}"
            if name not in used:
                used.add(name)
                return name

    return fresh
