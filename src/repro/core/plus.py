"""The ``PlC`` (plus-compatibility) algorithm — paper Def. 8.

Given the set ``T`` of schema triples compatible with ``ϕ``, build the
directed *label multigraph* ``G`` whose vertices are node labels and whose
(parallel) edges are the triples of ``T``. Then:

* ``K`` — vertices lying on a cycle (a non-trivial SCC or a self-loop);
* enumerate every path whose vertices are pairwise distinct — plus closed
  paths where only the two endpoints coincide (those are cycles, hence
  always covered by the ``K`` case, and are required for completeness of
  ``(A, ϕ+, A)`` triples);
* a path touching ``K`` contributes the triple ``(A, ϕ+, B)`` (the closure
  cannot be eliminated on that route);
* a ``K``-free path contributes the *annotated concatenation* of its
  triples — a fixed-length, closure-free path expression.

If the enumeration takes more than ``2 × max_disjuncts`` path steps we
conservatively fall back to ``(A, ϕ+, B)`` for every connected label pair,
which is always sound and complete (it is the "keep the closure" outcome).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.ast import AnnotatedConcat, PathExpr, Plus
from repro.schema.triples import SchemaTriple

#: The rewriter's one expansion bound (``RewriteOptions.max_disjuncts``):
#: PlC keeps the closure past twice as many path steps, and inference
#: gives up past four times as many triples.
DEFAULT_MAX_DISJUNCTS = 256


@dataclass(frozen=True)
class PlusStatistics:
    """Bookkeeping for Table 6: fixed-length paths generated for one ϕ+."""

    closure_kept: int  # triples that kept ϕ+
    fixed_paths: int  # closure-free triples generated
    path_lengths: tuple[int, ...]  # lengths of the fixed paths


def _label_graph(
    triples: frozenset[SchemaTriple],
) -> dict[str, list[SchemaTriple]]:
    """Adjacency map label -> outgoing triples."""
    graph: dict[str, list[SchemaTriple]] = {}
    for triple in triples:
        graph.setdefault(triple.source, []).append(triple)
        graph.setdefault(triple.target, graph.get(triple.target, []))
    return graph


def _cycle_vertices(graph: dict[str, list[SchemaTriple]]) -> frozenset[str]:
    """Vertices on some cycle: self-loops plus non-trivial SCC members
    (iterative Tarjan to stay recursion-safe on large schemas)."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: set[str] = set()
    counter = 0

    for root in graph:
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            vertex, edge_index = work[-1]
            if edge_index == 0:
                index_of[vertex] = lowlink[vertex] = counter
                counter += 1
                stack.append(vertex)
                on_stack.add(vertex)
            advanced = False
            out = graph.get(vertex, ())
            while edge_index < len(out):
                successor = out[edge_index].target
                edge_index += 1
                if successor not in index_of:
                    work[-1] = (vertex, edge_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index_of[successor])
            if advanced:
                continue
            work.pop()
            if lowlink[vertex] == index_of[vertex]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == vertex:
                        break
                if len(component) > 1:
                    result.update(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])

    for vertex, edges in graph.items():
        if any(edge.target == vertex for edge in edges):
            result.add(vertex)
    return frozenset(result)


def _concatenate(path: list[SchemaTriple]) -> PathExpr:
    """Annotated concatenation of a triple path (left-associated);
    junction annotations carry the intermediate node label."""
    expr = path[0].expr
    for triple, following in zip(path, path[1:]):
        expr = AnnotatedConcat(expr, following.expr, frozenset({triple.target}))
    return expr


def plus_compatibility(
    phi: PathExpr,
    triples: frozenset[SchemaTriple],
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> frozenset[SchemaTriple]:
    """``PlC(ϕ, T)`` per Def. 8, with a conservative fallback on blow-up."""
    result, _stats = plus_compatibility_with_stats(phi, triples, max_disjuncts)
    return result


def plus_compatibility_with_stats(
    phi: PathExpr,
    triples: frozenset[SchemaTriple],
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> tuple[frozenset[SchemaTriple], PlusStatistics]:
    """``PlC`` plus the fixed-length-path statistics reported in Table 6."""
    closed = Plus(phi)
    if not triples:
        return frozenset(), PlusStatistics(0, 0, ())

    graph = _label_graph(triples)
    cycle_set = _cycle_vertices(graph)

    result: set[SchemaTriple] = set()
    fixed_lengths: list[int] = []
    paths_seen = 0
    overflow = False

    # DFS over paths with pairwise-distinct vertices (endpoints may close a
    # loop; such closed paths necessarily touch the cycle set).
    for start in graph:
        if overflow:
            break
        # stack holds (path of triples, visited vertex set)
        stack: list[tuple[list[SchemaTriple], frozenset[str]]] = [
            ([], frozenset({start}))
        ]
        while stack:
            path, visited = stack.pop()
            tail = path[-1].target if path else start
            for edge in graph.get(tail, ()):
                nxt = edge.target
                paths_seen += 1
                if paths_seen > 2 * max_disjuncts:
                    overflow = True
                    stack.clear()
                    break
                if nxt == start:
                    # Closed simple walk: it is itself a cycle, so every
                    # vertex on it is in K and the closure must be kept.
                    result.add(SchemaTriple(start, closed, start))
                    continue  # do not extend past the start
                if nxt in visited:
                    continue  # not a simple path
                new_path = path + [edge]
                touched_cycle = bool(cycle_set & visited) or nxt in cycle_set
                if touched_cycle:
                    result.add(SchemaTriple(start, closed, nxt))
                else:
                    expr = _concatenate(new_path)
                    result.add(SchemaTriple(start, expr, nxt))
                    fixed_lengths.append(len(new_path))
                stack.append((new_path, visited | {nxt}))
            if overflow:
                break

    if overflow:
        # Fall back: closure triples for every reachable label pair.
        result = set()
        fixed_lengths = []
        reachable = _reachable_pairs(graph)
        for source, target in reachable:
            result.add(SchemaTriple(source, closed, target))

    closure_kept = sum(1 for t in result if t.expr == closed)
    stats = PlusStatistics(
        closure_kept=closure_kept,
        fixed_paths=len(fixed_lengths),
        path_lengths=tuple(sorted(fixed_lengths)),
    )
    return frozenset(result), stats


def _reachable_pairs(
    graph: dict[str, list[SchemaTriple]]
) -> set[tuple[str, str]]:
    """All (A, B) with a non-empty path from A to B in the label graph."""
    pairs: set[tuple[str, str]] = set()
    for start in graph:
        seen: set[str] = set()
        frontier = [t.target for t in graph.get(start, ())]
        while frontier:
            vertex = frontier.pop()
            if (start, vertex) in pairs:
                continue
            pairs.add((start, vertex))
            if vertex in seen:
                continue
            seen.add(vertex)
            frontier.extend(t.target for t in graph.get(vertex, ()))
    return pairs
