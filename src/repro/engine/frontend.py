"""The query front end: parse, schema rewrite and the conformance gate.

The first step of the paper's pipeline. :class:`Frontend` alone decides
which query a session goes on to plan: it parses each distinct text
once, rewrites it against the schema (memoised on the query text, the
schema fingerprint and the rewrite options) and decides whether the
rewrite is sound over the current instance (paper Def. 3). It owns the
schema side of a session — the schema, its alias views, their
fingerprint — and the graph model, onto which it replays store appends
so the graph engines and the conformance check read the data the
relational backends do. Schema widening belongs here.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.core.rewriter import RewriteOptions, RewriteResult, rewrite_query
from repro.engine.cache import MEMO_SIZE, LruCache
from repro.graph.model import UNLABELLED, PropertyGraph
from repro.query.model import UCQT
from repro.query.parser import parse_query
from repro.schema.model import GraphSchema
from repro.schema.validation import check_consistency
from repro.storage.relational import RelationalStore


def schema_fingerprint(
    schema: GraphSchema, aliases: Mapping[str, tuple[str, ...]] | None = None
) -> str:
    """A stable digest of a schema's semantic content.

    Covers node labels with their property specifications, the schema
    edge triples, and any alias views layered on top — everything the
    rewriter and the translators can observe. The schema's display name
    is deliberately excluded.
    """
    digest = hashlib.sha256()
    for node in sorted(schema.nodes(), key=lambda n: n.label):
        digest.update(node.label.encode())
        for spec in node.properties:
            digest.update(f"|{spec.key}:{spec.data_type}".encode())
        digest.update(b"\n")
    for edge in sorted(
        schema.edges(),
        key=lambda e: (e.source_label, e.edge_label, e.target_label),
    ):
        digest.update(
            f"{edge.source_label}-[{edge.edge_label}]->{edge.target_label}\n".encode()
        )
    for alias in sorted(aliases or {}):
        digest.update(f"{alias}={','.join(aliases[alias])}\n".encode())
    return digest.hexdigest()[:16]


class Frontend:
    """A session's schema, graph model, parse memo, rewrite cache and
    conformance gate."""

    def __init__(
        self,
        graph: PropertyGraph,
        schema: GraphSchema,
        aliases: Mapping[str, tuple[str, ...]] | None,
        store: RelationalStore | None,
        cache_size: int,
    ):
        self.schema = schema
        # An injected store brings its own alias views; any aliases
        # declared here are added on top (conflicts are API misuse).
        self.aliases = dict(store.aliases) if store is not None else {}
        for name, members in (aliases or {}).items():
            members = tuple(members)
            existing = self.aliases.get(name)
            if existing is None:
                if store is not None:
                    store.add_alias(name, members)
                self.aliases[name] = members
            elif existing != members:
                raise ValueError(
                    f"alias {name!r} declared as {members} but the "
                    f"injected store defines it as {existing}"
                )
        self._graph = graph
        #: The store version the graph model reflects (see :meth:`graph`).
        self._graph_version = store.version if store is not None else 0
        self._fingerprint: str | None = None
        #: Query text -> parsed (frozen) query; see :meth:`parse`.
        self._parsed: dict[str, UCQT] = {}
        self.rewrites = LruCache(cache_size)
        #: Memoised instance-conformance verdict: (store version, bool).
        self._conformance: tuple[int, bool] | None = None
        self.rewrites_gated = 0

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = schema_fingerprint(self.schema, self.aliases)
        return self._fingerprint

    @property
    def conforming(self) -> bool | None:
        """The last conformance verdict (None: never checked)."""
        return None if self._conformance is None else self._conformance[1]

    def update_schema(self, schema: GraphSchema) -> None:
        self.schema = schema
        self._fingerprint = None
        self._conformance = None

    def build_store(self) -> RelationalStore:
        """The relational store of the graph model and the alias views."""
        store = RelationalStore.from_graph(self._graph, self.schema)
        for alias in sorted(self.aliases):
            store.add_alias(alias, self.aliases[alias])
        self._graph_version = store.version
        return store

    def graph(self, store: RelationalStore | None) -> PropertyGraph:
        """The property graph, caught up with ``store``'s appends.

        The relational store is the write surface; the graph model is
        replayed from its append deltas on read so the ``reference``
        backend answers over the same data as ``ra``/``vec``/``sqlite``.
        Barrier writes (replacements, new tables) cannot be replayed —
        the graph then keeps its pre-write contents for those tables.
        """
        graph = self._graph
        if store is None or store.version == self._graph_version:
            return graph
        deltas = store.delta_since(self._graph_version)
        self._graph_version = store.version
        if deltas is None:
            return graph
        node_tables = store.node_tables
        for name in sorted(deltas):
            if name in store.aliases:
                continue  # alias views recompute from their members
            rows = deltas[name]
            if name in node_tables:
                columns = store.table(name).columns
                for row in rows:
                    node = row[0]
                    if (
                        graph.has_node(node)
                        and graph.node_label(node) not in (name, UNLABELLED)
                    ):
                        # Multi-label ids are relational-only; the graph
                        # model keeps the first label it saw.
                        continue
                    graph.add_node(node, name, dict(zip(columns[1:], row[1:])))
            else:
                for row in rows:
                    if len(row) != 2:
                        continue
                    source, target = row
                    for endpoint in (source, target):
                        if not graph.has_node(endpoint):
                            graph.add_node(endpoint, UNLABELLED)
                    graph.add_edge(source, name, target)
        return graph

    # -- parse and rewrite -------------------------------------------------
    def parse(self, query: UCQT | str) -> UCQT:
        """``query`` parsed, each distinct text once: served traffic
        repeats its texts. The memo sits in front of the call, and
        plain dict operations keep it safe from the service's loop
        thread (``QueryService.submit``) next to a worker's."""
        if not isinstance(query, str):
            return query
        parsed = self._parsed.get(query)
        if parsed is None:
            parsed = parse_query(query)  # a ParseError is never stored
            if len(self._parsed) >= MEMO_SIZE:
                self._parsed.clear()
            self._parsed[query] = parsed
        return parsed

    def rewrite(self, query: UCQT, options: RewriteOptions) -> RewriteResult:
        """Schema-rewrite a query, memoised on (query, fingerprint, options)."""
        key = (str(query), self.fingerprint, options)
        return self.rewrites.get_or_create(
            key, lambda: rewrite_query(query, self.schema, options)
        )

    def clear(self) -> None:
        self._parsed.clear()
        self.rewrites.clear()

    # -- the conformance gate (rewrite soundness, paper Def. 3) ------------
    def gate(self, store: RelationalStore) -> bool:
        """Whether a query asking for the rewrite gets it: only over a
        conforming instance (a refusal counts as ``rewrites_gated``)."""
        if self.rewrite_sound(store):
            return True
        self.rewrites_gated += 1
        return False

    def rewrite_sound(self, store: RelationalStore) -> bool:
        """True when schema rewriting is sound over ``store``.

        The paper's rewriting (Prop. 4.3) assumes the database conforms
        to the schema (Def. 3): on a non-conforming instance a rewrite
        can prune tuples the original query would return — nested
        bounded repetitions over out-of-schema edges were the observed
        symptom. ``prepare`` therefore falls back to the unrewritten
        pipeline when the check fails.

        The verdict is memoised per store version. A non-conforming
        verdict *latches* across append-only writes (appends cannot
        remove the violating rows); a conforming verdict is advanced by
        checking only the appended delta. Barrier writes re-run the full
        check.
        """
        version = store.version
        cached = self._conformance
        if cached is not None and cached[0] == version:
            return cached[1]
        conforms: bool | None = None
        if cached is not None:
            deltas = store.delta_since(cached[0])
            if deltas is not None:
                conforms = cached[1] and self._delta_conforms(store, deltas)
        if conforms is None:
            conforms = check_consistency(
                self.graph(store), self.schema, max_violations=1
            ).consistent
        self._conformance = (version, conforms)
        return conforms

    def _delta_conforms(
        self, store: RelationalStore, deltas: Mapping[str, frozenset]
    ) -> bool:
        """Def. 3 restricted to an append delta's rows (conservative)."""
        graph = self.graph(store)  # synced past the delta
        schema = self.schema
        node_tables = store.node_tables
        aliases = store.aliases
        allowed = {
            (edge.source_label, edge.edge_label, edge.target_label)
            for edge in schema.edges()
        }
        for name in deltas:
            if name in aliases:
                continue  # alias views mirror their member tables
            rows = deltas[name]
            if name in node_tables:
                if not schema.has_node_label(name):
                    return False
                spec = schema.property_spec(name)
                columns = store.table(name).columns
                for row in rows:
                    for key, value in zip(columns[1:], row[1:]):
                        if value is None:
                            continue  # absent property, not a violation
                        if key not in spec or not spec[key].accepts(value):
                            return False
            else:
                for row in rows:
                    if len(row) != 2:
                        return False
                    source, target = row
                    if not (graph.has_node(source) and graph.has_node(target)):
                        return False
                    triple = (
                        graph.node_label(source), name, graph.node_label(target)
                    )
                    if triple not in allowed:
                        return False
        return True
