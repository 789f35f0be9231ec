"""Graph schema model (paper Def. 1).

A graph schema is a directed pseudo-multigraph: labelled nodes carrying
typed property specifications, and labelled directed edges (loops and
parallel edges allowed). Following the paper's restrictions (§2.3), each
schema node has exactly one node label and schema edges carry no
properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError, UnknownLabelError

#: Data types allowed for properties (paper: T, e.g. String, Integer, Date).
DATA_TYPES = frozenset({"String", "Int", "Float", "Bool", "Date"})

_PYTHON_TYPE_FOR: dict[str, type | tuple[type, ...]] = {
    "String": str,
    "Int": int,
    "Float": float,
    "Bool": bool,
    "Date": str,  # ISO-8601 strings; properties are atomic (§2.3)
}


def value_data_type(value: object) -> str:
    """The schema data type of a property value (the paper's Υ function)."""
    # bool is a subclass of int in Python; test it first.
    if isinstance(value, bool):
        return "Bool"
    if isinstance(value, int):
        return "Int"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        return "String"
    raise SchemaError(f"property values must be atomic, got {type(value).__name__}")


@dataclass(frozen=True)
class PropertySpec:
    """A key:type pair attached to a schema node (paper: PS ⊆ KS × T)."""

    key: str
    data_type: str

    def __post_init__(self) -> None:
        if self.data_type not in DATA_TYPES:
            raise SchemaError(
                f"unknown data type {self.data_type!r} for key {self.key!r}; "
                f"expected one of {sorted(DATA_TYPES)}"
            )

    def accepts(self, value: object) -> bool:
        """True if ``value`` conforms to this property's declared type."""
        expected = _PYTHON_TYPE_FOR[self.data_type]
        if self.data_type == "Int" and isinstance(value, bool):
            return False
        return isinstance(value, expected)


@dataclass(frozen=True)
class SchemaNode:
    """A schema node: one node label plus its property specification."""

    label: str
    properties: tuple[PropertySpec, ...] = ()

    def __post_init__(self) -> None:
        keys = [p.key for p in self.properties]
        if len(keys) != len(set(keys)):
            raise SchemaError(f"duplicate property keys on node {self.label!r}")

    def property_map(self) -> dict[str, PropertySpec]:
        return {p.key: p for p in self.properties}


@dataclass(frozen=True)
class SchemaEdge:
    """A schema edge: ``source_label -edge_label-> target_label``."""

    source_label: str
    edge_label: str
    target_label: str


class GraphSchema:
    """A graph schema S = (NS, ES, LN, LE, PS, λS, ηS, ξS, ΔS) (Def. 1).

    Because the paper restricts schema nodes to a single label each, schema
    nodes are identified by their label, and edges by their
    (source label, edge label, target label) triple — which is exactly the
    *basic graph schema triple* of Def. 5.
    """

    def __init__(
        self,
        nodes: Iterable[SchemaNode],
        edges: Iterable[SchemaEdge],
        name: str = "schema",
    ):
        self.name = name
        self._nodes: dict[str, SchemaNode] = {}
        for node in nodes:
            if node.label in self._nodes:
                raise SchemaError(f"duplicate schema node label {node.label!r}")
            self._nodes[node.label] = node

        self._edges: list[SchemaEdge] = []
        seen: set[tuple[str, str, str]] = set()
        for edge in edges:
            for endpoint in (edge.source_label, edge.target_label):
                if endpoint not in self._nodes:
                    raise UnknownLabelError(endpoint, kind="node")
            if edge.edge_label in self._nodes:
                raise SchemaError(
                    f"label {edge.edge_label!r} used both as node and edge label "
                    "(the paper requires LN ∩ LE = ∅)"
                )
            key = (edge.source_label, edge.edge_label, edge.target_label)
            if key in seen:
                continue  # pseudo-multigraph: identical triples collapse
            seen.add(key)
            self._edges.append(edge)

        # Indexes used constantly by the inference engine.
        self._by_edge_label: dict[str, list[SchemaEdge]] = {}
        for edge in self._edges:
            self._by_edge_label.setdefault(edge.edge_label, []).append(edge)

    # -- basic accessors -------------------------------------------------
    @property
    def node_labels(self) -> frozenset[str]:
        return frozenset(self._nodes)

    @property
    def edge_labels(self) -> frozenset[str]:
        return frozenset(self._by_edge_label)

    def nodes(self) -> Iterator[SchemaNode]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[SchemaEdge]:
        return iter(self._edges)

    def node(self, label: str) -> SchemaNode:
        try:
            return self._nodes[label]
        except KeyError:
            raise UnknownLabelError(label, kind="node") from None

    def has_node_label(self, label: str) -> bool:
        return label in self._nodes

    def has_edge_label(self, label: str) -> bool:
        return label in self._by_edge_label

    def edges_for_label(self, edge_label: str) -> list[SchemaEdge]:
        """All schema edges carrying ``edge_label`` (possibly several)."""
        return list(self._by_edge_label.get(edge_label, ()))

    # -- label-set queries used by redundancy removal (§3.2.2) -----------
    def source_labels(self, edge_label: str) -> frozenset[str]:
        """All node labels that may be the *source* of ``edge_label``."""
        return frozenset(e.source_label for e in self.edges_for_label(edge_label))

    def target_labels(self, edge_label: str) -> frozenset[str]:
        """All node labels that may be the *target* of ``edge_label``."""
        return frozenset(e.target_label for e in self.edges_for_label(edge_label))

    # -- misc -------------------------------------------------------------
    def property_spec(self, node_label: str) -> Mapping[str, PropertySpec]:
        return self.node(node_label).property_map()

    def stats(self) -> dict[str, int]:
        """Sizes used by Table 3 (#NR node relations, #ER edge relations)."""
        return {
            "node_labels": len(self._nodes),
            "edge_labels": len(self._by_edge_label),
            "schema_edges": len(self._edges),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSchema({self.name!r}, {len(self._nodes)} node labels, "
            f"{len(self._edges)} edges)"
        )
