"""Unit tests for smaller supporting modules: errors, storage, plan text."""

import pytest

from repro.errors import ParseError, QueryTimeout, UnknownLabelError
from repro.graph.evaluator import EvalBudget
from repro.planner.cost import TermCost
from repro.ra.terms import Project, Rel
from repro.storage.relational import RelationalStore, Table


class TestErrors:
    def test_parse_error_renders_pointer(self):
        error = ParseError("boom", text="a//b", position=2)
        rendered = str(error)
        assert "a//b" in rendered
        assert "^" in rendered

    def test_parse_error_without_position(self):
        assert str(ParseError("boom")) == "boom"

    def test_query_timeout_carries_budget(self):
        error = QueryTimeout(2.5)
        assert error.budget_seconds == 2.5
        assert "2.5" in str(error)

    def test_unknown_label_kinds(self):
        assert "node" in str(UnknownLabelError("X", kind="node"))
        assert "edge" in str(UnknownLabelError("e"))


class TestEvalBudget:
    def test_unlimited_never_expires(self):
        budget = EvalBudget(None)
        budget.check_now()
        budget.tick(10_000_000)

    def test_check_now_raises_after_deadline(self):
        budget = EvalBudget(-1.0)
        with pytest.raises(QueryTimeout):
            budget.check_now()

    def test_tick_accumulates_before_checking(self):
        budget = EvalBudget(3600.0)
        for _ in range(10):
            budget.tick(1000)


class TestTable:
    def test_counts(self):
        table = Table("t", ("a", "b"), {(1, 2), (1, 3)})
        assert table.row_count == 2
        assert table.distinct_count("a") == 1
        assert table.distinct_count("b") == 2
        assert table.column_values("b") == {2, 3}


class TestRelationalStore:
    def test_conflicting_duplicate_table_rejected(self):
        # Re-adding under the same name *appends* (see the incremental
        # store tests); only shape or classification conflicts reject.
        store = RelationalStore()
        store.add_table(Table("t", ("Sr",)), node_label=True)
        with pytest.raises(Exception):
            store.add_table(Table("t", ("Sr", "Tr")), node_label=True)
        with pytest.raises(Exception):
            store.add_table(Table("t", ("Sr",)), node_label=False)

    def test_alias_requires_members(self):
        store = RelationalStore()
        with pytest.raises(Exception):
            store.add_alias("Org", ["Missing"])

    def test_alias_rows_are_keys_only(self):
        store = RelationalStore()
        store.add_table(Table("A", ("Sr", "p"), {(1, "x")}), node_label=True)
        store.add_table(Table("B", ("Sr",), {(2,)}), node_label=True)
        store.add_alias("AB", ["A", "B"])
        assert store.table("AB").rows == {(1,), (2,)}
        assert store.is_node_table("AB")

    def test_unknown_table(self):
        store = RelationalStore()
        with pytest.raises(Exception):
            store.table("ghost")

    def test_stats(self, ldbc_small):
        _, _, store = ldbc_small
        stats = store.stats()
        assert stats["node_tables"] == 11
        assert stats["edge_tables"] == 15
        assert stats["edge_rows"] > 0


class TestPlanRendering:
    def test_render_indents_children(self):
        leaf = TermCost(10.0, 100.0, "scan", Rel("knows"))
        root = TermCost(
            25.0, 50.0, "project", Project(Rel("knows"), ("Sr",)), (leaf,)
        )
        text = root.render(RelationalStore())
        lines = text.splitlines()
        assert lines[0].startswith("Project")
        assert lines[1] == "  keep: Sr"
        assert lines[2].startswith("  Scan")
        assert lines[3] == "    on knows"
        assert "rows = 100" in text

    def test_large_numbers_comma_formatted(self):
        node = TermCost(1234567.89, 2085899.0, "scan", Rel("knows"))
        text = node.render(RelationalStore())
        assert "2,085,899" in text and "1,234,567.9" in text
