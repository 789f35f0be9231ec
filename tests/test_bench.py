"""Unit tests for the benchmark harness (runner, stats, reporting)."""

import pytest

from repro.bench.reporting import render_boxplot_row, render_table, summary_row
from repro.bench.runner import BenchmarkContext, QueryRun, run_workload
from repro.bench.stats import (
    feasibility_counts,
    geometric_mean_speedup,
    paired_speedup,
    quartiles,
    split_runs,
    summarize,
    summarize_runs,
)
from repro.datasets.ldbc import generate_ldbc, ldbc_schema, ldbc_store
from repro.workloads.ldbc_queries import LDBC_QUERIES


@pytest.fixture(scope="module")
def context():
    schema = ldbc_schema()
    graph = generate_ldbc(0.05, seed=3)
    store = ldbc_store(graph, schema)
    return BenchmarkContext(
        schema, graph, store, scale_factor=0.05,
        timeout_seconds=10.0, repetitions=1,
    )


class TestQuartiles:
    def test_single_value(self):
        assert quartiles([5.0]) == (5.0, 5.0, 5.0)

    def test_known_values(self):
        q1, median, q3 = quartiles([1, 2, 3, 4])
        assert median == 2.5
        assert q1 == 1.75
        assert q3 == 3.25

    def test_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        values = [0.3, 1.7, 2.2, 9.1, 4.4, 0.05, 3.3]
        q1, median, q3 = quartiles(values)
        assert q1 == pytest.approx(numpy.percentile(values, 25))
        assert median == pytest.approx(numpy.percentile(values, 50))
        assert q3 == pytest.approx(numpy.percentile(values, 75))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quartiles([])


class TestSummaries:
    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.mean == 2.0

    def test_summarize_empty(self):
        assert summarize([]).count == 0

    def _make_run(self, qid, variant, seconds, recursive=True, timed_out=False):
        return QueryRun(
            qid=qid, variant=variant, engine="ra", scale_factor=1,
            seconds=seconds, timed_out=timed_out, rows=0,
            recursive=recursive, reverted=False,
        )

    def test_paired_speedup(self):
        baseline = [self._make_run("a", "baseline", 4.0)]
        schema = [self._make_run("a", "schema", 2.0)]
        assert paired_speedup(baseline, schema) == 2.0

    def test_geometric_mean_speedup(self):
        baseline = [
            self._make_run("a", "baseline", 4.0),
            self._make_run("b", "baseline", 1.0),
        ]
        schema = [
            self._make_run("a", "schema", 1.0),
            self._make_run("b", "schema", 1.0),
        ]
        assert geometric_mean_speedup(baseline, schema) == 2.0

    def test_feasibility_counts(self):
        runs = [
            self._make_run("a", "baseline", 1.0),
            self._make_run("b", "baseline", 2.5, timed_out=True),
        ]
        feasible, total, pct = feasibility_counts(runs)
        assert (feasible, total, pct) == (1, 2, 50.0)

    def test_split_runs(self):
        runs = [
            self._make_run("a", "baseline", 1.0, recursive=True),
            self._make_run("a", "schema", 1.0, recursive=True),
            self._make_run("b", "baseline", 1.0, recursive=False),
        ]
        assert len(split_runs(runs, variant="baseline")) == 2
        assert len(split_runs(runs, recursive=True)) == 2
        assert len(split_runs(runs, variant="schema", recursive=False)) == 0

    def test_summary_includes_timeout_cap(self):
        """Paper Table 7 convention: capped runs count at the cap."""
        runs = [
            self._make_run("a", "baseline", 1800.0, timed_out=True),
            self._make_run("b", "baseline", 10.0),
        ]
        stats = summarize_runs(runs)
        assert stats.maximum == 1800.0


class TestReporting:
    def test_render_table(self):
        text = render_table("T", ("a", "bb"), [(1, 2.5), ("x", 100.25)])
        assert "== T ==" in text
        assert "100.2" in text

    def test_render_table_note(self):
        text = render_table("T", ("a",), [(1,)], note="hello")
        assert "note: hello" in text

    def test_summary_row_and_boxplot(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        row = summary_row("g", stats)
        assert row[0] == "g"
        assert row[1] == 4
        line = render_boxplot_row("g", stats)
        assert "mean" in line


class TestRunner:
    def test_measure_baseline_and_schema(self, context):
        workload_query = next(q for q in LDBC_QUERIES if q.qid == "IC2")
        run = context.measure(workload_query, "baseline", "ra")
        assert run.feasible
        assert run.rows > 0
        assert run.seconds < 10
        schema_run = context.measure(workload_query, "schema", "ra")
        assert schema_run.rows == run.rows
        assert schema_run.reverted  # IC2 reverts

    def test_all_engines_agree_on_rows(self, context):
        workload_query = next(q for q in LDBC_QUERIES if q.qid == "IC11")
        rows = {
            engine: context.measure(workload_query, "baseline", engine).rows
            for engine in ("ra", "sqlite", "gdb", "reference")
        }
        assert len(set(rows.values())) == 1

    def test_unknown_engine_rejected(self, context):
        workload_query = LDBC_QUERIES[0]
        with pytest.raises(ValueError):
            context.execute("dbase", workload_query.query)

    def test_timeout_recorded_as_infeasible(self):
        schema = ldbc_schema()
        graph = generate_ldbc(0.3, seed=3)
        store = ldbc_store(graph, schema)
        tight = BenchmarkContext(
            schema, graph, store, 0.3, timeout_seconds=0.0001, repetitions=1
        )
        workload_query = next(q for q in LDBC_QUERIES if q.qid == "IC13")
        # ``gdb`` runs outside the session, under the same budget.
        for engine in ("ra", "gdb"):
            run = tight.measure(workload_query, "baseline", engine)
            assert run.timed_out, engine
            assert run.seconds == tight.timeout_seconds

    def test_run_workload_covers_variants(self, context):
        runs = run_workload(context, [LDBC_QUERIES[1]], engine="reference")
        assert {r.variant for r in runs} == {"baseline", "schema"}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_timing_leaves_gc_state_as_found(
        self, context, monkeypatch, enabled
    ):
        import gc

        seen = []
        execute = context.execute

        def spy(engine, query):
            seen.append(gc.isenabled())
            return execute(engine, query)

        monkeypatch.setattr(context, "execute", spy)
        frozen = gc.get_freeze_count()
        collecting = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            run_workload(context, [LDBC_QUERIES[1]], engine="reference")
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if collecting else gc.disable)()
        assert seen and not any(seen)  # no collection inside a timed run

    def test_rewrite_cached(self, context):
        workload_query = LDBC_QUERIES[0]
        assert context.rewrite(workload_query) is context.rewrite(workload_query)
