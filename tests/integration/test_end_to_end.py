"""Integration: end-to-end pipeline behaviour and experiment plumbing."""

import pytest

from repro.bench import experiments as exp
from repro.bench.runner import BenchmarkContext, run_workload
from repro.bench.stats import split_runs
from repro.cli import main as cli_main
from repro.core.rewriter import rewrite_query
from repro.datasets.yago import generate_yago, yago_schema, yago_store
from repro.workloads.yago_queries import YAGO_QUERIES


class TestExperimentFunctions:
    def test_table3(self):
        result = exp.table3_datasets(scale_factors=(0.1,), yago_scale=0.1)
        assert "YAGO" in result.text
        assert len(result.data["rows"]) == 2

    def test_table6(self):
        result = exp.table6_paths()
        assert result.data["eliminated"] == 16
        assert "q12" in result.text

    def test_reversion_census(self):
        result = exp.reversion_census()
        assert result.data["yago"] == ["q7"]
        assert len(result.data["agreement"]) == 10

    def test_fig15_16_17_artifacts(self):
        result = exp.fig15_16_17(scale_factor=0.1)
        assert "JOIN Organisation" in result.data["sql"]["SCHEMA-ENRICHED (Q2)"]
        assert "Organisation" in result.data["cypher"]["SCHEMA-ENRICHED (Q2)"]
        assert result.data["plans"]["BASELINE (Q1)"].startswith("Project")

    def test_table5_tiny(self):
        result = exp.table5_feasibility(
            scale_factors=(0.1,), timeout_seconds=5.0
        )
        (row,) = result.data["rows"]
        # at SF 0.1 everything is feasible, like the paper's first row
        assert row[1] == 18 and row[2] == 100.0
        assert row[5] == 12 and row[6] == 100.0

    def test_fig12_small(self):
        result = exp.fig12_yago(yago_scale=0.15, timeout_seconds=10.0,
                                repetitions=1)
        assert len(result.data["rows"]) == 18
        assert result.data["mean_speedup"] > 0

    def test_fig13_and_tables78(self):
        fig13 = exp.fig13_ldbc(
            scale_factors=(0.1,), timeout_seconds=5.0, repetitions=1
        )
        pooled = [
            run for runs in fig13.data["runs_by_sf"].values() for run in runs
        ]
        tables = exp.table7_table8(pooled)
        assert "Table 7" in tables.text
        assert "Table 8" in tables.text
        assert tables.data["speedup_rq"] > 0


class TestYagoEndToEnd:
    def test_schema_wins_on_yago(self):
        """The headline claim at small scale: the schema-enriched variant
        is faster in aggregate on the YAGO workload (paper: 6.1x)."""
        schema = yago_schema()
        graph = generate_yago(0.4, seed=7)
        store = yago_store(graph, schema)
        context = BenchmarkContext(
            schema, graph, store, 0.4, timeout_seconds=30.0, repetitions=1
        )
        runs = run_workload(context, list(YAGO_QUERIES), engine="ra")
        baseline = sum(
            r.seconds for r in split_runs(runs, variant="baseline")
        )
        enriched = sum(r.seconds for r in split_runs(runs, variant="schema"))
        assert enriched < baseline

    def test_row_counts_match_between_variants(self):
        schema = yago_schema()
        graph = generate_yago(0.2, seed=7)
        store = yago_store(graph, schema)
        context = BenchmarkContext(
            schema, graph, store, 0.2, timeout_seconds=30.0, repetitions=1
        )
        for workload_query in YAGO_QUERIES:
            base = context.measure(workload_query, "baseline", "ra")
            enriched = context.measure(workload_query, "schema", "ra")
            assert base.rows == enriched.rows, workload_query.qid


class TestCli:
    def test_cli_table6(self, capsys):
        assert cli_main(["table6"]) == 0
        assert "Table 6" in capsys.readouterr().out

    def test_cli_reversion(self, capsys):
        assert cli_main(["reversion"]) == 0
        assert "q7" in capsys.readouterr().out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["tablezzz"])
