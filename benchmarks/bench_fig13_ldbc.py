"""Fig. 13 + Tables 7/8 — LDBC runtime distributions across scale factors.

One workload sweep feeds all three artefacts (as in the paper, where the
360 runs of Fig. 13 are re-aggregated into Tables 7 and 8).
"""

from conftest import (
    DISTRIBUTION_ENGINE,
    LDBC_SCALE_FACTORS,
    LDBC_TIMEOUT,
    write_output,
)

import pytest

from repro.bench.experiments import fig13_ldbc, table7_table8
from repro.bench.stats import split_runs, summarize_runs


_CACHE = {}


def fig13():
    if "result" not in _CACHE:
        _CACHE["result"] = fig13_ldbc(
            scale_factors=LDBC_SCALE_FACTORS,
            engine=DISTRIBUTION_ENGINE,
            timeout_seconds=LDBC_TIMEOUT,
            repetitions=1,
        )
    return _CACHE["result"]


@pytest.fixture(name="fig13")
def fig13_fixture():
    return fig13()


@pytest.fixture(name="pooled_runs")
def pooled_runs_fixture():
    result = fig13()
    return [run for runs in result.data["runs_by_sf"].values() for run in runs]


def test_fig13_experiment_benchmark(benchmark):
    """Run the full Fig. 13 LDBC sweep once, as a measured benchmark;
    Tables 7/8 are re-aggregations of the same runs."""
    result = benchmark.pedantic(fig13, rounds=1, iterations=1)
    write_output("fig13", result.text)
    print("\n" + result.text)
    pooled = [run for runs in result.data["runs_by_sf"].values() for run in runs]
    tables = table7_table8(pooled)
    write_output("table7_8", tables.text)
    print("\n" + tables.text)


def test_runtimes_grow_with_scale(fig13):
    medians = []
    for scale_factor in LDBC_SCALE_FACTORS:
        runs = split_runs(
            fig13.data["runs_by_sf"][scale_factor], variant="baseline"
        )
        medians.append(summarize_runs(runs).median)
    assert medians[0] < medians[-1]


def test_tables_7_8_report(pooled_runs):
    """The paper reports 3.26x (RQ) / 2.58x (overall) mean speedups,
    heavily driven by the 30-minute timeout cap at 33-82 GB scale; our
    laptop-scale reproduction asserts parity-or-better with a tolerance
    (``scripts/full_run.py`` writes the full-profile numbers to
    ``results/``)."""
    result = table7_table8(pooled_runs)
    write_output("table7_8", result.text)
    print("\n" + result.text)
    assert result.data["speedup_rq"] >= 0.85
    assert result.data["speedup_all"] >= 0.85


def test_schema_median_not_worse_overall(pooled_runs):
    """Paper Fig. 13/§5.4: the schema-based approach's medians track at or
    below the baseline's."""
    baseline = summarize_runs(split_runs(pooled_runs, variant="baseline"))
    schema = summarize_runs(split_runs(pooled_runs, variant="schema"))
    assert schema.median <= baseline.median * 1.10


def test_schema_geometric_mean_wins_recursive(pooled_runs):
    """Per-query geometric mean over recursive queries favours the
    schema-based approach on the real SQL backend."""
    from repro.bench.stats import geometric_mean_speedup

    baseline = split_runs(pooled_runs, variant="baseline", recursive=True)
    schema = split_runs(pooled_runs, variant="schema", recursive=True)
    assert geometric_mean_speedup(baseline, schema) >= 1.0


def test_run_count_accounting(pooled_runs):
    """30 queries x 2 variants per scale factor."""
    expected = 30 * 2 * len(LDBC_SCALE_FACTORS)
    assert len(pooled_runs) == expected
