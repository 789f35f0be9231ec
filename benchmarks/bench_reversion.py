"""§5.2 — reversion census, plus rewriter throughput benchmarks."""

from conftest import write_output

import pytest

from repro.bench.experiments import reversion_census
from repro.core.rewriter import rewrite_query
from repro.datasets.ldbc import ldbc_schema
from repro.workloads.ldbc_queries import LDBC_QUERIES


_CACHE = {}


def census():
    if "result" not in _CACHE:
        _CACHE["result"] = reversion_census()
    return _CACHE["result"]


@pytest.fixture(name="census")
def census_fixture():
    return census()


def test_reversion_experiment_benchmark(benchmark):
    result = benchmark.pedantic(census, rounds=1, iterations=1)
    write_output("reversion", result.text)
    print("\n" + result.text)


def test_yago_reversion_matches_paper(census):
    """§5.2: exactly query 7 reverts on YAGO."""
    assert census.data["yago"] == ["q7"]


def test_paper_ldbc_revert_set_covered(census):
    """All ten queries the paper reports as reverting revert here too
    (our finer-grained schema reverts some additional ones, which the
    census lists)."""
    assert len(census.data["agreement"]) == 10


def test_rewrite_ldbc_workload_benchmark(benchmark):
    schema = ldbc_schema()

    def rewrite_all():
        return [rewrite_query(q.query, schema) for q in LDBC_QUERIES]

    results = benchmark(rewrite_all)
    assert len(results) == 30
