"""Plan identity: what the planner decides is pinned to a committed table.

For every workload query, with and without the schema rewrite, a fresh
session's ``prepare`` on ``vec`` must pick the winning candidate and the
ranked table that ``tests/data/plan_identity.json`` records, and every
candidate's query text (the fresh-variable names of the partial
rewrites included) must match. ``ra`` and ``sqlite`` must rank that
same table, and ``auto`` must prepare it on ``vec``. A change that only
makes planning cheaper leaves the table alone; one that is meant to
change a plan regenerates it::

    PYTHONPATH=src python tests/test_plan_identity.py --write

Sessions are prepared, never executed: executions feed observed fixpoint
growth back into the estimator, which would make the table depend on the
order the queries ran in.
"""

from __future__ import annotations

import json
import pathlib
import sys
import pytest

from repro.datasets.ldbc import ldbc_session
from repro.datasets.yago import yago_session
from repro.engine.options import ExecOptions
from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

TABLE = pathlib.Path(__file__).parent / "data" / "plan_identity.json"

#: The ``adhoc_small`` sizes of the performance ledger.
DATASETS = {
    "yago": (YAGO_QUERIES, lambda: yago_session(0.05)),
    "ldbc": (LDBC_QUERIES, lambda: ldbc_session(0.1)),
}
#: The first backend's table is recorded; the others must rank it too.
BACKENDS = ("vec", "ra", "sqlite", "auto")


def plan_rows(session, text: str, rewrite: bool) -> dict:
    """One query's planning decisions: the ranked table ``vec``
    prepares, checked against every other backend's."""
    row: dict = {"candidates": {}, "plans": {}}
    for requested in BACKENDS:
        session.clear_caches()  # every backend plans from cold
        handle = session.prepare(
            text, rewrite=rewrite,
            exec_options=ExecOptions(backend=requested, planner="cost"),
        )
        ran = "vec" if requested == "auto" else requested
        assert handle.backend_name == ran
        # The spill CI leg stamps a memory line on vec plans; the
        # table records the decision-free rendering plus the estimate.
        choice = handle.choice.with_memory(spill=False)
        for entry in choice.ranked:
            row["candidates"].setdefault(
                entry.label, str(entry.candidate.query)
            )
            assert row["candidates"][entry.label] == str(entry.candidate.query)
        plan = {
            "winner": choice.winner.label,
            "peak_bytes": choice.peak_bytes,
            "render": choice.render(),
        }
        assert row["plans"].setdefault("vec", plan) == plan, requested
    return row


def build_table(dataset: str) -> dict:
    queries, open_session = DATASETS[dataset]
    table = {}
    with open_session() as session:
        for query in queries:
            for rewrite in (True, False):
                key = f"{query.qid}/{'rewrite' if rewrite else 'baseline'}"
                table[key] = plan_rows(session, query.text, rewrite)
    return table


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_plans_match_the_committed_table(dataset):
    expected = json.loads(TABLE.read_text())[dataset]
    actual = build_table(dataset)
    assert sorted(actual) == sorted(expected)
    for key, row in actual.items():
        assert row == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(
        json.dumps(
            {name: build_table(name) for name in sorted(DATASETS)},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
