"""Plan identity: what the planner decides is pinned to a committed table.

For every workload query, with and without the schema rewrite and for
each of ``auto``/``vec``/``ra``/``sqlite``, a fresh session's ``prepare``
must pick the backend, the winning candidate and the ranked table that
``tests/data/plan_identity.json`` records, and every candidate's query
text (the fresh-variable names of the partial rewrites included) must
match. A change that only makes planning cheaper leaves the table alone;
one that is meant to change a plan regenerates it::

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
BACKENDS = ("vec", "ra", "sqlite", "auto")


def plan_rows(session, text: str, rewrite: bool) -> dict:
    """One query's planning decisions: the ranked table under each
    backend's cost model, and the backend ``auto`` picks."""
    row: dict = {"candidates": {}, "plans": {}}
    for requested in BACKENDS:
        session.clear_caches()  # every backend plans from cold
        handle = session.prepare(
            text, rewrite=rewrite,
            exec_options=ExecOptions(backend=requested, planner="cost"),
        )
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
        if requested == "auto":
            # ``auto`` executes the very plan its chosen backend ranks.
            row["auto"] = handle.backend_name
            assert row["plans"][handle.backend_name] == plan
        else:
            assert handle.backend_name == requested
            row["plans"][requested] = plan
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
