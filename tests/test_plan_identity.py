"""Plan identity: what the planner decides is pinned to a committed table.

For every workload query, with and without the schema rewrite, a fresh
session's ``prepare`` on ``vec`` must pick the winning candidate and the
ranked table that ``tests/data/plan_identity.json`` records, and every
candidate's query text (the rewrite's fresh-variable names included)
must match. ``ra`` and ``sqlite`` must rank that same table, and
``auto`` must prepare it on ``vec``. The greedy ``vec`` plan's logical
tree is recorded beside it. A change that only makes planning cheaper
leaves the table alone; one that is meant to change a plan regenerates
it, and lists the entries whose winner changed against a saved copy::

    cp tests/data/plan_identity.json OLD.json
    PYTHONPATH=src python tests/test_plan_identity.py --write
    PYTHONPATH=src python tests/test_plan_identity.py --diff OLD.json

Sessions are prepared, never executed, so the table holds what a cold
prepare decides from the query, the schema and the store alone.
"""

from __future__ import annotations

import json
import pathlib
import sys
import pytest

from repro.datasets.ldbc import ldbc_session
from repro.datasets.yago import yago_session
from repro.engine.options import ExecOptions
from repro.planner.cost import cost_term
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
    prepares, checked against every other backend's, and the greedy
    ``vec`` plan's logical tree."""
    row: dict = {"candidates": {}, "plans": {}}
    for requested in BACKENDS:
        session.clear_caches()  # every backend plans from cold
        handle = session.prepare(
            text, rewrite=rewrite,
            exec_options=ExecOptions(backend=requested, planner="cost"),
        )
        ran = "vec" if requested == "auto" else requested
        assert handle.backend_name == ran
        choice = handle.choice
        for entry in choice.ranked:
            row["candidates"].setdefault(
                entry.label, str(entry.candidate.query)
            )
            assert row["candidates"][entry.label] == str(entry.candidate.query)
        plan = {
            "winner": choice.winner.label,
            "render": choice.render(),
        }
        assert row["plans"].setdefault("vec", plan) == plan, requested
    session.clear_caches()
    handle = session.prepare(
        text, rewrite=rewrite,
        exec_options=ExecOptions(backend="vec", planner="greedy"),
    )
    # The logical tree alone: it reads neither the kernel nor the spill
    # setting, so every CI leg renders it the same.
    row["greedy"] = cost_term(handle.plan.term, session.store).render(
        session.store
    )
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


def winner_changes(old: dict, new: dict) -> list[str]:
    """``dataset query/rewrite: old → new`` for every entry whose winner
    differs between two tables (``-`` where an entry is missing)."""
    lines = []
    for dataset in sorted(set(old) | set(new)):
        before, after = old.get(dataset, {}), new.get(dataset, {})
        for key in sorted(set(before) | set(after)):
            was = before.get(key, {}).get("plans", {}).get("vec", {})
            now = after.get(key, {}).get("plans", {}).get("vec", {})
            if was.get("winner") != now.get("winner"):
                lines.append(
                    f"{dataset} {key}: {was.get('winner', '-')} → "
                    f"{now.get('winner', '-')}"
                )
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"] and len(sys.argv) == 3:
        old = json.loads(pathlib.Path(sys.argv[2]).read_text())
        for line in winner_changes(old, json.loads(TABLE.read_text())):
            print(line)
        sys.exit(0)
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
