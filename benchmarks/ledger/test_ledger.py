"""Smoke test of the ledger: run it on toy sizes and check what it emits.

Not part of tier-1 (``pytest.ini`` scopes that to ``tests/``); run it by
path::

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import socket
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` ledger: every workload untraced and traced."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


@pytest.fixture
def harness(monkeypatch):
    """The benchmark's own modules, importable as ``run.py`` sees them."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import http_mixed
    import workloads

    return workloads, http_mixed


def _runs(result, trace):
    return {
        run["workload"]: run for run in result["runs"]
        if run["trace"] is trace
    }


def test_manifest_matches_the_code():
    sys.path.insert(0, str(HERE))
    try:
        from ledger import END_TO_END, PER_LAYER
    finally:
        sys.path.remove(str(HERE))
    assert MANIFEST["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in MANIFEST["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert WORKLOADS == [
        "yago_default", "ldbc_vec", "adhoc_small", "http_mixed"
    ]


def test_every_end_to_end_metric_is_named_with_a_unit(smoke):
    result, printed = smoke
    runs = _runs(result, trace=False)
    assert sorted(runs) == sorted(WORKLOADS)
    for workload, run in runs.items():
        for metric in MANIFEST["end_to_end"]:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (workload, metric)
            assert entry["value"] > 0, (workload, metric)
            assert metric["name"] in printed
        assert set(run["metrics"]) == {
            m["name"] for m in MANIFEST["end_to_end"]
        }


def test_every_per_layer_metric_is_named_with_a_unit(smoke):
    result, _printed = smoke
    runs = _runs(result, trace=True)
    assert sorted(runs) == sorted(WORKLOADS)
    for workload, run in runs.items():
        assert set(run["metrics"]) == {
            m["name"] for m in MANIFEST["per_layer"]
        }
        for metric in MANIFEST["per_layer"]:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (workload, metric)
            # Differences of two medians: on toy sizes either sign.
            assert entry["value"] >= 0 or metric["name"] in (
                "server.tenant_overhead_ms", "server.http_overhead_ms",
                "server.queue_wait_ms",
            ), (workload, metric)
        assert run["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_nothing_failed_and_provenance_is_recorded(smoke):
    result, _printed = smoke
    for key in ("cpu_count", "platform", "python", "numpy",
                "default_kernel", "git_commit", "seed"):
        assert key in result["provenance"], key
    for run in result["runs"]:
        assert run["failed_ratio"] == 0, run["failures"]
        assert run["correct"] and run["attempted"] >= 1
        assert run["loop"] == "closed" and run["clients"] in (1, 2)
        assert run["sizes"] and run["sample_counts"]["reads"] > 0


def test_each_workload_stresses_its_own_layers(smoke):
    result, _printed = smoke
    runs = _runs(result, trace=True)

    def seconds(workload, metric):
        return runs[workload]["metrics"][metric]["value"]

    assert seconds("yago_default", "ra.evaluate_s") > 0
    assert seconds("yago_default", "exec.execute_s") == 0
    assert seconds("ldbc_vec", "exec.execute_s") > 0
    assert seconds("ldbc_vec", "ra.evaluate_s") == 0
    assert seconds("ldbc_vec", "core.rewrite_s") == 0
    assert seconds("adhoc_small", "core.rewrite_s") > 0
    assert seconds("adhoc_small", "planner.plan_s") > 0
    assert seconds("http_mixed", "server.tenant_s") > 0
    assert seconds("http_mixed", "storage.append_s") > 0
    assert seconds("http_mixed", "engine.result_cache_hit_ratio") > 0
    assert runs["http_mixed"]["sample_counts"]["solo_reads"] > 0


def test_spans_share_request_ids_and_nest():
    """The span file of one traced run: children carry their parent's
    request id and lie inside its interval."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "adhoc_small",
         "--seed", "2", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0

    trace = json.loads(
        (HERE / "results" / "trace-adhoc_small.json").read_text()
    )
    assert trace["fields"] == ["name", "start", "end", "parent", "request"]
    spans = trace["spans"]
    roots = [s for s in spans if s[0] == "request"]
    assert roots and all(s[3] is None for s in roots)
    assert len({s[4] for s in roots}) == len(roots)  # one id per request
    assert all(s[4].startswith("adhoc_small/") for s in roots)
    nested = 0
    for name, start, end, parent, request in spans:
        assert start <= end, name
        if parent is None:
            continue
        _pname, pstart, pend, _pparent, prequest = spans[parent]
        assert prequest == request, name
        assert pstart <= start and end <= pend, name
        nested += 1
    assert nested > len(roots)
    assert {"engine.prepare", "core.rewrite", "planner.plan"} <= {
        s[0] for s in spans
    }


def test_a_raising_operation_is_counted_not_fatal(harness, monkeypatch):
    workloads, _http_mixed = harness
    monkeypatch.setattr(workloads, "pin_to_cpu", lambda pid, last: None)
    workload = workloads.SessionWorkload(
        "yago_default", workloads.SIZES["smoke"]["yago_default"]
    )
    bind = workload._call
    broken = workloads.YAGO_QUERIES[0].text

    def call(session, text, rewrite):
        if text == broken and not rewrite:
            return lambda: 1 / 0
        return bind(session, text, rewrite)

    monkeypatch.setattr(workload, "_call", call)
    measured = workload.run(seed=1, seconds=20, trace=False)
    passes = len(measured.pass_seconds["baseline"])
    assert measured.failed == passes == 2
    assert measured.attempted == 2 * passes * len(workloads.YAGO_QUERIES)
    assert "ZeroDivisionError" in measured.failures[0]
    assert all(value > 0 for value in measured.end_to_end().values())


def test_a_refused_connection_is_a_failed_operation(harness):
    _workloads, http_mixed = harness
    with socket.socket() as unused:
        unused.bind(("127.0.0.1", 0))
        port = unused.getsockname()[1]
    status, body, size = asyncio.run(
        http_mixed.Connection(port).request("GET", "/metrics")
    )
    assert (status, size) == (0, 0) and isinstance(body, OSError)
