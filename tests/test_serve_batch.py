"""The serving layer: batched execution, the asyncio service, the CLI."""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.datasets.ldbc import ldbc_session
from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.errors import ResourceExhaustedError
from repro.exec import ExecutionStats, available_kernels
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.serve import QueryService, execute_batch, serve_queries
from repro.workloads.ldbc_queries import LDBC_QUERIES

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
CHAIN = "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)"
QUERIES = [CLOSURE, CHAIN, CLOSURE]  # one duplicate
LDBC = {query.qid: query.text for query in LDBC_QUERIES}


@pytest.fixture
def session():
    with GraphSession(yago_example_graph(), yago_example_schema()) as s:
        yield s


class TestExecuteBatch:
    def test_matches_per_query_execution(self, session):
        expected = [session.execute(q, "vec") for q in QUERIES]
        assert session.execute_batch(QUERIES, "vec") == expected

    def test_duplicates_collapse_to_one_plan(self, session):
        outcome = execute_batch(session, QUERIES, "vec")
        assert outcome.report.queries == 3
        assert outcome.report.distinct_plans == 2
        assert outcome.report.duplicate_queries == 1
        assert outcome.results[0] == outcome.results[2]

    def test_shared_subprograms_reused_across_batch(self, session):
        # CLOSURE is a subterm of CHAIN's plan: the batch runner must
        # serve the shared fixpoint from its memo, not recompute it.
        outcome = execute_batch(session, [CLOSURE, CHAIN], "vec")
        execution = outcome.report.execution
        assert isinstance(execution, ExecutionStats)
        assert execution.programs == 2
        assert execution.memo_hits > 0

    def test_empty_batch(self, session):
        outcome = execute_batch(session, [], "vec")
        assert outcome.results == ()
        assert outcome.report.queries == 0

    def test_unsatisfiable_query_yields_empty_rows(self, session):
        # 'livesIn' ends at CITY and starts at PERSON, so composing it
        # with itself is schema-unsatisfiable (the prepared plan is
        # None) — but it must not sink the rest of the batch.
        unsat = "x1, x2 <- (x1, livesIn/livesIn, x2)"
        outcome = execute_batch(session, [CLOSURE, unsat], "vec")
        assert outcome.results[0] == session.execute(CLOSURE, "vec")
        assert outcome.results[1] == session.execute(unsat, "vec")

    def test_kernel_backend_option(self, session):
        outcome = execute_batch(
            session, QUERIES, "vec",
            exec_options=ExecOptions(kernel="python"),
        )
        assert list(outcome.results) == [
            session.execute(q, "ra") for q in QUERIES
        ]

    def test_non_vec_backends_still_batch(self, session):
        expected = [session.execute(q, "reference") for q in QUERIES]
        for backend in ("ra", "sqlite", "reference"):
            outcome = execute_batch(session, QUERIES, backend)
            assert list(outcome.results) == expected, backend
            assert outcome.report.distinct_plans == 2
            if backend != "ra":
                assert outcome.report.execution is None
        # ra is the same executor on the python kernel: one shared runner.
        outcome = execute_batch(session, [CLOSURE, CHAIN], "ra")
        execution = outcome.report.execution
        assert execution.programs == 2
        assert execution.memo_hits > 0

    def test_batch_respects_schema_change(self, session):
        before = session.execute_batch([CLOSURE], "vec")
        session.update_schema(session.schema)  # same content, new object
        assert session.execute_batch([CLOSURE], "vec") == before


class TestBatchByteCap:
    """The shared batch runner honours the byte cap a single execution
    does: over it, the batch fails typed on every kernel."""

    @pytest.mark.parametrize("planner", ("greedy", "cost"))
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_byte_cap_fails_the_batch_typed(self, ldbc_small, kernel, planner):
        schema, graph, _ = ldbc_small
        query = "x1, x2 <- (x1, knows+, x2)"
        capped = ExecOptions(
            backend="vec", kernel=kernel, planner=planner, max_bytes=64
        )
        with GraphSession(graph, schema) as ldbc:
            with pytest.raises(ResourceExhaustedError) as excinfo:
                execute_batch(ldbc, [query, query], exec_options=capped)
        assert excinfo.value.resource == "bytes"
        assert excinfo.value.limit == 64


def _spy_prepare(session, monkeypatch):
    """Record the handles ``execute_batch`` prepares on ``session``."""
    handles = []
    prepare = session.prepare

    def spy(*args, **kwargs):
        handles.append(prepare(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(session, "prepare", spy)
    return handles


def _untimed(stats):
    if stats is None:
        return None
    return {
        name: value
        for name, value in dataclasses.asdict(stats).items()
        if not name.endswith("_seconds")
    }


def _last_record(session):
    records = session.telemetry.records
    return records[-1] if records else None


class TestBatchOfOne:
    """A batch of one and a single execution are the same run."""

    def test_cost_planned_batch_keeps_estimate_and_stats(self, monkeypatch):
        options = ExecOptions(backend="vec", planner="cost")
        with ldbc_session(0.1) as single:
            prepared = single.prepare(LDBC["IC1"], exec_options=options)
            prepared.execute()
            record = _last_record(single)
            expected = (record.estimated_rows, record.actual_rows)
        assert expected[0] > 0
        with ldbc_session(0.1) as batched:
            handles = _spy_prepare(batched, monkeypatch)
            outcome = execute_batch(
                batched, [LDBC["IC1"]], exec_options=options
            )
            record = _last_record(batched)
        assert (record.estimated_rows, record.actual_rows) == expected
        assert handles[0].last_execution_stats is not None
        assert outcome.report.execution is not None

    @pytest.mark.parametrize("cache", [0, 64])
    @pytest.mark.parametrize("planner", ["greedy", "cost"])
    @pytest.mark.parametrize("backend", ["vec", "ra", "sqlite"])
    def test_same_run_as_a_single_execution(
        self, backend, planner, cache, monkeypatch
    ):
        options = ExecOptions(backend=backend, planner=planner)
        query = LDBC["IC1"]
        with (
            ldbc_session(0.05, seed=3, result_cache_size=cache) as single,
            ldbc_session(0.05, seed=3, result_cache_size=cache) as batched,
        ):
            handles = _spy_prepare(batched, monkeypatch)
            for step in range(3 if cache else 1):
                if step == 2:  # both cached entries go stale
                    for session in (single, batched):
                        _befriend_two_persons(session)
                prepared = single.prepare(query, exec_options=options)
                rows = prepared.execute()
                outcome = execute_batch(batched, [query], exec_options=options)
                assert outcome.results == (rows,)
                assert _last_record(batched) == _last_record(single)
                assert _untimed(handles[-1].last_execution_stats) == (
                    _untimed(prepared.last_execution_stats)
                )
                for layer in ("rewrite", "plan", "result"):
                    assert batched.cache_stats[layer] == (
                        single.cache_stats[layer]
                    ), layer
            assert len(batched.telemetry) == len(single.telemetry)


def _befriend_two_persons(session):
    """Append one ``knows`` edge between two persons not yet linked."""
    store = session.store
    persons = sorted(store.table("Person").column_values("Sr"))
    known = store.table("knows").rows
    pair = next(
        (a, b) for a in persons for b in persons
        if a != b and (a, b) not in known
    )
    assert store.add_rows("knows", [pair]) == 1


class TestCacheKeyCanonicalisation:
    def test_identical_batch_requests_share_one_plan_entry(self, session):
        pinned = ExecOptions(kernel="python")
        a = session.prepare(CLOSURE, "vec", exec_options=pinned)
        b = session.prepare(
            CLOSURE, exec_options=ExecOptions(backend="vec", kernel="python")
        )
        assert a.plan is b.plan
        stats = session.cache_stats["plan"]
        assert stats.hits >= 1
        assert stats.size == 1


class TestQueryService:
    def test_serves_a_workload(self, session):
        expected = [session.execute(q, "vec") for q in QUERIES]

        async def drive():
            return await serve_queries(
                session, QUERIES * 3, "vec", max_batch_size=4, workers=2
            )

        results, stats = asyncio.run(drive())
        assert results == expected * 3
        assert stats.completed == 9
        assert stats.batches >= 1
        assert stats.shared_plans > 0  # duplicates answered from the batch

    def test_submit_outside_context_raises(self, session):
        service = QueryService(session)

        async def drive():
            await service.submit(CLOSURE)

        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(drive())

    def test_error_propagates_to_the_submitter(self, session):
        async def drive():
            async with QueryService(session, "vec") as service:
                await service.submit("x1, x2 <- (x1, nosuchlabel+, x2)")

        with pytest.raises(Exception, match="nosuchlabel"):
            asyncio.run(drive())

    def test_malformed_query_fails_at_submit(self, session):
        from repro.errors import ParseError

        async def drive():
            async with QueryService(session, "vec") as service:
                await service.submit("this is not a UCQT")

        with pytest.raises(ParseError):
            asyncio.run(drive())

    def test_batch_timeout_fails_the_whole_batch(self, session):
        # The budget bounds the batch; a timeout must reach every
        # submitter instead of triggering per-request retries that
        # would multiply the bounded work.
        from repro.errors import QueryTimeout

        async def drive():
            # rewrite=False keeps the fixpoints (the rewriter would
            # eliminate them on this schema), so the budget is checked.
            async with QueryService(
                session, "vec", timeout_seconds=0.0, workers=1,
                rewrite=False,
            ) as service:
                return await asyncio.gather(
                    service.submit(CLOSURE),
                    service.submit(CHAIN),
                    return_exceptions=True,
                )

        errors = asyncio.run(drive())
        assert all(isinstance(e, QueryTimeout) for e in errors), errors

    def test_bad_request_does_not_fail_batch_peers(self, session):
        # A failing query (unknown label, caught at prepare time) shares
        # an admission batch with a valid one; only its own future may
        # fail — the peer must still get its rows.
        async def drive():
            async with QueryService(session, "vec", workers=1) as service:
                good = service.submit(CLOSURE)
                bad = service.submit("x1, x2 <- (x1, nosuchlabel+, x2)")
                return await asyncio.gather(good, bad, return_exceptions=True)

        good_rows, bad_error = asyncio.run(drive())
        assert good_rows == session.execute(CLOSURE, "vec")
        assert isinstance(bad_error, Exception)
        assert "nosuchlabel" in str(bad_error)

    def test_sqlite_read_waiting_on_the_lock_keeps_the_loop_responsive(
        self, session
    ):
        # Another batch holds the session lock for 0.5 s; a sqlite read
        # waits for it on a worker thread, not on the loop.
        async def drive():
            async with QueryService(session, "sqlite") as service:
                lock = service._session_lock
                lock.acquire()
                holder = threading.Timer(0.5, lock.release)
                holder.start()
                try:
                    reads = asyncio.ensure_future(service.map(QUERIES))
                    started = time.perf_counter()
                    await asyncio.sleep(0.01)
                    woke = time.perf_counter() - started
                    return woke, await reads
                finally:
                    holder.join()

        woke, rows = asyncio.run(drive())
        assert woke < 0.1
        assert rows == [session.execute(q, "sqlite") for q in QUERIES]

    def test_schema_change_splits_admission_batches(self, session):
        async def drive():
            async with QueryService(session, "vec", workers=1) as service:
                first = service.submit(CLOSURE)
                session.update_schema(session.schema)
                second = service.submit(CLOSURE)
                return await asyncio.gather(first, second)

        first, second = asyncio.run(drive())
        assert first == second == session.execute(CLOSURE, "vec")

    def test_invalid_configuration_rejected(self, session):
        for kwargs in (
            {"max_batch_size": 0},
            {"max_pending": 0},
            {"workers": 0},
        ):
            with pytest.raises(ValueError):
                QueryService(session, **kwargs)


class TestCli:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("# a comment\n" + "\n".join(QUERIES) + "\n\n")
        return str(path)

    def test_batch_subcommand(self, capsys, query_file):
        assert cli_main(["batch", query_file, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "batch of 3 quer(ies) -> 2 distinct plan(s)" in out
        assert "operator result(s) reused" in out

    def test_batch_subcommand_json(self, capsys, query_file):
        import json

        assert cli_main(["batch", query_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["query"] for entry in payload] == QUERIES
        assert payload[0]["rows"] == payload[2]["rows"]

    def test_serve_subcommand(self, capsys, query_file):
        assert cli_main(
            ["serve", query_file, "--workers", "2", "--max-batch", "2"]
        ) == 0
        assert "served 3 quer(ies)" in capsys.readouterr().out

    def test_batch_stdin_empty_fails(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("# only comments\n"))
        assert cli_main(["batch"]) == 1
        assert "no queries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "{file}", "--json"],
            ["serve", "{file}"],
            ["query", CLOSURE],
            ["bench", "table6"],
        ],
        ids=["batch", "serve", "query", "bench"],
    )
    def test_closed_stdout_exits_quietly(self, argv, query_file):
        """A reader that has gone away (``repro batch --json | head``)
        ends the command with ``EXIT_STDOUT_CLOSED`` and no traceback."""
        import os
        import subprocess
        import sys

        import repro
        from repro.cli import EXIT_STDOUT_CLOSED

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the first write
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro"]
                + [arg.format(file=query_file) for arg in argv],
                env={**os.environ, "PYTHONPATH": src},
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        stderr = done.stderr.decode()
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
        assert done.returncode == EXIT_STDOUT_CLOSED, stderr


class TestCliRejectsBeforeLoading:
    """Usage errors exit 2 with a message naming the cause, before any
    dataset loads."""

    @pytest.fixture(autouse=True)
    def no_loading(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dataset loaded before validation")

        monkeypatch.setattr("repro.cli._load_session", refuse)

    @staticmethod
    def _usage_error(capsys, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "given, flag",
        [
            (["queries.txt"], "FILE"),
            (["-"], "FILE"),
            (["--baseline"], "--baseline"),
            (["--timeout", "3"], "--timeout"),
            (["--limit", "5"], "--limit"),  # serve's default, given
            (["--json"], "--json"),
            (["--workers", "4"], "--workers"),
            (["--max-batch", "3"], "--max-batch"),
        ],
    )
    def test_http_refuses_file_mode_flags(self, capsys, given, flag):
        err = self._usage_error(
            capsys, ["serve", "--http", "127.0.0.1:0", *given]
        )
        assert f"argument {flag}: not allowed with argument --http" in err

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf", "-0.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "x1, x2 <- (x1, isLocatedIn, x2)", "--scale"],
            ["batch", "--scale"],
            ["serve", "--scale"],
        ],
    )
    def test_scale_must_be_finite_and_positive(self, capsys, argv, scale):
        err = self._usage_error(capsys, [*argv, scale])
        assert "argument --scale: scale must be a finite number > 0" in err

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_tenant_scale_must_be_finite_and_positive(self, capsys, scale):
        err = self._usage_error(
            capsys,
            ["serve", "--http", "127.0.0.1:0", "--tenant", f"a=ldbc:{scale}"],
        )
        assert "argument --tenant: scale must be a finite number > 0" in err

    def test_tenant_names_are_distinct(self, capsys):
        err = self._usage_error(
            capsys,
            [
                "serve", "--http", "127.0.0.1:0",
                "--tenant", "a=yago-example", "--tenant", "a=ldbc:0.1",
            ],
        )
        assert "argument --tenant: tenant 'a' given twice" in err
