"""Tests for the cost model's Q-error telemetry: the log, Q-error
arithmetic and its edge cases, what sessions record and report, and
``backend="auto"``, the default backend under the cost planner."""

from __future__ import annotations

import pytest

from repro.engine import GraphSession
from repro.engine.options import DEFAULT_BACKEND, ExecOptions
from repro.graph.model import yago_example_graph
from repro.planner import CalibrationLog, q_error, q_error_summary
from repro.schema.builder import yago_example_schema
from repro.serve import execute_batch

WORKLOAD = [
    "x1, x2 <- (x1, isLocatedIn, x2)",
    "x1, x2 <- (x1, isLocatedIn+, x2)",
    "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)",
    "x1, x3 <- (x1, isLocatedIn, x2) && (x2, isLocatedIn, x3)",
]
COST = ExecOptions(planner="cost")


def _session(**kwargs) -> GraphSession:
    return GraphSession(
        yago_example_graph(), yago_example_schema(), **kwargs
    )


def _run_workload(session, backends=("vec", "ra", "sqlite")) -> None:
    for backend in backends:
        for query in WORKLOAD:
            session.execute(query, backend, exec_options=COST)


# -- Q-error arithmetic -------------------------------------------------------
class TestQError:
    def test_symmetric_and_floored_at_one(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0
        assert q_error(7, 7) == 1.0

    def test_zero_actual_is_floored_not_divided(self):
        # An estimator that said 0 for a 0-row result is perfect, and a
        # 0-row result never raises ZeroDivisionError.
        assert q_error(0, 0) == 1.0
        assert q_error(100, 0) == 100.0

    def test_cold_stats_zero_estimate(self):
        assert q_error(0, 50) == 50.0

    def test_missing_estimate_is_none(self):
        assert q_error(None, 42) is None

    def test_summary_pools_every_record(self):
        log = CalibrationLog()
        log.record_execution(backend="ra", estimated_rows=10, actual_rows=10)
        log.record_execution(backend="vec", estimated_rows=10, actual_rows=40)
        # No root estimate: counted, but not in the root distribution.
        log.record_execution(backend="ra", estimated_rows=None, actual_rows=5)
        summary = log.summary()
        assert summary["count"] == 3
        assert summary["root"]["count"] == 2
        assert summary["root"]["p50"] == 1.0
        assert summary["root"]["max"] == 4.0
        assert summary["by_kind"] == {}

    def test_summary_of_empty_log(self):
        assert q_error_summary(()) == {
            "count": 0, "root": None, "by_kind": {},
        }


# -- the telemetry log --------------------------------------------------------
class TestCalibrationLog:
    def test_bounded_oldest_drop_first(self):
        log = CalibrationLog(max_records=2)
        for index in range(5):
            log.record_execution(
                backend="ra", estimated_rows=index, actual_rows=index
            )
        assert len(log) == 2
        assert log.total_recorded == 5
        assert [record.estimated_rows for record in log.records] == [3, 4]

    def test_session_records_vec_and_ra_operator_telemetry(self):
        session = _session()
        with session:
            _run_workload(session, backends=("vec", "ra"))
            records = session.calibration_log.records
        assert {record.backend for record in records} == {"vec", "ra"}
        for record in records:
            assert any(record.op_rows.values())
            assert any(record.op_estimates.values())

    def test_sqlite_records_are_totals_only(self):
        session = _session()
        with session:
            _run_workload(session, backends=("sqlite",))
            records = session.calibration_log.records
        assert records
        for record in records:
            assert record.backend == "sqlite"
            # Black box: no per-operator telemetry, only the root pair.
            assert not any(record.op_rows.values())
            assert record.estimated_rows is not None  # cost-planned

    @pytest.mark.parametrize("planner", ["greedy", "cost"])
    def test_memoised_estimates_log_what_a_fresh_walk_would(self, planner):
        """Every record carries the estimates a fresh estimator walks
        out of the executed term as the run starts — across repeat
        executions, which leave the memo valid, and a store write, which
        retires it."""
        from repro.planner import estimate_kind_rows
        from repro.ra.stats import Estimator

        with _session() as session:
            store = session.store
            handles = [
                session.prepare(
                    query, backend, exec_options=ExecOptions(planner=planner)
                )
                for backend in ("vec", "ra")
                for query in WORKLOAD
            ]
            for round_no in range(3):
                if round_no == 2:
                    present = store.table("isLocatedIn").rows
                    ids = sorted({n for row in present for n in row})
                    store.add_rows("isLocatedIn", [next(
                        (a, b) for a in ids for b in ids
                        if a != b and (a, b) not in present
                    )])
                for handle in handles:
                    term = handle.plan.term
                    fresh = Estimator(store)
                    expected = estimate_kind_rows(term, store, fresh)
                    handle.execute()
                    record = session.calibration_log.records[-1]
                    assert record.op_estimates == expected
                    if handle.choice is None:
                        assert record.estimated_rows == fresh.rows(term)
                    else:
                        assert record.estimated_rows == handle.choice.winner.rows

    def test_warm_handle_walks_its_estimates_once(self, monkeypatch):
        from repro.engine import telemetry as telemetry_module

        built = []

        class Counting(telemetry_module.Estimator):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(telemetry_module, "Estimator", Counting)
        with _session() as session:
            handle = session.prepare(WORKLOAD[2], "vec")
            for _ in range(4):
                handle.execute()
            assert len(built) == 1
            # A cost-planned handle over a fixpoint-free term starts from
            # the planning pass's estimates and never walks at all.
            planned = session.prepare(WORKLOAD[3], "vec", exec_options=COST)
            assert planned.plan.term in session.telemetry._estimates
            for _ in range(3):
                planned.execute()
            assert len(built) == 1

    def test_fresh_handles_of_one_plan_walk_once(self, monkeypatch):
        """The memo belongs to the cached plan, not to the handle: N
        ``execute(text)`` calls (a fresh handle each) walk the term once,
        and a write to a table the plan reads forces one more walk."""
        from repro.engine import telemetry as telemetry_module

        walked = []
        walk = telemetry_module._Estimates.walk

        def counting(cls, term, estimator):
            walked.append(term)
            return walk(term, estimator)

        monkeypatch.setattr(
            telemetry_module._Estimates, "walk", classmethod(counting)
        )
        with _session() as session:
            for _ in range(5):
                session.execute(WORKLOAD[2])
            assert len(walked) == 1
            handle = session.prepare(WORKLOAD[2])
            assert "isLocatedIn" in handle.plan.program.scan_tables
            present = session.store.table("isLocatedIn").rows
            ids = sorted({n for row in present for n in row})
            session.store.add_rows("isLocatedIn", [next(
                (a, b) for a in ids for b in ids
                if a != b and (a, b) not in present
            )])
            for _ in range(3):
                session.execute(WORKLOAD[2])
            assert len(walked) == 2
            assert walked[0] == walked[1] == handle.plan.term

    def test_cold_recursive_cost_planned_runs_walk_once(self, monkeypatch):
        """Planning seeds the telemetry estimates of the winner it
        ranked, and the run records them from there: a cold cost-planned
        recursive execution walks its term once, not once to rank and
        again to log."""
        from repro.engine import telemetry as telemetry_module

        walked = []
        walk = telemetry_module._Estimates.walk

        def counting(cls, term, estimator):
            walked.append(term)
            return walk(term, estimator)

        monkeypatch.setattr(
            telemetry_module._Estimates, "walk", classmethod(counting)
        )
        recursive = [query for query in WORKLOAD if "+" in query]
        with _session() as session:
            for query in recursive:
                session.execute(query, "vec", exec_options=COST, rewrite=False)
            assert len(session.calibration_log.records) == len(recursive)
            assert len(walked) == len(recursive)

    @pytest.mark.parametrize("planner", ["greedy", "cost"])
    def test_fresh_handles_log_what_a_per_handle_walk_would(self, planner):
        """The per-plan memo changes no record: each fresh handle's
        record holds exactly the estimates a walk of its own term, by a
        fresh unpinned estimator, gives as the run starts."""
        from repro.planner import estimate_kind_rows
        from repro.ra.stats import Estimator

        options = ExecOptions(planner=planner)
        with _session() as session:
            store = session.store
            for round_no in range(3):
                if round_no == 2:
                    present = store.table("isLocatedIn").rows
                    ids = sorted({n for row in present for n in row})
                    store.add_rows("isLocatedIn", [next(
                        (a, b) for a in ids for b in ids
                        if a != b and (a, b) not in present
                    )])
                for query in WORKLOAD:
                    # What ``execute(text)`` does: a fresh handle per call.
                    handle = session.prepare(query, exec_options=options)
                    term = handle.plan.term
                    fresh = Estimator(store)
                    expected = estimate_kind_rows(term, store, fresh)
                    handle.execute()
                    record = session.calibration_log.records[-1]
                    assert record.op_estimates == expected
                    if handle.choice is None:
                        assert record.estimated_rows == fresh.rows(term)
                    else:
                        assert record.estimated_rows == handle.choice.winner.rows


# -- backend="auto" and the reports -------------------------------------------
class TestAutoBackend:
    def test_auto_resolves_to_concrete_backend(self):
        session = _session()
        with session:
            prepared = session.prepare(WORKLOAD[0], "auto")
            # The default backend under the cost planner, and what a
            # re-prepare (schema change, degradation) starts from.
            assert prepared.backend_name == DEFAULT_BACKEND
            assert prepared.exec_options.backend == DEFAULT_BACKEND
            assert prepared.exec_options.planner == "cost"
            assert prepared.choice is not None
            rows = session.execute(WORKLOAD[0], "auto")
            uniform = session.execute(WORKLOAD[0], "ra")
        assert rows == uniform

    def test_auto_batch_reports_choices(self):
        session = _session()
        with session:
            outcome = execute_batch(session, WORKLOAD, "auto")
            report = outcome.report
            assert report.backend == "auto"
            assert report.distinct_plans == len(WORKLOAD)
            for query, rows in zip(WORKLOAD, outcome.results):
                assert rows == session.execute(query, "ra")

    def test_calibration_state_surfaces_in_planner_stats(self):
        session = _session()
        with session:
            _run_workload(session, backends=("ra",))
            stats = session.planner_stats["calibration"]
        assert stats["records"] == stats["total_recorded"] == len(WORKLOAD)
        q_errors = stats["q_error"]
        assert set(q_errors) == {"count", "root", "by_kind"}
        assert q_errors["count"] == len(WORKLOAD)
        # Cost-planned: every record carries a root estimate.
        assert q_errors["root"]["count"] == len(WORKLOAD)
        assert q_errors["root"]["p50"] >= 1.0
        assert "scan" in q_errors["by_kind"]

    def test_explain_carries_q_error_after_executions(self):
        session = _session()
        with session:
            session.execute(WORKLOAD[0], "ra", exec_options=COST)
            report = session.explain(WORKLOAD[0], "ra")
        assert report.q_error is not None
        assert "-- q-error (ra): " in report.render()
        assert report.q_error["count"] >= 1
