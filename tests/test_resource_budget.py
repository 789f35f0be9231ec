"""The resource governor: row/byte caps and uniform cross-backend timeouts.

Covers the :class:`ResourceBudget` unit surface (cap accounting, the
``as_budget`` coercion, the taxonomy payload of
:class:`ResourceExhaustedError`), the caps threaded through
``ExecOptions`` on every backend, and the satellite guarantee that an
exceeded wall-clock deadline surfaces as :class:`QueryTimeout` on all
five substrates — including sqlite, where the deadline is enforced
inside the VM via a progress handler.
"""

from __future__ import annotations

import pytest

from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.errors import QueryTimeout, ResourceExhaustedError
from repro.exec import available_kernels
from repro.graph.evaluator import EvalBudget, ResourceBudget, as_budget

BACKENDS = ("ra", "vec", "sqlite", "reference")
KNOWS_CLOSURE = "x1, x2 <- (x1, knows+, x2)"
DEEP_CLOSURE = "x1, x2 <- (x1, knows+/knows+/knows+, x2)"


@pytest.fixture()
def ldbc_session(ldbc_small):
    schema, graph, _ = ldbc_small
    with GraphSession(graph, schema) as session:
        yield session


# -- the budget object ---------------------------------------------------------
class TestResourceBudget:
    def test_row_cap_enforced_cumulatively(self):
        budget = ResourceBudget(None, max_rows=10)
        budget.tick(6)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            budget.tick(5)
        error = excinfo.value
        assert error.resource == "rows"
        assert error.limit == 10
        assert error.used == 11

    def test_byte_cap_enforced_cumulatively(self):
        budget = ResourceBudget(None, max_bytes=100)
        budget.charge_bytes(64)
        with pytest.raises(ResourceExhaustedError):
            budget.charge_bytes(64)

    def test_uncapped_budget_never_raises(self):
        budget = ResourceBudget(None)
        budget.tick(10_000_000)
        budget.charge_bytes(10_000_000)

    def test_taxonomy_payload(self):
        error = ResourceExhaustedError("bytes", 100, 128)
        payload = error.payload()
        assert payload["code"] == "resource_exhausted"
        assert payload["resource"] == "bytes"
        assert payload["limit"] == 100
        assert payload["used"] == 128
        assert error.retryable

    def test_base_budget_ignores_byte_charges(self):
        budget = EvalBudget(None)
        budget.charge_bytes(1 << 40)  # no-op by contract
        assert not budget.expired

    def test_expired_probe_matches_deadline(self):
        assert EvalBudget(-1.0).expired
        assert not EvalBudget(3600.0).expired
        assert not EvalBudget(None).expired

    def test_as_budget_coercion(self):
        existing = ResourceBudget(1.0, max_rows=5)
        assert as_budget(existing) is existing
        assert as_budget(None).seconds is None
        assert as_budget(2.5).seconds == 2.5


# -- caps threaded through the session -----------------------------------------
class TestSessionResourceCaps:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_cap_exhausts_on_every_backend(self, ldbc_session, backend):
        with pytest.raises(ResourceExhaustedError):
            ldbc_session.execute(
                KNOWS_CLOSURE,
                backend,
                exec_options=ExecOptions(max_rows=8),
            )

    @pytest.mark.parametrize("backend", ("ra", "vec", "sqlite"))
    def test_byte_cap_exhausts(self, ldbc_session, backend):
        with pytest.raises(ResourceExhaustedError):
            ldbc_session.execute(
                KNOWS_CLOSURE,
                backend,
                exec_options=ExecOptions(max_bytes=64),
            )

    @pytest.mark.parametrize("backend", ("ra", "vec"))
    def test_generous_caps_change_nothing(self, ldbc_session, backend):
        expected = ldbc_session.execute(KNOWS_CLOSURE, backend)
        capped = ldbc_session.execute(
            KNOWS_CLOSURE,
            backend,
            exec_options=ExecOptions(max_rows=10**9, max_bytes=10**12),
        )
        assert capped == expected

    @pytest.mark.parametrize("planner", ("greedy", "cost"))
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_byte_cap_is_a_hard_failure_on_every_kernel(
        self, ldbc_session, kernel, planner
    ):
        # Everything runs in memory: a cap below what the plan
        # materialises fails typed, whatever the kernel or the planner,
        # and no plan renders a memory decision.
        prepared = ldbc_session.prepare(
            KNOWS_CLOSURE,
            exec_options=ExecOptions(
                backend="vec", kernel=kernel, planner=planner, max_bytes=64
            ),
        )
        assert "-- memory:" not in str(prepared.explain())
        with pytest.raises(ResourceExhaustedError) as excinfo:
            prepared.execute()
        assert excinfo.value.resource == "bytes"
        assert excinfo.value.limit == 64

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError, match="max_rows"):
            ExecOptions(max_rows=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ExecOptions(max_bytes=-1)


# -- uniform timeouts ----------------------------------------------------------
class TestUniformTimeout:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expired_deadline_is_query_timeout_everywhere(
        self, ldbc_session, backend
    ):
        # Already expired at submission: the first cooperative check
        # fires no matter how fast the substrate is on this dataset.
        with pytest.raises(QueryTimeout):
            ldbc_session.execute(DEEP_CLOSURE, backend, timeout_seconds=-1.0)

    def test_sqlite_interrupts_inside_the_vm(self, ldbc_small):
        """The progress handler cancels a statement mid-flight, not just
        between fetches — the uniform-timeout satellite's hard case."""
        _, _, store = ldbc_small
        from repro.query.parser import parse_query
        from repro.sql.sqlite_backend import SqliteBackend

        with SqliteBackend(store) as backend:
            with pytest.raises(QueryTimeout):
                backend.execute_ucqt(
                    parse_query(DEEP_CLOSURE), timeout_seconds=0.0001
                )
