"""Tests for the unified :class:`ExecOptions` surface: validation,
resolution order, the fields each backend reads (and keys its caches
on), and uniform acceptance across session/batch/HTTP models."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import GraphSession, get_backend
from repro.engine.options import DEFAULT_EXEC_OPTIONS, ExecOptions
from repro.errors import RequestError
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.server.models import HTTP_STATUS_BY_CODE, QueryRequest
from repro.serve import execute_batch

QUERY = "x1, x2 <- (x1, isLocatedIn+, x2)"


def _session(**kwargs) -> GraphSession:
    return GraphSession(
        yago_example_graph(), yago_example_schema(), **kwargs
    )


# -- the dataclass ------------------------------------------------------------
class TestValidation:
    def test_all_unset_by_default(self):
        assert DEFAULT_EXEC_OPTIONS.to_dict() == {}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", 3),
            ("planner", b"cost"),
            ("kernel", 1.5),
            ("max_bytes", 0),
            ("max_bytes", True),
            ("max_bytes", "4"),
            ("max_rows", -1),
        ],
    )
    def test_rejects_ill_typed_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecOptions(**{field: value})

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown exec option"):
            ExecOptions.from_mapping({"paralellism": 4})

    @pytest.mark.parametrize(
        "key", ["parallelism", "morsel_size", "shard_workers"]
    )
    def test_knobs_of_the_deleted_parallel_kernels_are_unknown(self, key):
        # No alias or silent no-op stays behind for them.
        with pytest.raises(ValueError, match="unknown exec option"):
            ExecOptions.from_mapping({key: 2})

    @pytest.mark.parametrize("key", ["result_cache_size", "incremental"])
    def test_session_scoped_values_are_not_exec_options(self, key):
        # They configure a session, not a call: a request that set them
        # used to be accepted and ignored.
        assert len(dataclasses.fields(ExecOptions)) == 6
        with pytest.raises(ValueError, match="unknown exec option"):
            ExecOptions.from_mapping({key: 0})

    def test_round_trips_through_dict(self):
        options = ExecOptions(backend="vec", max_bytes=4, fallback=False)
        assert ExecOptions.from_mapping(options.to_dict()) == options


class TestResolution:
    def test_merged_overlays_set_fields_only(self):
        base = ExecOptions(backend="vec", max_bytes=2)
        override = ExecOptions(max_bytes=8, planner="cost")
        merged = base.merged(override)
        assert merged == ExecOptions(
            backend="vec", max_bytes=8, planner="cost"
        )

    def test_merged_none_is_identity(self):
        options = ExecOptions(backend="ra")
        assert options.merged(None) is options


class TestProjection:
    """Each backend names the fields it reads; their values are the
    options part of its plan- and result-cache keys."""

    OPTIONS = ExecOptions(
        kernel="python", max_bytes=3, max_rows=9, planner="cost",
    )

    def test_vec_receives_its_knobs(self):
        vec = get_backend("vec")
        assert dict(zip(vec.option_fields, self.OPTIONS.key_for(vec))) == {
            "kernel": "python",
        }

    def test_black_box_backends_receive_nothing(self):
        # ``ra`` pins its kernel: it reads nothing.
        for backend in ("ra", "sqlite", "reference"):
            assert self.OPTIONS.key_for(get_backend(backend)) == ()

    def test_option_fields_are_the_single_cache_key_path(self):
        # Knobs a backend ignores do not fragment its plan cache; knobs
        # it reads do.
        with _session() as session:
            session.prepare(QUERY, "ra")
            before = session.cache_stats["plan"]
            session.prepare(
                QUERY, "ra", exec_options=ExecOptions(kernel="numpy")
            )
            hit = session.cache_stats["plan"]
            assert (hit.hits, hit.misses) == (before.hits + 1, before.misses)
            session.prepare(QUERY, "vec")
            session.prepare(
                QUERY, "vec", exec_options=ExecOptions(kernel="python")
            )
            assert session.cache_stats["plan"].misses == before.misses + 2


# -- uniform acceptance -------------------------------------------------------
class TestSessionAcceptance:
    def test_session_defaults_apply_to_every_call(self):
        with _session(
            exec_options=ExecOptions(backend="ra", planner="cost")
        ) as session:
            prepared = session.prepare(QUERY)
            assert prepared.backend_name == "ra"
            assert prepared.choice is not None  # planner default applied

    def test_per_call_options_override_session_defaults(self):
        with _session(exec_options=ExecOptions(backend="ra")) as session:
            prepared = session.prepare(
                QUERY, exec_options=ExecOptions(backend="vec")
            )
            assert prepared.backend_name == "vec"

    def test_batch_accepts_exec_options(self):
        with _session() as session:
            outcome = execute_batch(
                session, [QUERY],
                exec_options=ExecOptions(backend="ra"),
            )
        assert outcome.report.backend == "ra"

    def test_unknown_backend_option_still_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            ExecOptions(bogus=True)
        with _session() as session:
            with pytest.raises(ValueError, match="unknown kernel"):
                session.prepare(
                    QUERY, "vec", exec_options=ExecOptions(kernel="bogus")
                )


class TestHTTPModel:
    def test_options_parsed_into_exec_options(self):
        request = QueryRequest.from_payload(
            {"query": QUERY, "options": {"max_rows": 2, "planner": "cost"}}
        )
        assert request.options == ExecOptions(max_rows=2, planner="cost")

    def test_invalid_options_are_a_structured_400(self):
        with pytest.raises(RequestError, match="unknown exec option"):
            QueryRequest.from_payload(
                {"query": QUERY, "options": {"bogus": 1}}
            )
        # The estimator's closure growth is observed, not requested.
        with pytest.raises(RequestError, match="'fixpoint_growth'") as error:
            QueryRequest.from_payload(
                {"query": QUERY, "options": {"fixpoint_growth": 2.0}}
            )
        assert HTTP_STATUS_BY_CODE[error.value.code] == 400
        # The deleted out-of-core knob is an unknown option like any other.
        with pytest.raises(
            RequestError, match="'spill_threshold_bytes'"
        ) as error:
            QueryRequest.from_payload(
                {"query": QUERY, "options": {"spill_threshold_bytes": 1}}
            )
        assert error.value.field == "options"
        assert HTTP_STATUS_BY_CODE[error.value.code] == 400

    def test_auto_backend_accepted(self):
        request = QueryRequest.from_payload(
            {"query": QUERY, "backend": "auto"}
        )
        assert request.backend == "auto"
