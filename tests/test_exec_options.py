"""Tests for the unified :class:`ExecOptions` surface: validation,
resolution order, per-backend knob projection, cache-key derivation,
uniform acceptance across session/batch/HTTP models, and the env-gated
deprecation of the legacy kwargs."""

from __future__ import annotations

import warnings

import pytest

from repro.engine import GraphSession
from repro.engine.options import (
    DEFAULT_EXEC_OPTIONS,
    EXEC_OPTIONS_WARN_ENV,
    ExecOptions,
)
from repro.errors import RequestError
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.server.models import QueryRequest
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
            ("spill_threshold_bytes", 0),
            ("spill_threshold_bytes", True),
            ("spill_threshold_bytes", "4"),
            ("max_rows", -1),
            ("fixpoint_growth", "fast"),
            ("fixpoint_growth", True),
            ("result_cache_size", -1),
            ("result_cache_size", True),
            ("incremental", "no"),
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

    def test_round_trips_through_dict(self):
        options = ExecOptions(
            backend="vec", spill_threshold_bytes=4, incremental=False
        )
        assert ExecOptions.from_mapping(options.to_dict()) == options


class TestResolution:
    def test_merged_overlays_set_fields_only(self):
        base = ExecOptions(backend="vec", spill_threshold_bytes=2)
        override = ExecOptions(spill_threshold_bytes=8, planner="cost")
        merged = base.merged(override)
        assert merged == ExecOptions(
            backend="vec", spill_threshold_bytes=8, planner="cost"
        )

    def test_merged_none_is_identity(self):
        options = ExecOptions(backend="ra")
        assert options.merged(None) is options

    def test_legacy_kwargs_win_over_fields(self):
        options = ExecOptions(
            backend="vec", planner="cost", spill_threshold_bytes=2
        )
        resolved = options.with_legacy(
            backend="ra", backend_options={"spill_threshold_bytes": 6}
        )
        assert resolved.backend == "ra"
        assert resolved.spill_threshold_bytes == 6
        assert resolved.planner == "cost"  # untouched by the overlay


class TestProjection:
    def test_vec_receives_its_knobs(self):
        options = ExecOptions(
            kernel="python", spill_threshold_bytes=3, spill_path="/tmp/s",
            fixpoint_growth=1.5, result_cache_size=9,
        )
        assert options.backend_options_for("vec") == {
            "kernel": "python", "spill_threshold_bytes": 3,
            "spill_path": "/tmp/s", "fixpoint_growth": 1.5,
        }

    def test_ra_receives_growth_only(self):
        options = ExecOptions(kernel="python", fixpoint_growth=2.0)
        assert options.backend_options_for("ra") == {"fixpoint_growth": 2.0}

    def test_black_box_backends_receive_nothing(self):
        options = ExecOptions(spill_threshold_bytes=3)
        assert options.backend_options_for("sqlite") is None

    def test_legacy_extra_overlays_verbatim(self):
        # Unknown keys must reach the backend so its own validation
        # fires — the options object does not swallow typos.
        options = ExecOptions(spill_threshold_bytes=3)
        assert options.backend_options_for(
            "vec", {"spill_threshold_bytes": 7, "bogus": 1}
        ) == {"spill_threshold_bytes": 7, "bogus": 1}

    def test_freeze_is_the_single_cache_key_path(self):
        options = ExecOptions(spill_threshold_bytes=3)
        assert options.freeze("vec") == options.freeze(
            "vec", None
        ) != options.freeze("sqlite")


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

    def test_legacy_and_unified_spellings_share_cache_entries(self):
        # The keying satellite: both spellings resolve to the same
        # backend-options projection, hence the same plan-cache key.
        with _session() as session:
            session.prepare(
                QUERY, "vec", backend_options={"spill_threshold_bytes": 2}
            )
            before = session.cache_stats["plan"].hits
            session.prepare(
                QUERY,
                exec_options=ExecOptions(
                    backend="vec", spill_threshold_bytes=2
                ),
            )
            assert session.cache_stats["plan"].hits == before + 1

    def test_result_cache_size_via_options(self):
        with _session(
            exec_options=ExecOptions(result_cache_size=4)
        ) as session:
            session.execute(QUERY, "vec")
            session.execute(QUERY, "vec")
            assert session.cache_stats["result"].hits == 1

    def test_same_rows_through_both_spellings(self):
        with _session() as session:
            legacy = session.execute(
                QUERY, "vec", backend_options={"kernel": "python"}
            )
            unified = session.execute(
                QUERY,
                exec_options=ExecOptions(backend="vec", kernel="python"),
            )
        assert legacy == unified

    def test_batch_accepts_exec_options(self):
        with _session() as session:
            outcome = execute_batch(
                session, [QUERY],
                exec_options=ExecOptions(backend="ra"),
            )
        assert outcome.report.backend == "ra"

    def test_unknown_backend_option_still_rejected(self):
        with _session() as session:
            with pytest.raises(Exception, match="bogus"):
                session.prepare(
                    QUERY, "vec", backend_options={"bogus": True}
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

    def test_auto_backend_accepted(self):
        request = QueryRequest.from_payload(
            {"query": QUERY, "backend": "auto"}
        )
        assert request.backend == "auto"


# -- deprecation gating -------------------------------------------------------
class TestDeprecationWarnings:
    def test_quiet_by_default(self, monkeypatch):
        monkeypatch.delenv(EXEC_OPTIONS_WARN_ENV, raising=False)
        with _session() as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                session.prepare(QUERY, "ra", planner="cost")

    def test_warns_when_env_enabled(self, monkeypatch):
        monkeypatch.setenv(EXEC_OPTIONS_WARN_ENV, "1")
        with _session() as session:
            with pytest.warns(DeprecationWarning, match="exec_options"):
                session.prepare(QUERY, "ra", planner="cost")
            # The unified spelling never warns.
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                session.prepare(
                    QUERY, exec_options=ExecOptions(backend="ra")
                )
