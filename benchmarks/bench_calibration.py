"""Calibrated per-query backend choice vs uniform-backend execution.

The calibration acceptance gate, exercising the whole telemetry → fit →
exploit loop on the YAGO + LDBC workloads:

1. **telemetry** — every workload query runs cost-planned on each of
   ``vec``/``ra``/``sqlite``, filling the session's calibration log with
   per-operator (estimated, actual) cardinalities and exclusive timings;
2. **fit** — ``session.calibrate()`` least-squares fits each backend's
   ``CostProfile`` into a common seconds-per-row scale and reports the
   estimator's Q-error distribution per workload;
3. **exploit** — the same workload is re-run three ways: uniformly on
   each backend, and with ``backend="auto"`` where the calibrated model
   picks the cheapest substrate per query.

Gates:

* **agreement** — auto-routed rows equal uniform rows, every query;
* **auto beats the uniform mean** (quick profile) — pooled auto time is
  at least ``AUTO_TARGET``× faster than the mean uniform-backend time
  (the win of *not* pinning one backend for a mixed workload);
* **auto near the best uniform** — auto never loses more than noise
  against the best single backend (it may beat it by mixing);
* on the smoke profile's tiny datasets the timing gates degrade to
  recording the observed ratios in the artifact (``gate`` says which
  applied).

The JSON artifact (``benchmarks/output/calibration.json``) carries the
fitted profiles, the per-workload Q-error p50/p90/max, per-backend and
auto timings, and the auto backend-choice split.

Profiles (``REPRO_CALIBRATION_BENCH_PROFILE``):

* ``quick`` (default) — YAGO scale 0.6, LDBC SF 1, best of 3,
* ``smoke`` — tiny datasets, best of 2; the CI step.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import OUTPUT_DIR

from repro.engine.options import ExecOptions

_PROFILES = {
    # name: (yago scale, ldbc scale factor, repetitions)
    "quick": (0.6, 1.0, 3),
    "smoke": (0.15, 0.1, 2),
}
PROFILE = os.environ.get("REPRO_CALIBRATION_BENCH_PROFILE", "quick")
YAGO_SCALE, LDBC_SF, REPETITIONS = _PROFILES[PROFILE]
TIMEOUT = 120.0

#: The pool the calibrated model chooses from (mirrors the session's
#: ``_AUTO_POOL``).
BACKENDS = ("vec", "ra", "sqlite")
COST = ExecOptions(planner="cost")

#: Quick-profile gates: auto must beat the mean uniform backend by this
#: factor, and stay within noise of the best uniform backend.
AUTO_TARGET = 1.1
NOISE_FLOOR = 0.75


def _gate_description() -> str:
    if PROFILE == "quick":
        return (
            f"auto >= {AUTO_TARGET}x the mean uniform backend and within "
            f"{NOISE_FLOOR}x of the best uniform backend (quick profile)"
        )
    return (
        f"ratios recorded only (profile={PROFILE}: tiny datasets sit at "
        "timer resolution)"
    )


@pytest.fixture(scope="module")
def yago_calibration_session():
    from repro.datasets.yago import yago_session

    with yago_session(scale=YAGO_SCALE, workload="yago") as session:
        yield session


@pytest.fixture(scope="module")
def ldbc_calibration_session():
    from repro.datasets.ldbc import ldbc_session

    with ldbc_session(scale_factor=LDBC_SF, workload="ldbc") as session:
        yield session


def _best_of(callable_, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_workload(session, queries, scale) -> dict:
    texts = [workload_query.query for workload_query in queries]

    # Phase 1 — telemetry: cost-planned executions on every backend.
    for backend in BACKENDS:
        for text in texts:
            session.execute(
                text, backend, exec_options=COST, timeout_seconds=TIMEOUT
            )

    # Phase 2 — fit. The session now prices plans in measured seconds.
    state = session.calibrate()
    assert set(state.fitted_backends) == set(BACKENDS)

    # Phase 3 — exploit: uniform per-backend runs vs calibrated auto.
    uniform: dict[str, float] = {}
    reference_rows = None
    for backend in BACKENDS:
        handles = [
            session.prepare(text, backend, exec_options=COST)
            for text in texts
        ]
        rows = [handle.execute(TIMEOUT) for handle in handles]
        if reference_rows is None:
            reference_rows = rows
        else:
            assert rows == reference_rows  # agreement across substrates
        uniform[backend] = _best_of(
            lambda handles=handles: [
                handle.execute(TIMEOUT) for handle in handles
            ],
            REPETITIONS,
        )
    auto_handles = [session.prepare(text, "auto") for text in texts]
    choices: dict[str, int] = {}
    for handle in auto_handles:
        choices[handle.backend_name] = choices.get(handle.backend_name, 0) + 1
    auto_rows = [handle.execute(TIMEOUT) for handle in auto_handles]
    assert auto_rows == reference_rows  # agreement under auto routing
    auto_seconds = _best_of(
        lambda: [handle.execute(TIMEOUT) for handle in auto_handles],
        REPETITIONS,
    )

    mean_uniform = sum(uniform.values()) / len(uniform)
    best_uniform = min(uniform.values())
    return {
        "scale": scale,
        "queries": len(texts),
        "uniform_seconds": uniform,
        "auto_seconds": auto_seconds,
        "auto_choices": choices,
        "auto_vs_mean_uniform": mean_uniform / max(auto_seconds, 1e-9),
        "auto_vs_best_uniform": best_uniform / max(auto_seconds, 1e-9),
        "q_error": state.q_error,
        "profiles": {
            name: profile.to_dict()
            for name, profile in state.profiles.items()
        },
    }


@pytest.fixture(scope="module")
def calibration_results(yago_calibration_session, ldbc_calibration_session):
    from repro.workloads.ldbc_queries import LDBC_QUERIES
    from repro.workloads.yago_queries import YAGO_QUERIES

    results = {
        "profile": PROFILE,
        "backends": list(BACKENDS),
        "auto_target": AUTO_TARGET,
        "noise_floor": NOISE_FLOOR,
        "gate": _gate_description(),
        "workloads": {
            "yago": _measure_workload(
                yago_calibration_session, YAGO_QUERIES, YAGO_SCALE
            ),
            "ldbc": _measure_workload(
                ldbc_calibration_session, LDBC_QUERIES, LDBC_SF
            ),
        },
    }
    pooled_auto = sum(
        workload["auto_seconds"] for workload in results["workloads"].values()
    )
    pooled_mean = sum(
        sum(workload["uniform_seconds"].values())
        / len(workload["uniform_seconds"])
        for workload in results["workloads"].values()
    )
    pooled_best = sum(
        min(workload["uniform_seconds"].values())
        for workload in results["workloads"].values()
    )
    results["overall"] = {
        "auto_seconds": pooled_auto,
        "mean_uniform_seconds": pooled_mean,
        "best_uniform_seconds": pooled_best,
        "auto_vs_mean_uniform": pooled_mean / max(pooled_auto, 1e-9),
        "auto_vs_best_uniform": pooled_best / max(pooled_auto, 1e-9),
        "distinct_backends_chosen": len(
            {
                name
                for workload in results["workloads"].values()
                for name in workload["auto_choices"]
            }
        ),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "calibration.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    return results


def test_q_error_reported_per_workload(calibration_results):
    """Every workload's calibration snapshot carries a root Q-error
    distribution (count/p50/p90/max) — the telemetry the fit consumed."""
    for name, workload in calibration_results["workloads"].items():
        assert name in workload["q_error"], workload["q_error"].keys()
        root = workload["q_error"][name]["root"]
        assert root is not None, name
        assert root["count"] >= workload["queries"]
        assert 1.0 <= root["p50"] <= root["p90"] <= root["max"]


def test_auto_beats_uniform_backends(calibration_results):
    """The point of calibration: per-query backend choice beats pinning
    any single backend for a mixed workload (quick profile)."""
    overall = calibration_results["overall"]
    if PROFILE != "quick":
        assert overall["auto_vs_mean_uniform"] > 0.0
        return
    assert overall["auto_vs_mean_uniform"] >= AUTO_TARGET, overall
    assert overall["auto_vs_best_uniform"] >= NOISE_FLOOR, overall


def test_artifact_written(calibration_results):
    artifact = json.loads((OUTPUT_DIR / "calibration.json").read_text())
    assert artifact["profile"] == PROFILE
    assert set(artifact["workloads"]) == {"yago", "ldbc"}
    for workload in artifact["workloads"].values():
        assert set(workload["uniform_seconds"]) == set(BACKENDS)
        assert set(workload["profiles"]) == set(BACKENDS)
        assert sum(workload["auto_choices"].values()) == workload["queries"]
