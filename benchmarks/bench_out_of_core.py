"""Out-of-core vec execution: memmap spill under a hard byte cap.

The out-of-core acceptance gate: the YAGO workload's heaviest recursive
query runs with a hard ``ResourceBudget.max_bytes`` ceiling sized so the
purely in-memory vec run exhausts it (``resource_exhausted``); the same
query with a tiny ``spill_threshold_bytes`` re-homes every large
intermediate to memmap-backed spill files, stays under the same
ceiling, and returns the exact rows of the unbudgeted run.

The JSON artefact lands in ``benchmarks/output/out_of_core.json``.

Profiles (``REPRO_OOC_BENCH_PROFILE``):

* ``quick`` (default) — YAGO scale 0.6,
* ``smoke`` — tiny dataset; the CI step.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import OUTPUT_DIR

#: YAGO scale per profile.
_PROFILES = {"quick": 0.6, "smoke": 0.15}
PROFILE = os.environ.get("REPRO_OOC_BENCH_PROFILE", "quick")
YAGO_SCALE = _PROFILES[PROFILE]
TIMEOUT = 120.0

#: The hard ceiling starts here and halves until the in-memory run
#: exhausts it, so the gate self-sizes to the profile's data scale.
CAP_START = 1 << 22
CAP_FLOOR = 1 << 10


@pytest.fixture(scope="module")
def ooc_session():
    from repro.datasets.yago import yago_session

    with yago_session(scale=YAGO_SCALE) as session:
        yield session


def _measure_spill_under_cap(session, queries) -> dict:
    """In-memory vec must exhaust a byte ceiling that spill fits under."""
    from repro.engine.options import ExecOptions
    from repro.errors import ResourceExhaustedError

    heaviest = max(
        (q for q in queries if q.recursive), key=lambda q: q.qid
    )
    reference = session.prepare(heaviest.query, "vec", rewrite=False)
    expected = reference.execute(timeout_seconds=TIMEOUT)

    cap = CAP_START
    exhausted = False
    while cap >= CAP_FLOOR:
        in_memory = session.prepare(
            heaviest.query, "vec", rewrite=False,
            exec_options=ExecOptions(max_bytes=cap),
        )
        try:
            in_memory.execute(timeout_seconds=TIMEOUT)
        except ResourceExhaustedError:
            exhausted = True
            break
        cap //= 2
    assert exhausted, (
        f"in-memory vec never exhausted max_bytes down to {cap * 2}"
    )

    spilled = session.prepare(
        heaviest.query, "vec", rewrite=False,
        exec_options=ExecOptions(max_bytes=cap, spill_threshold_bytes=1),
    )
    rows = spilled.execute(timeout_seconds=TIMEOUT)
    assert rows == expected, heaviest.qid
    stats = spilled.last_execution_stats
    return {
        "qid": heaviest.qid,
        "rows": len(expected),
        "max_bytes": cap,
        "spilled_bytes": stats.spilled_bytes,
        "spill_ops": stats.spill_ops,
        "peak_estimate_bytes": stats.peak_estimate_bytes,
        "in_memory_exhausted": True,
        "spill_completed": True,
    }


@pytest.fixture(scope="module")
def out_of_core_results(ooc_session):
    from repro.workloads.yago_queries import YAGO_QUERIES

    results = {
        "profile": PROFILE,
        "scale": YAGO_SCALE,
        "spill": _measure_spill_under_cap(ooc_session, YAGO_QUERIES),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "out_of_core.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    return results


def test_spill_completes_under_cap_where_in_memory_fails(
    out_of_core_results,
):
    """The spill acceptance gate: the hard byte ceiling that kills the
    in-memory run is satisfiable once large intermediates spill, and
    the rows still match the unbudgeted run (asserted while measuring).
    """
    spill = out_of_core_results["spill"]
    assert spill["in_memory_exhausted"]
    assert spill["spill_completed"]
    assert spill["spill_ops"] > 0
    assert spill["spilled_bytes"] > 0


def test_artifact_written(out_of_core_results):
    artifact = json.loads((OUTPUT_DIR / "out_of_core.json").read_text())
    assert artifact["profile"] == PROFILE
    assert "spill" in artifact
