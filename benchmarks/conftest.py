"""Shared benchmark fixtures and output capture.

The benchmark suite runs the paper's experiments at the *quick* profile
(LDBC SF 0.1-3, reduced timeouts) so ``pytest benchmarks/ --benchmark-only``
stays laptop-friendly; the ``repro-bench --full`` CLI reproduces the full
six-scale-factor sweep. Every experiment's rendered table is also written
to ``benchmarks/output/`` for inspection.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Quick-profile knobs shared across benchmark modules. The quick profile
#: swaps the paper's SF axis (0.1..30) for (0.3..10): small enough to keep
#: the suite under a few minutes, large enough that recursion dominates.
LDBC_SCALE_FACTORS = (0.3, 1, 3, 10)
LDBC_TIMEOUT = 2.5
#: Engine for the runtime distributions (Figs. 13, Tables 7-8): the real
#: SQL backend. Feasibility (Table 5) uses the slower ``ra`` backend
#: (pure-Python kernel), where the timeout cap actually bites at these
#: scales.
DISTRIBUTION_ENGINE = "sqlite"
YAGO_SCALE = 0.6
YAGO_TIMEOUT = 20.0


def write_output(name: str, text: str) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def yago_context():
    from repro.bench.experiments import load_yago_context

    return load_yago_context(
        YAGO_SCALE, timeout_seconds=YAGO_TIMEOUT, repetitions=1
    )


@pytest.fixture(scope="session")
def ldbc_sf1_context():
    from repro.bench.experiments import load_ldbc_context

    return load_ldbc_context(1, timeout_seconds=LDBC_TIMEOUT, repetitions=1)
