"""Shared fixtures: the paper's running example and small datasets, a
wall-clock limit on every test and an address-space limit on the test
process."""

from __future__ import annotations

import signal
import threading

import pytest

try:
    import resource
except ImportError:  # pragma: no cover - not a Unix platform
    resource = None

from repro.datasets.ldbc import generate_ldbc, ldbc_schema, ldbc_store
from repro.datasets.yago import generate_yago, yago_schema, yago_store
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema


#: Seconds a test may run (setup included) before it fails. No test needs
#: more than a few; a runaway case fails with its test id and frees the
#: host rather than hanging it.
_TEST_SECONDS = 120


class _Overran(BaseException):
    """A test ran past ``_TEST_SECONDS``. Not an ``Exception``: hypothesis
    treats those as a failing example to shrink (re-running it) and to
    save (for every later run to replay), where this must end the test."""


def _cap_address_space() -> None:
    """Lower the soft ``RLIMIT_AS`` to 4 GiB where the platform has it
    and it is higher, never raising a limit. A full run maps under 1 GB;
    a runaway native allocation, which ``SIGALRM`` cannot interrupt,
    then fails with ``MemoryError`` instead of exhausting the host."""
    limit = getattr(resource, "RLIMIT_AS", None)
    if limit is None:
        return
    cap = 4 << 30
    soft, hard = resource.getrlimit(limit)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(limit, (cap, hard))


_cap_address_space()


@pytest.fixture(autouse=True)
def _wall_clock_limit(request):
    """Fail the test from a ``SIGALRM`` once it overruns, where the
    platform has the signal and the test runs in the main thread."""
    if not hasattr(signal, "SIGALRM") or (
        threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def overran(signum, frame):
        raise _Overran(f"{request.node.nodeid} ran past {_TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(_TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def fig1_schema():
    """The paper's Fig. 1 running-example schema."""
    return yago_example_schema()


@pytest.fixture(scope="session")
def fig2_graph():
    """The paper's Fig. 2 running-example database."""
    return yago_example_graph()


@pytest.fixture(scope="session")
def ldbc_small():
    """A small LDBC dataset: (schema, graph, store)."""
    schema = ldbc_schema()
    graph = generate_ldbc(0.05, seed=3)
    store = ldbc_store(graph, schema)
    return schema, graph, store


@pytest.fixture(scope="session")
def yago_small():
    """A small YAGO dataset: (schema, graph, store)."""
    schema = yago_schema()
    graph = generate_yago(0.08, seed=5)
    store = yago_store(graph, schema)
    return schema, graph, store
