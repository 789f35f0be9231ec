"""The benchmark ledger's tracer finds the code it times by name.

``benchmarks/ledger/tracing.py`` swaps named functions and methods for
timing wrappers during a traced run; a rename or a deletion on this side
would only surface when a traced benchmark run fails. These checks load
the tracer's tables (without running or changing anything) and resolve
every name it relies on.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "ledger" / "tracing.py"
)


def _tracing():
    spec = importlib.util.spec_from_file_location("_ledger_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize(
    "span,module,attr,_keep", TRACING_MODULE._FUNCTIONS,
    ids=[f"{entry[1]}.{entry[2]}" for entry in TRACING_MODULE._FUNCTIONS],
)
def test_traced_function_resolves(span, module, attr, _keep):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "span,module,owner,attr", TRACING_MODULE._METHODS,
    ids=[f"{entry[2]}.{entry[3]}" for entry in TRACING_MODULE._METHODS],
)
def test_traced_method_is_defined_on_its_class(span, module, owner, attr):
    cls = getattr(importlib.import_module(module), owner)
    assert callable(cls.__dict__[attr])


def test_service_submit_stays_a_coroutine_function():
    # The tracer wraps coroutine functions in an ``async`` wrapper; a
    # plain function returning an awaitable would be timed wrongly.
    from repro.serve.service import QueryService

    assert inspect.iscoroutinefunction(QueryService.__dict__["submit"])
