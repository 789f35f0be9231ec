"""Spans around the calls into each layer, recorded from the benchmark.

The product code has no tracing of its own yet (a later change adds
it), so the traced run swaps each layer's public entry point for a timing
wrapper while a traced pass runs and puts the original back afterwards.
A request then runs through the real front door and leaves one span per
layer boundary it crossed: ``name, start, end, parent, request``.

The tracer keeps one stack of open spans for the whole process, so it
assumes a single request in flight. That holds for every traced pass:
session workloads are sequential and the ``http_mixed`` replay awaits
each operation before sending the next, which also lets a span opened on
the admission batcher's worker thread nest under the request that
caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, function, what to keep for counting). Functions are
#: replaced in every ``repro`` module that imported them by name.
_FUNCTIONS = (
    ("query.parse", "repro.query.parser", "parse_query", None),
    ("core.rewrite", "repro.core.rewriter", "rewrite_query", "result"),
    ("core.rewrite", "repro.core.rewriter", "enumerate_rewrites", None),
    ("ra.translate", "repro.ra.translate", "ucqt_to_ra", "result"),
    ("ra.optimize", "repro.ra.optimizer", "optimize_term", None),
    ("ra.optimize", "repro.ra.optimizer", "optimize_term_candidates", None),
    ("planner.plan", "repro.planner.candidates", "plan_query", None),
    ("planner.plan", "repro.planner.candidates",
     "enumerate_plan_candidates", None),
    ("planner.plan", "repro.planner.candidates", "rank_candidates", "result"),
    ("exec.compile", "repro.exec.compile", "compile_term", "result"),
    ("exec.execute", "repro.exec.executor", "execute_batch_programs",
     "stats"),
    ("ra.evaluate", "repro.ra.evaluate", "evaluate_term", None),
    ("exec.maintain", "repro.exec.maintain", "maintain_program", None),
    ("serve.batch", "repro.serve.batch", "execute_batch", None),
    ("server.serialise", "repro.server.models", "rows_payload", None),
)

#: (span name, module, class, method).
_METHODS = (
    ("engine.prepare", "repro.engine.session", "GraphSession", "prepare"),
    ("engine.execute", "repro.engine.session", "PreparedQuery", "execute"),
    ("engine.backend", "repro.engine.backends", "RaBackend",
     "execute_with_stats"),
    ("engine.backend", "repro.engine.backends", "VecBackend",
     "execute_with_stats"),
    ("engine.backend", "repro.engine.backends", "SqliteEngineBackend",
     "execute"),
    ("storage.append", "repro.storage.relational", "RelationalStore",
     "add_rows"),
    ("serve.service", "repro.serve.service", "QueryService", "submit"),
    ("server.tenant", "repro.server.tenants", "Tenant", "query"),
    ("server.tenant", "repro.server.tenants", "Tenant", "write"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "request")


class Tracer:
    """In-memory span recorder plus the swapping-in of the wrappers."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: ``[name, start, end, parent index or None, request id]`` each.
        self.spans: list[list] = []
        #: span name -> the return values / stats objects kept for counts.
        self.kept: dict[str, list] = defaultdict(list)
        self.request: str | None = None
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] | None = None

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        record = [
            name, time.perf_counter(), None,
            self._stack[-1] if self._stack else None, self.request,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def request_span(self, request: str):
        """The root span of one request; children inherit its id."""
        self.request = request
        try:
            with self.span("request"):
                yield
        finally:
            self.request = None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, func, keep: str | None):
        kept = self.kept[name]

        def note(kwargs, result) -> None:
            if keep == "result":
                kept.append(result)
            elif keep == "stats" and kwargs.get("stats") is not None:
                # Every caller hands ``stats`` over by keyword.
                kept.append(kwargs["stats"])

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced(*args, **kwargs):
                with self.span(name):
                    result = await func(*args, **kwargs)
                note(kwargs, result)
                return result
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                with self.span(name):
                    result = func(*args, **kwargs)
                note(kwargs, result)
                return result
        return traced

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        sites = []
        for name, module_name, attr, keep in _FUNCTIONS:
            func = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, func, keep)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is func:
                        sites.append((module, key, func, wrapper))
        for name, module_name, class_name, attr in _METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            func = owner.__dict__[attr]
            sites.append((owner, attr, func, self._wrap(name, func, None)))
        return sites

    @contextmanager
    def installed(self):
        """Every wrapper in place for the duration of a block."""
        if self._sites is None:
            self._sites = self._find_sites()
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _wrapper in self._sites:
                setattr(owner, attr, original)

    @contextmanager
    def method_span(self, name: str, owner: type, attr: str):
        """Wrap one method for the duration of a block (used in set-up,
        where the full set of wrappers must stay out)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, None))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: a span's duration minus the part of
        it its direct children cover. ``engine.prepare`` is split into
        ``.cold`` (some stage ran beneath it) and ``.warm`` (both caches
        answered)."""
        spans = self.spans
        has_child = [False] * len(spans)
        own = [0.0] * len(spans)
        for index, (_name, start, end, parent, _request) in enumerate(spans):
            duration = end - start
            own[index] += duration
            if parent is not None:
                own[parent] -= duration
                has_child[parent] = True
        totals: dict[str, float] = defaultdict(float)
        for index, record in enumerate(spans):
            name = record[0]
            if name == "engine.prepare":
                name += ".cold" if has_child[index] else ".warm"
            totals[name] += own[index]
        return totals

    def dump(self) -> dict:
        """The span file's content; times are seconds since the tracer
        was created."""
        origin = self.origin
        return {
            "fields": list(SPAN_FIELDS),
            "spans": [
                [name, start - origin, end - origin, parent, request]
                for name, start, end, parent, request in self.spans
            ],
        }
