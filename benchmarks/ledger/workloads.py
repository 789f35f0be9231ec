"""The four workloads of the ledger and the code that drives them.

Every workload is a fixed list of operations (a *pass*): the seed decides
the order of the operations and the rows that writes append, never how
much work a pass holds. How many passes a run times is fixed before it
starts, from ``--seconds`` and the workload's ``pairs_per_second``, never
by a clock, so two commits, two seeds and two hosts do the same work. The
datasets are the generators' fixed graphs (the paper's YAGO and LDBC
stand-ins); the seed is not fed to them, because a different random graph
changes a pass's cost by a fifth and would drown the bounds.

The system is driven through its front doors only: ``GraphSession``
(``execute`` / ``prepare``) and ``python -m repro serve --http`` as a
child process.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from repro.datasets.ldbc import generate_ldbc, ldbc_session
from repro.datasets.yago import generate_yago, yago_session
from repro.engine.options import ExecOptions
from repro.exec.dictionary import StoreEncoding
from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

from ledger import OPERATORS, PER_LAYER, percentile
from tracing import Tracer

#: The frozen sizes. ``full`` is what ``BENCHMARK.json`` measures; ``smoke``
#: is the same code on toy graphs for ``--smoke`` and the test.
#: ``pairs_per_second`` turns ``--seconds`` into the number of pass pairs
#: (rewritten + baseline) a run times: at the 20 s of ``BENCHMARK.json``,
#: 9 pairs (40 on ``adhoc_small``), 2 in the smoke profile. ``setups`` is
#: how often an untraced run sets up from scratch; the median is kept.
SIZES = {
    "full": {
        "yago_default": {
            "yago_scale": 0.45, "pairs_per_second": 0.45, "setups": 3},
        "ldbc_vec": {
            "ldbc_sf": 6.0, "pairs_per_second": 0.45, "setups": 3},
        "adhoc_small": {
            "yago_scale": 0.05, "ldbc_sf": 0.1,
            "pairs_per_second": 2.0, "setups": 7},
        "http_mixed": {
            "ldbc_sf": 1.0, "round_ops": 100,
            "pairs_per_second": 0.45, "setups": 5},
    },
    "smoke": {
        "yago_default": {
            "yago_scale": 0.05, "pairs_per_second": 0.1, "setups": 3},
        "ldbc_vec": {
            "ldbc_sf": 0.1, "pairs_per_second": 0.1, "setups": 3},
        "adhoc_small": {
            "yago_scale": 0.05, "ldbc_sf": 0.1,
            "pairs_per_second": 0.1, "setups": 3},
        "http_mixed": {
            "ldbc_sf": 0.1, "round_ops": 60,
            "pairs_per_second": 0.1, "setups": 3},
    },
}


def pair_count(sizes: dict, seconds: float) -> int:
    """How many pass pairs a run of ``seconds`` times."""
    return max(2, round(seconds * sizes["pairs_per_second"]))

VEC = ExecOptions(backend="vec")
AUTO = ExecOptions(backend="auto")
REFERENCE = ExecOptions(backend="reference")


@dataclass
class Measured:
    """Everything one run of one workload observed."""

    setup_seconds: list[float] = field(default_factory=list)
    #: variant ("rewritten" | "baseline") -> wall seconds of each pass.
    pass_seconds: dict[str, list[float]] = field(
        default_factory=lambda: {"rewritten": [], "baseline": []}
    )
    #: One list per rewritten pass: (query id, read latency in seconds).
    read_passes: list[list[tuple[str, float]]] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    #: ``http_mixed`` only: the read latencies of the traced run's
    #: single-connection rounds, the body size of every read answered,
    #: and the server's own counters for its tenant at the end of the run.
    solo_reads: list[float] = field(default_factory=list)
    response_bytes: list[int] = field(default_factory=list)
    server_metrics: dict = field(default_factory=dict)
    rewritten_ops: int = 0
    peak_rss_mb: float = 0.0
    oracle_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: per-layer metric name -> value (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def all_reads(self) -> list[float]:
        return [latency for reads in self.read_passes for _q, latency in reads]

    def end_to_end(self) -> dict[str, float]:
        reads = self.all_reads()
        rewritten = self.pass_seconds["rewritten"]
        geomeans = []
        for pass_reads in self.read_passes:
            by_query: dict[str, list[float]] = {}
            for qid, latency in pass_reads:
                by_query.setdefault(qid, []).append(latency)
            geomeans.append(statistics.geometric_mean(
                [statistics.median(s) for s in by_query.values()]
            ))
        ops_per_pass = self.rewritten_ops / len(rewritten)
        return {
            "setup_s": statistics.median(self.setup_seconds),
            "pass_s": lower_quartile(rewritten),
            "baseline_pass_s": lower_quartile(self.pass_seconds["baseline"]),
            "query_geomean_ms": 1e3 * lower_quartile(geomeans),
            "query_p90_ms": 1e3 * percentile(reads, 0.90),
            "read_p50_ms": 1e3 * lower_quartile([
                statistics.median(latency for _q, latency in pass_reads)
                for pass_reads in self.read_passes
            ]),
            "throughput_rps": ops_per_pass / lower_quartile(rewritten),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def harness_layers(self) -> dict[str, float]:
        """What a traced run reports about itself beside the layers:
        ``read_p99_ms`` sits here because it did not repeat within its
        bound between two sets of ten runs (+33 % on ``adhoc_small``)."""
        return {
            "ledger.read_p99_ms": 1e3 * percentile(self.all_reads(), 0.99),
            "ledger.oracle_s": self.oracle_seconds,
        }

    def sample_counts(self) -> dict[str, int]:
        return {
            "setups": len(self.setup_seconds),
            "rewritten_passes": len(self.pass_seconds["rewritten"]),
            "baseline_passes": len(self.pass_seconds["baseline"]),
            "reads": len(self.all_reads()),
            "distinct_queries": len({q for q, _l in self.read_passes[0]}),
            "writes": len(self.writes),
            "solo_reads": len(self.solo_reads),
        }

    def raw(self) -> dict:
        """The samples behind the medians and percentiles."""
        return {
            "setup_seconds": self.setup_seconds,
            "pass_seconds": self.pass_seconds,
            "read_passes": self.read_passes,
            "writes": self.writes,
        }


def lower_quartile(per_pass: list[float]) -> float:
    """What a run reports of a time taken once per pass. Not the median:
    on a shared host other tenants only ever add time, in bursts that
    cover a third to two thirds of a 20 s run, and the median of nine
    passes moved by 10 % between runs where this moved by 4 %."""
    return statistics.quantiles(per_pass, n=4, method="inclusive")[0]


def pin_to_cpu(pid: int, last: bool) -> None:
    """Keep a process on one CPU of those it may use: the last one for
    the system under test, the first for the load generator. CPU 0 also
    serves the box's interrupts and housekeeping; a pass measured there
    (or migrating between the two) is slower and less steady. A no-op
    where the platform has no affinity call or offers a single CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(pid))
    if len(cpus) > 1:
        os.sched_setaffinity(pid, {cpus[-1] if last else cpus[0]})


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def answered_rows(answer) -> int:
    """Rows in one answer of ``run_pass``; a call that raised answered
    none."""
    if isinstance(answer, Exception):
        return 0
    return answer if isinstance(answer, int) else len(answer)


def pass_variants(pair: int) -> tuple[str, str]:
    """Alternate which variant of a pair runs first, so neither always
    inherits the other's warm allocator and CPU caches."""
    return ("rewritten", "baseline") if pair % 2 == 0 else (
        "baseline", "rewritten")


# =========================================================================
# Session workloads: yago_default, ldbc_vec, adhoc_small
# =========================================================================
class SessionWorkload:
    """A query set run through ``GraphSession`` in one process."""

    def __init__(self, name: str, sizes: dict):
        self.name = name
        self.sizes = sizes

    # -- what differs between the three ------------------------------------
    def _datasets(self):
        sizes = self.sizes
        if "yago_scale" in sizes:
            yield (
                YAGO_QUERIES,
                lambda: generate_yago(sizes["yago_scale"]),
                lambda graph: yago_session(graph=graph),
            )
        if "ldbc_sf" in sizes:
            yield (
                LDBC_QUERIES,
                lambda: generate_ldbc(sizes["ldbc_sf"]),
                lambda graph: ldbc_session(graph=graph),
            )

    def _call(self, session, text: str, rewrite: bool):
        """The front-door call one operation makes, as a closure."""
        if self.name == "yago_default":
            if rewrite:
                return lambda: session.execute(text)
            return lambda: session.execute(text, rewrite=False)
        if self.name == "ldbc_vec":
            handle = session.prepare(text, rewrite=rewrite, exec_options=VEC)
            return lambda: handle.execute()
        return lambda: session.execute(
            text, rewrite=rewrite, exec_options=AUTO
        )

    # -- set-up --------------------------------------------------------------
    def build(self, tracer: Tracer | None = None) -> dict:
        """Generate the graphs, build store and sessions, bind the calls
        and run the untimed warm-up pass of both variants. A tracer only
        adds set-up spans; the layer wrappers stay out of set-up."""
        span = tracer.span if tracer else (lambda _name: nullcontext())
        sessions, ops = [], []
        for queries, generate, open_session in self._datasets():
            with span("datasets.generate"):
                graph = generate()
            session = open_session(graph)
            with span("storage.build"):
                session.store
            sessions.append(session)
            ops.extend((query.qid, query.text, session) for query in queries)
        state = {
            "sessions": sessions,
            "ops": ops,
            "calls": {
                variant: [
                    self._call(session, text, variant == "rewritten")
                    for _qid, text, session in ops
                ]
                for variant in ("rewritten", "baseline")
            },
        }
        # The dictionary encoding is built lazily by the first vec
        # execution; the warm-up is where that happens.
        with (
            tracer.method_span("exec.encode", StoreEncoding, "table")
            if tracer else nullcontext()
        ):
            for variant in ("rewritten", "baseline"):
                self.run_pass(state, variant, list(range(len(ops))), False)
        return state

    def close(self, state: dict) -> None:
        for session in state["sessions"]:
            session.close()

    # -- one pass ------------------------------------------------------------
    def run_pass(
        self,
        state: dict,
        variant: str,
        order: list[int],
        keep_rows: bool,
        tracer: Tracer | None = None,
        pass_no: int = 0,
    ) -> tuple[float, list[float], list]:
        """Run every operation once in ``order``; returns the pass's wall
        seconds, the latency of each operation and its answer (both in
        operation order, not run order). An answer is the number of rows,
        the rows themselves when ``keep_rows`` (held answers cost later
        operations garbage-collector time, so only the last pass of a run
        keeps them), or the exception the call raised. With a tracer,
        every operation is one request ``workload/qid/pass``."""
        if self.name == "adhoc_small":
            for session in state["sessions"]:
                session.clear_caches()
        calls, ops = state["calls"][variant], state["ops"]
        latencies = [0.0] * len(ops)
        answers: list = [None] * len(ops)
        clock = time.perf_counter

        def timed(index: int) -> None:
            before = clock()
            try:
                rows = calls[index]()
            except Exception as error:  # counted in failed_ratio
                rows = error
            latencies[index] = clock() - before
            answers[index] = rows if (
                keep_rows or isinstance(rows, Exception)
            ) else len(rows)

        gc.collect()
        started = clock()
        for index in order:
            if tracer is None:
                timed(index)
            else:
                with tracer.request_span(
                    f"{self.name}/{ops[index][0]}/{pass_no}"
                ):
                    timed(index)
        return clock() - started, latencies, answers

    # -- correctness ---------------------------------------------------------
    def oracle(self, state: dict) -> list[frozenset]:
        """Expected rows: the path evaluator on the unrewritten query."""
        return [
            session.execute(text, rewrite=False, exec_options=REFERENCE)
            for _qid, text, session in state["ops"]
        ]

    def check(self, measured: Measured, state: dict, passes: list) -> None:
        """Every answer of every pass against the oracle: by row count,
        and by full row set where the pass kept its rows."""
        started = time.perf_counter()
        expected = self.oracle(state)
        measured.oracle_seconds = time.perf_counter() - started
        for variant, answers in passes:
            for (qid, _t, _s), got, want in zip(
                state["ops"], answers, expected
            ):
                measured.attempted += 1
                if isinstance(got, Exception):
                    measured.fail(f"{qid} ({variant}): {got!r}")
                elif isinstance(got, int):
                    if got != len(want):
                        measured.fail(
                            f"{qid} ({variant}): {got} rows, "
                            f"expected {len(want)}"
                        )
                elif got != want:
                    measured.fail(f"{qid} ({variant}): wrong row set")

    # -- the run ---------------------------------------------------------------
    def run(self, seed: int, seconds: float, trace: bool) -> Measured:
        pin_to_cpu(0, last=True)
        measured = Measured()
        rng = random.Random(seed)
        tracer = Tracer() if trace else None
        measured.tracer = tracer

        state = None
        for _ in range(1 if trace else self.sizes["setups"]):
            if state is not None:
                self.close(state)
                state = None
                gc.collect()
            started = time.perf_counter()
            state = self.build(tracer)
            measured.setup_seconds.append(time.perf_counter() - started)

        ops = state["ops"]
        pairs = pair_count(self.sizes, seconds)
        passes: list[tuple[str, list]] = []
        traced_seconds: list[float] = []
        traced_result_rows = 0
        for pair in range(pairs):
            order = rng.sample(range(len(ops)), len(ops))
            last = pair == pairs - 1
            if last:
                # Before the pass that holds on to its rows for the check.
                measured.peak_rss_mb = _own_peak_rss_mb()
            if trace:
                # Same pass twice: once untouched, once with the layer
                # wrappers in place. Their ratio is the tracing overhead.
                plan = (("rewritten", None), ("rewritten", tracer))
            else:
                plan = tuple((variant, None) for variant in pass_variants(pair))
            for variant, pass_tracer in plan:
                if pass_tracer is None:
                    elapsed, latencies, answers = self.run_pass(
                        state, variant, order, last
                    )
                else:
                    with pass_tracer.installed():
                        elapsed, latencies, answers = self.run_pass(
                            state, variant, order, last, pass_tracer, pair
                        )
                passes.append((variant, answers))
                if pass_tracer is not None:
                    traced_seconds.append(elapsed)
                    traced_result_rows += sum(map(answered_rows, answers))
                    continue
                measured.pass_seconds[variant].append(elapsed)
                if variant == "rewritten":
                    measured.rewritten_ops += len(ops)
                    measured.read_passes.append([
                        (qid, latency)
                        for (qid, _text, _session), latency in zip(
                            ops, latencies
                        )
                    ])

        caches = [
            {name: asdict(stats) for name, stats in s.cache_stats.items()}
            for s in state["sessions"]
        ]
        self.check(measured, state, passes)

        if trace:
            measured.layers = {
                **span_layers(
                    self.name, tracer, traced_seconds,
                    measured.pass_seconds["rewritten"], traced_result_rows,
                ),
                **cache_layers(caches),
                **measured.harness_layers(),
            }
        self.close(state)
        return measured


# =========================================================================
# Per-layer metrics from a tracer
# =========================================================================
#: The layers each workload was chosen to stress; ``trace.target_share``
#: is their share of the traced requests' time.
TARGET_LAYERS = {
    "yago_default": ("ra.evaluate",),
    "ldbc_vec": ("exec.execute", "exec.compile"),
    "adhoc_small": (
        "query.parse", "core.rewrite", "ra.translate", "ra.optimize",
        "planner.plan", "exec.compile", "engine.prepare.cold",
    ),
    "http_mixed": (
        "server.tenant", "server.serialise", "serve.service", "serve.batch",
        "exec.maintain", "storage.append", "query.parse",
        "engine.prepare.warm", "engine.prepare.cold",
    ),
}

#: per-layer time metric -> span name whose self time it reports.
_SPAN_OF = {
    "query.parse_s": "query.parse",
    "core.rewrite_s": "core.rewrite",
    "ra.translate_s": "ra.translate",
    "ra.optimize_s": "ra.optimize",
    "planner.plan_s": "planner.plan",
    "exec.compile_s": "exec.compile",
    "exec.execute_s": "exec.execute",
    "ra.evaluate_s": "ra.evaluate",
    "engine.prepare_cold_s": "engine.prepare.cold",
    "engine.prepare_warm_s": "engine.prepare.warm",
    "engine.execute_overhead_s": "engine.execute",
    "engine.backend_s": "engine.backend",
    "exec.maintain_s": "exec.maintain",
    "storage.append_s": "storage.append",
    "serve.service_s": "serve.service",
    "serve.batch_s": "serve.batch",
    "server.tenant_s": "server.tenant",
    "server.serialise_s": "server.serialise",
}
_SETUP_SPAN_OF = {
    "exec.encode_s": "exec.encode",
    "storage.build_s": "storage.build",
    "datasets.generate_s": "datasets.generate",
}


def cache_layers(caches: list[dict]) -> dict[str, float]:
    """Cache and maintenance ratios from ``session.cache_stats`` (or the
    same counters as the server's ``GET /metrics`` renders them)."""

    def total(cache: str, counter: str) -> int:
        return sum(entry[cache][counter] for entry in caches)

    def ratio(part: int, rest: int) -> float:
        return part / (part + rest) if part + rest else 0.0

    return {
        "engine.plan_cache_hit_ratio": ratio(
            total("plan", "hits"), total("plan", "misses")
        ),
        "engine.result_cache_hit_ratio": ratio(
            total("result", "hits"), total("result", "misses")
        ),
        "exec.maintained_ratio": ratio(
            total("maintenance", "results_maintained"),
            total("maintenance", "results_invalidated"),
        ),
        "exec.delta_rows_applied": float(
            total("maintenance", "delta_rows_applied")
        ),
    }


def span_layers(
    workload: str,
    tracer: Tracer,
    traced_seconds: list[float],
    untraced_seconds: list[float],
    result_rows: int,
) -> dict[str, float]:
    """Per-layer metrics: self time and counts per traced pass. Layers a
    workload never enters read 0. ``result_rows`` is how many rows the
    traced requests answered with."""
    passes = len(traced_seconds)
    self_seconds = tracer.self_seconds()
    layers = {metric.name: 0.0 for metric in PER_LAYER}
    for metric, span in _SPAN_OF.items():
        layers[metric] = self_seconds.get(span, 0.0) / passes
    for metric, span in _SETUP_SPAN_OF.items():
        layers[metric] = self_seconds.get(span, 0.0)

    kept = tracer.kept
    rewrites = kept["core.rewrite"]
    layers["core.rewrite_disjuncts"] = (
        sum(len(result.query.disjuncts) for result in rewrites) / passes
    )
    layers["core.rewrite_reverted"] = (
        sum(1 for result in rewrites if result.reverted) / passes
    )
    layers["ra.term_nodes"] = (
        sum(sum(1 for _ in term.walk()) for term in kept["ra.translate"])
        / passes
    )
    layers["planner.candidates"] = (
        sum(len(choice.ranked) for choice in kept["planner.plan"]) / passes
    )
    layers["exec.compile_ops"] = (
        sum(len(program.root.walk()) for program in kept["exec.compile"])
        / passes
    )

    executions = kept["exec.execute"]
    operator_seconds = 0.0
    operator_rows = 0
    for kind in OPERATORS:
        seconds = sum(getattr(s, f"{kind}_seconds") for s in executions)
        rows = sum(getattr(s, f"{kind}_rows") for s in executions)
        layers[f"exec.op_{kind}_s"] = seconds / passes
        layers[f"exec.op_{kind}_rows"] = rows / passes
        operator_seconds += seconds
        operator_rows += rows
    layers["exec.ops_evaluated"] = (
        sum(s.ops_evaluated for s in executions) / passes
    )
    layers["exec.memo_hits"] = sum(s.memo_hits for s in executions) / passes
    # What execute_program spends outside its operators: decoding the
    # result, reordering the head, building the frozenset.
    layers["exec.decode_s"] = max(
        layers["exec.execute_s"] - operator_seconds / passes, 0.0
    )
    layers["exec.rows_examined_per_result"] = (
        operator_rows / result_rows if result_rows else 0.0
    )

    requests = sum(
        end - start
        for name, start, end, _parent, _request in tracer.spans
        if name == "request"
    )
    target = sum(
        self_seconds.get(span, 0.0) for span in TARGET_LAYERS[workload]
    )
    layers["trace.target_share"] = target / requests
    layers["trace.pass_s"] = lower_quartile(traced_seconds)
    layers["trace.overhead_ratio"] = (
        layers["trace.pass_s"] / lower_quartile(untraced_seconds)
    )
    return layers
