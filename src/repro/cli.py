"""Command-line entry point (``python -m repro`` or the installed scripts).

Four subcommands:

* ``bench <experiment> [--full] [--engine E]`` — reproduce the paper's
  tables and figures (experiments: table3, table5, table6, fig12, fig13,
  fig14, fig15, tables78, reversion, ablation, all). For backwards
  compatibility the ``bench`` word may be omitted: ``repro-bench table6``
  still works.
* ``query "<ucqt>" [--dataset D] [--backend B] [--explain] ...`` — run an
  ad-hoc UCQT through a :class:`~repro.engine.session.GraphSession` on
  any registered backend (without ``--backend``, the session's default,
  ``vec``, like ``batch`` and ``serve``), optionally printing the chosen
  plan, and report the backend that ran it.
* ``batch [FILE] [--backend B] [--json] ...`` — read one UCQT per line
  from FILE (or stdin), execute them as one shared batch
  (:func:`repro.serve.batch.execute_batch`) and report what was shared.
* ``serve [FILE] [--workers N] [--max-batch K] ...`` — the same workload
  through the asyncio :class:`~repro.serve.service.QueryService`
  (bounded worker pool, admission batching).
* ``serve --http HOST:PORT [--tenant NAME=DATASET[:SCALE]] ...`` — boot
  the multi-tenant HTTP serving tier (:mod:`repro.server`) instead of
  draining a file: each ``--tenant`` names a graph with its own session,
  admission quotas (``--max-concurrent``/``--max-pending``/
  ``--request-timeout``) and snapshot-isolated reads; ``SIGINT``/
  ``SIGTERM`` drain in-flight requests before exiting. ``serve``'s
  file-mode options (FILE, ``--baseline``, ``--timeout``, ``--limit``,
  ``--json``, ``--workers``, ``--max-batch``) are usage errors here, as
  is a tenant name given twice. A tenant's scale, like ``--scale`` on
  ``query``/``batch``/``serve``, must be a finite number above zero.

``query``, ``batch`` and ``serve`` accept ``--max-rows N`` /
``--max-bytes N`` (hard caps: a run over either fails with
``resource_exhausted``), ``--planner {greedy,cost}`` (the cost model
chooses between the query as written and its schema rewrite, where the
linear pipeline runs the rewrite) and
``--backend auto`` (the default backend under the cost planner; ``bench
--engine`` takes :data:`repro.bench.runner.ENGINES` only, the backends
plus the Fig. 14 pattern engine ``gdb``);
``repro query --explain --candidates`` prints the ranked candidate table. The serving subcommands cache whole
result sets unless ``--no-result-cache`` is given; after append-only
store writes, stale cached results are incrementally maintained from
the write delta.

A subcommand whose reader closes stdout early (``repro batch --json |
head``) exits quietly with :data:`EXIT_STDOUT_CLOSED`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

EXPERIMENTS = (
    "table3", "table5", "table6", "fig12", "fig13", "fig14",
    "fig15", "tables78", "reversion", "ablation", "all",
)

DATASETS = ("yago", "ldbc", "yago-example")

#: Exit status when the reader closed stdout early (128 + SIGPIPE).
EXIT_STDOUT_CLOSED = 141

#: ``serve``'s file-mode options (dest -> flag); ``--http`` serves no
#: file, so it refuses each of them when given.
_FILE_MODE_FLAGS = {
    "file": "FILE",
    "baseline": "--baseline",
    "timeout": "--timeout",
    "limit": "--limit",
    "json": "--json",
    "workers": "--workers",
    "max_batch": "--max-batch",
}


def _backend_names() -> tuple[str, ...]:
    """Registered backend names (includes user-registered backends)."""
    from repro.engine import available_backends

    return available_backends()


def _backend_argument(value: str) -> str:
    """Validate a backend name against the live registry, or ``auto``
    (the session's default backend under the cost planner), at parse
    time, so a typo fails with the registered names instead of deep
    inside the session after the dataset has been generated."""
    names = _backend_names() + ("auto",)
    if value not in names:
        raise argparse.ArgumentTypeError(
            f"unknown backend {value!r}; registered backends: "
            f"{', '.join(names)}"
        )
    return value


def _engine_argument(value: str) -> str:
    """A ``bench --engine`` name: one of
    :data:`repro.bench.runner.ENGINES`, the backends plus ``gdb`` (the
    Fig. 14 pattern engine, which serves no session)."""
    from repro.bench.runner import ENGINES

    if value not in ENGINES:
        raise argparse.ArgumentTypeError(
            f"unknown engine {value!r}; expected one of {', '.join(ENGINES)}"
        )
    return value


def _run_tables78(full: bool):
    from repro.bench import experiments as exp

    scale_factors = exp.FULL_SCALE_FACTORS if full else exp.QUICK_SCALE_FACTORS
    fig13 = exp.fig13_ldbc(scale_factors=scale_factors)
    pooled = [run for runs in fig13.data["runs_by_sf"].values() for run in runs]
    return exp.table7_table8(pooled)


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments as exp

    scale_factors = exp.FULL_SCALE_FACTORS if args.full else exp.QUICK_SCALE_FACTORS
    runners = {
        "table3": lambda: exp.table3_datasets(scale_factors),
        "table5": lambda: exp.table5_feasibility(scale_factors, engine=args.engine),
        "table6": exp.table6_paths,
        "fig12": lambda: exp.fig12_yago(engine=args.engine),
        "fig13": lambda: exp.fig13_ldbc(scale_factors, engine=args.engine),
        "fig14": lambda: exp.fig14_backends(),
        "fig15": exp.fig15_16_17,
        "tables78": lambda: _run_tables78(args.full),
        "reversion": exp.reversion_census,
        "ablation": exp.ablation_pipeline,
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = runners[name]()
        print(result.text)
        print()
    return 0


def _load_session(dataset: str, scale: float, **session_kwargs):
    if dataset == "ldbc":
        from repro.datasets.ldbc import ldbc_session

        return ldbc_session(scale_factor=scale, **session_kwargs)
    if dataset == "yago":
        from repro.datasets.yago import yago_session

        return yago_session(scale=scale, **session_kwargs)
    from repro.engine.session import GraphSession
    from repro.graph.model import yago_example_graph
    from repro.schema.builder import yago_example_schema

    return GraphSession(
        yago_example_graph(), yago_example_schema(), **session_kwargs
    )


def _exec_options(args, planner: str | None = None):
    """The unified :class:`ExecOptions` carried by the CLI flags.

    ``None`` when no knob was set — the session's defaults apply.
    """
    from repro.engine.options import ExecOptions

    fields = {}
    planner = (
        planner if planner is not None else getattr(args, "planner", None)
    )
    if planner is not None:
        fields["planner"] = planner
    if getattr(args, "max_rows", None) is not None:
        fields["max_rows"] = args.max_rows
    if getattr(args, "max_bytes", None) is not None:
        fields["max_bytes"] = args.max_bytes
    if getattr(args, "fallback", False):
        fields["fallback"] = True
    return ExecOptions(**fields) if fields else None


def _run_query(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    try:
        return _run_query_inner(args)
    except ReproError as error:
        print(f"repro query: error: {error}", file=sys.stderr)
        return 1


def _read_batch_queries(path: str) -> list[str]:
    """One UCQT per non-blank, non-``#`` line of ``path`` (``-`` = stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    queries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            queries.append(line)
    return queries


def _run_batch(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    try:
        return _run_batch_inner(args)
    except ReproError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 1


def _parse_host_port(value: str) -> tuple[str, int]:
    host, separator, port_text = value.rpartition(":")
    if not separator:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid port {port_text!r} in {value!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} out of range")
    return host or "127.0.0.1", port


def _scale_argument(value: str) -> float:
    """A dataset scale: a finite number above zero."""
    try:
        scale = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid scale {value!r}") from None
    if not math.isfinite(scale) or scale <= 0:
        raise argparse.ArgumentTypeError(
            f"scale must be a finite number > 0, got {value!r}"
        )
    return scale


def _parse_tenant_spec(value: str) -> tuple[str, str, float]:
    """``NAME=DATASET[:SCALE]`` -> (name, dataset, scale)."""
    name, separator, rest = value.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=DATASET[:SCALE], got {value!r}"
        )
    dataset, separator, scale_text = rest.partition(":")
    if dataset not in DATASETS:
        raise argparse.ArgumentTypeError(
            f"unknown dataset {dataset!r} in {value!r}; "
            f"choose from {', '.join(DATASETS)}"
        )
    scale = 0.5
    if separator:
        try:
            scale = _scale_argument(scale_text)
        except argparse.ArgumentTypeError as error:
            raise argparse.ArgumentTypeError(f"{error} in {value!r}") from None
    return name, dataset, scale


def _run_http_server(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import (
        HTTPGraphServer,
        Tenant,
        TenantQuotas,
        TenantRegistry,
    )

    host, port = args.http
    quotas = TenantQuotas(
        max_concurrent=args.max_concurrent,
        max_pending=args.max_pending,
        timeout_seconds=args.request_timeout,
    )
    specs = args.tenant or [
        (args.dataset, args.dataset, args.scale)
    ]
    result_cache_size = 0 if args.no_result_cache else 256
    exec_options = _exec_options(args)

    registry = TenantRegistry()
    for name, dataset, scale in specs:
        print(f"-- loading tenant {name!r} ({dataset} @ scale {scale:g})")
        session = _load_session(
            dataset, scale, result_cache_size=result_cache_size
        )
        registry.add(
            Tenant(
                name,
                session,
                quotas,
                backend=args.backend,
                exec_options=exec_options,
                dataset=f"{dataset}:{scale:g}",
            )
        )

    async def run() -> None:
        import signal

        server = HTTPGraphServer(registry, host, port)
        await server.start()
        print(
            f"-- serving {len(registry)} tenant(s) on "
            f"http://{server.host}:{server.port} (Ctrl-C drains and exits)"
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        handled: list[signal.Signals] = []
        for signame in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, stop.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # e.g. non-unix event loops
        try:
            await stop.wait()
            print("-- shutting down: draining in-flight requests")
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass  # signal handler unavailable: the interrupt itself stops us
    return 0


def _run_batch_inner(args: argparse.Namespace) -> int:
    import json

    if args.command == "serve" and args.http is not None:
        return _run_http_server(args)
    queries = _read_batch_queries(args.file)
    if not queries:
        print(f"repro {args.command}: no queries to run", file=sys.stderr)
        return 1
    rewrite = not args.baseline
    # Serving is repeated traffic: cache whole result sets unless the
    # caller opted out.
    result_cache_size = 0 if args.no_result_cache else 256
    session = _load_session(
        args.dataset, args.scale, result_cache_size=result_cache_size
    )
    exec_options = _exec_options(args)
    with session:
        if args.command == "serve":
            import asyncio

            from repro.serve import serve_queries

            results, stats = asyncio.run(
                serve_queries(
                    session,
                    queries,
                    args.backend,
                    max_batch_size=args.max_batch,
                    workers=args.workers,
                    timeout_seconds=args.timeout,
                    rewrite=rewrite,
                    exec_options=exec_options,
                )
            )
            summary = (
                f"-- served {stats.completed} quer(ies) in {stats.batches} "
                f"batch(es) of mean size {stats.mean_batch_size:.1f} on "
                f"backend {args.backend!r} ({stats.shared_plans} answered "
                f"from a shared plan)"
            )
        else:
            from repro.serve import execute_batch

            outcome = execute_batch(
                session,
                queries,
                args.backend,
                timeout_seconds=args.timeout,
                rewrite=rewrite,
                exec_options=exec_options,
            )
            results = list(outcome.results)
            report = outcome.report
            shared_ops = ""
            if report.execution is not None:
                execution = report.execution
                shared_ops = (
                    f", {execution.memo_hits} operator result(s) reused"
                )
                if execution.result_cache_hits:
                    shared_ops += (
                        f", {execution.result_cache_hits} answered from "
                        "the result cache"
                    )
                maintenance = session.cache_stats["maintenance"]
                if maintenance.results_maintained:
                    shared_ops += (
                        f", {maintenance.results_maintained} cached "
                        "result(s) incrementally maintained"
                    )
            summary = (
                f"-- batch of {report.queries} quer(ies) -> "
                f"{report.distinct_plans} distinct plan(s) on backend "
                f"{report.backend!r}{shared_ops}"
            )
        if args.json:
            print(
                json.dumps(
                    [
                        {"query": text, "rows": rows.sorted_rows()}
                        for text, rows in zip(queries, results)
                    ],
                    indent=2,
                    default=str,
                )
            )
        else:
            for text, rows in zip(queries, results):
                print(f"{text}")
                for row in sorted(rows)[: args.limit]:
                    print(f"  {row}")
                print(f"  -- {len(rows)} row(s)")
        # Keep stdout machine-readable under --json.
        print(summary, file=sys.stderr if args.json else sys.stdout)
    return 0


def _run_query_inner(args: argparse.Namespace) -> int:
    session = _load_session(args.dataset, args.scale)
    with session:
        rewrite = not args.baseline
        # --candidates implies cost-based planning: the candidate table
        # only exists where candidates were enumerated and ranked.
        planner = "cost" if args.candidates else args.planner
        exec_options = _exec_options(args, planner=planner)
        # No --backend: the session's default decides.
        prepared = session.prepare(
            args.text,
            args.backend,
            rewrite=rewrite,
            exec_options=exec_options,
        )
        if args.explain or args.candidates:
            if args.explain:
                print(prepared.explain())
            elif prepared.choice is not None:
                print(prepared.choice.render())
            print()
        if rewrite:
            result = session.rewrite(args.text)
            if not result.reverted:
                print(f"-- rewritten into {len(result.query.disjuncts)} "
                      f"disjunct(s): {result.query}")
        rows = prepared.execute(args.timeout)
        for row in sorted(rows)[: args.limit]:
            print(row)
        shown = min(len(rows), args.limit)
        print(f"-- {len(rows)} row(s) on backend {prepared.backend_name!r} "
              f"({shown} shown)")
    return 0


def _add_governor_arguments(parser) -> None:
    parser.add_argument(
        "--max-rows", type=int, default=None, metavar="N",
        help="resource governor: abort once evaluation has processed "
        "more than N rows (error code resource_exhausted)",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="resource governor: abort once materialised intermediates "
        "exceed ~N bytes (error code resource_exhausted)",
    )
    parser.add_argument(
        "--fallback", action="store_true",
        help="degrade gracefully: retry retryable failures down the "
        "backend chain (the backend, ra after vec, sqlite, reference; "
        "circuit breakers per backend)",
    )


def _add_planner_argument(parser) -> None:
    parser.add_argument(
        "--planner", choices=("greedy", "cost"), default=None,
        help="plan selection: 'greedy' runs the linear rewrite pipeline, "
        "'cost' plans the query as written and its schema rewrite and "
        "executes the one the cost model ranks cheaper (default: greedy)",
    )


def main(argv: list[str] | None = None) -> int:
    from repro.bench.runner import ENGINES
    from repro.engine.options import DEFAULT_BACKEND

    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy spelling: ``repro-bench table6`` (or flag-first
    # ``repro-bench --full table6``) without the subcommand word.
    if (
        argv
        and argv[0] not in ("bench", "query", "batch", "serve")
        and any(arg in EXPERIMENTS for arg in argv)
    ):
        argv = ["bench"] + argv

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Schema-based query optimisation for graph databases.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    bench = subparsers.add_parser(
        "bench", help="reproduce the paper's tables and figures"
    )
    bench.add_argument("experiment", choices=EXPERIMENTS)
    bench.add_argument(
        "--full",
        action="store_true",
        help="use all six LDBC scale factors (slow) instead of the quick four",
    )
    bench.add_argument(
        "--engine",
        default="ra",
        type=_engine_argument,
        metavar="ENGINE",
        help="execution engine for runtime experiments "
        f"(one of: {', '.join(ENGINES)})",
    )

    query = subparsers.add_parser(
        "query", help="run a UCQT through a GraphSession"
    )
    query.add_argument("text", help='e.g. "x1, x2 <- (x1, isLocatedIn+, x2)"')
    query.add_argument("--dataset", choices=DATASETS, default="yago-example")
    query.add_argument(
        "--scale", type=_scale_argument, default=0.5,
        help="dataset scale factor (ignored for yago-example)",
    )
    query.add_argument(
        "--backend",
        default=None,
        type=_backend_argument,
        metavar="BACKEND",
        help="execution backend (default: the session's, "
        f"{DEFAULT_BACKEND}; registered: {', '.join(_backend_names())})",
    )
    query.add_argument(
        "--baseline", action="store_true",
        help="skip the schema rewriter (run the query verbatim)",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print the backend's plan before executing",
    )
    query.add_argument(
        "--candidates", action="store_true",
        help="print the cost-based planner's ranked candidate table "
        "(implies --planner cost)",
    )
    query.add_argument("--timeout", type=float, default=None)
    query.add_argument(
        "--limit", type=int, default=20, help="rows to print (default 20)"
    )
    _add_governor_arguments(query)
    _add_planner_argument(query)

    for name, help_text in (
        ("batch", "execute a file of queries as one shared batch"),
        ("serve", "serve a file of queries through the asyncio QueryService"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "file", nargs="?", default="-",
            help="file with one UCQT per line ('-' or omitted: stdin; "
            "'#' starts a comment)",
        )
        sub.add_argument("--dataset", choices=DATASETS, default="yago-example")
        sub.add_argument(
            "--scale", type=_scale_argument, default=0.5,
            help="dataset scale factor (ignored for yago-example)",
        )
        sub.add_argument(
            "--backend",
            default=DEFAULT_BACKEND,
            type=_backend_argument,
            metavar="BACKEND",
            help=f"execution backend (default: {DEFAULT_BACKEND}; "
            f"registered: {', '.join(_backend_names())})",
        )
        sub.add_argument(
            "--baseline", action="store_true",
            help="skip the schema rewriter (run the queries verbatim)",
        )
        sub.add_argument(
            "--timeout", type=float, default=None,
            help="budget for the whole batch, in seconds",
        )
        sub.add_argument(
            "--limit", type=int, default=5,
            help="rows to print per query (default 5)",
        )
        sub.add_argument(
            "--json", action="store_true",
            help="print all results as one JSON document",
        )
        sub.add_argument(
            "--no-result-cache", action="store_true",
            help="disable the session's result-set cache (on by default "
            "for serving: repeated queries skip execution entirely)",
        )
        _add_governor_arguments(sub)
        _add_planner_argument(sub)
        if name == "serve":
            sub.add_argument(
                "--workers", type=int, default=2,
                help="drain workers overlapping admission with execution; "
                "batches execute serially on the one session (default 2)",
            )
            sub.add_argument(
                "--max-batch", type=int, default=16,
                help="admission batch size cap (default 16)",
            )
            sub.add_argument(
                "--http", type=_parse_host_port, default=None,
                metavar="HOST:PORT",
                help="serve tenants over HTTP instead of draining FILE "
                "(port 0 binds an ephemeral port)",
            )
            sub.add_argument(
                "--tenant", type=_parse_tenant_spec, action="append",
                default=None, metavar="NAME=DATASET[:SCALE]",
                help="register a named tenant graph (repeatable; default: "
                "one tenant named after --dataset)",
            )
            sub.add_argument(
                "--max-concurrent", type=int, default=8,
                help="per-tenant concurrent request quota (default 8)",
            )
            sub.add_argument(
                "--max-pending", type=int, default=64,
                help="per-tenant queued request quota; breaches are "
                "rejected with HTTP 429 (default 64)",
            )
            sub.add_argument(
                "--request-timeout", type=float, default=30.0,
                help="per-request wall-clock cap in seconds, slot wait "
                "included; expiries answer HTTP 408 (default 30)",
            )
            serve, file_mode_defaults = sub, {
                dest: sub.get_default(dest) for dest in _FILE_MODE_FLAGS
            }
            # Unset reads None, so an explicitly given default still counts.
            sub.set_defaults(**dict.fromkeys(_FILE_MODE_FLAGS))

    args = parser.parse_args(argv)
    if args.command == "serve":
        for dest, flag in _FILE_MODE_FLAGS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, file_mode_defaults[dest])
            elif args.http is not None:
                serve.error(
                    f"argument {flag}: not allowed with argument --http"
                )
        names = [name for name, _, _ in args.tenant or ()]
        for position, name in enumerate(names):
            if name in names[:position]:
                serve.error(f"argument --tenant: tenant {name!r} given twice")
    run = {"bench": _run_bench, "batch": _run_batch, "serve": _run_batch}
    try:
        status = run.get(args.command, _run_query)(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so the exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    return status


if __name__ == "__main__":
    sys.exit(main())
