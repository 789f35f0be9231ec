"""``http_mixed``: reads and writes through ``repro serve --http``.

The server is a child process started by the repository's own CLI, so the
end-to-end numbers include everything a remote caller pays. The child is
out of the tracer's reach; the traced run therefore sends the same seeded
operation sequence twice more inside this process:

* through ``Tenant.query`` / ``Tenant.write`` with the tenant built the way
  ``repro serve --http`` builds it: alternate rounds carry the layer
  wrappers and yield the spans, the others give the tenant-level latency;
* through ``session.execute`` / ``store.add_rows`` on a bare session with
  the same result cache, which gives the latency below the tenant.

The traced run also sends a few rounds over a single connection. With one
operation in flight on the wire, in the tenant replay and in the session
replay, the differences between their median read latencies are what
HTTP and the tenant each add (``server.http_overhead_ms``,
``server.tenant_overhead_ms``); what the second connection adds on top is
time spent waiting for the other client's operation
(``server.queue_wait_ms``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

from repro.datasets.ldbc import generate_ldbc, ldbc_session
from repro.exec.dictionary import StoreEncoding
from repro.server.models import QueryRequest, WriteRequest
from repro.server.tenants import Tenant, TenantQuotas
from repro.workloads import LDBC_QUERIES

from ledger import percentile
from tracing import Tracer
from workloads import (
    REFERENCE,
    VEC,
    Measured,
    cache_layers,
    pair_count,
    pass_variants,
    pin_to_cpu,
    span_layers,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUNS_DIR = pathlib.Path(__file__).resolve().parent / "results" / "runs"

#: Closed loop, this many keep-alive connections, one client process.
CLIENTS = 2
WRITE_SHARE = 0.10
WRITE_TABLE = "knows"
PERSON_TABLE = "Person"
TENANT = "ldbc"
#: What ``repro serve`` gives a tenant's session unless told otherwise.
SERVED_RESULT_CACHE = 256
#: An operation not answered within this many seconds has failed, and
#: the server child is stopped so that the rest of the run fails at once.
REQUEST_TIMEOUT = 30.0
#: What a broken connection or a malformed answer raises in ``request``.
_TRANSPORT_ERRORS = (OSError, EOFError, TimeoutError, ValueError, IndexError)


_WARM_UP = [("read", query.qid, query.text) for query in LDBC_QUERIES]


class Server:
    """``python -m repro serve --http`` as a child; one LDBC tenant."""

    def __init__(self, scale_factor: float, label: str):
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        self.log_path = RUNS_DIR / f"server-{label}.log"
        self.scale_factor = scale_factor
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONHASHSEED"] = "0"
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--http", "127.0.0.1:0",
                    "--tenant", f"{TENANT}=ldbc:{self.scale_factor:g}",
                ],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        pin_to_cpu(self.process.pid, last=True)
        deadline = time.monotonic() + timeout
        marker = "http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0])
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            f"server did not come up; see {self.log_path}:\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        """0 when the child is gone (its operations have failed)."""
        if self.process is None or self.process.poll() is not None:
            return 0.0
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.process = None


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON, opened by its
    first request and again after a failed one."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def request(self, method: str, path: str, payload=None):
        """Returns (status, decoded body, body bytes on the wire); status
        0 with the error as body when the connection broke, the answer
        was malformed or ``REQUEST_TIMEOUT`` passed."""
        try:
            async with asyncio.timeout(REQUEST_TIMEOUT):
                if self.writer is None:
                    self.reader, self.writer = await asyncio.open_connection(
                        "127.0.0.1", self.port
                    )
                return await self._exchange(method, path, payload)
        except _TRANSPORT_ERRORS as error:
            await self.close()
            return 0, error, 0

    async def _exchange(self, method: str, path: str, payload):
        body = b"" if payload is None else json.dumps(payload).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split(b" ")[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        data = await self.reader.readexactly(length)
        return status, json.loads(data), length

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _skewed_counts(queries: int, reads: int) -> list[int]:
    """How often each query is read per round: weight 1/rank, every query
    at least once, the hottest absorbing the rounding remainder."""
    weights = [1.0 / (rank + 1) for rank in range(queries)]
    total = sum(weights)
    counts = [max(1, round(reads * w / total)) for w in weights]
    counts[0] += reads - sum(counts)
    if counts[0] < 1:
        raise ValueError(f"{reads} reads cannot cover {queries} queries")
    return counts


def _payload(op, rewrite: bool) -> tuple[str, dict]:
    if op[0] == "write":
        return f"/v1/{TENANT}/write", {"table": op[1], "rows": op[2]}
    payload = {"query": op[2]}
    if not rewrite:
        payload["rewrite"] = False
    return f"/v1/{TENANT}/query", payload


class HttpWorkload:
    """The seeded operation mix and the three ways it is sent."""

    name = "http_mixed"

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self.scale_factor = sizes["ldbc_sf"]
        round_ops = sizes["round_ops"]
        self.writes_per_round = round(round_ops * WRITE_SHARE)
        self.read_counts = _skewed_counts(
            len(LDBC_QUERIES), round_ops - self.writes_per_round
        )
        # The same graph the server child generates (the CLI passes no
        # seed either): appended people take the ids above its own.
        session = ldbc_session(self.scale_factor)
        self._person_columns = session.store.table(PERSON_TABLE).columns
        self._first_newcomer = max(session.graph.node_ids()) + 1
        session.close()

    def newcomers(self, rounds: int) -> list[list]:
        """``Person`` rows for the people ``rounds`` rounds of writes
        connect: two per write, registered in set-up. Appended ``knows``
        edges only ever join two newcomers, so the instance keeps
        conforming to the schema (the rewrite stays enabled), every
        append makes the cached ``knows`` readers stale, and yet no
        query's answer grows by more than a few rows. Edges between
        existing persons were tried first: at SF 1 (95 persons, 408
        ``knows`` edges) a run's 320 appended edges nearly doubled the
        table and each round ran 4 % slower than the one before."""
        first = self._first_newcomer
        return [
            [
                {"Sr": person, "firstName": f"First{person}",
                 "lastName": f"Last{person}"}.get(column)
                for column in self._person_columns
            ]
            for person in range(
                first, first + 2 * self.writes_per_round * rounds
            )
        ]

    def rounds(self, seed: int, count: int):
        """Yields ``count`` rounds. A round is one segment per write: the
        write, then that segment's reads. Which reads a segment holds is
        fixed (each query's reads are dealt round-robin over the
        segments, so hot queries recur in every segment and cold ones
        appear once a round); the seed shuffles the order inside each
        segment and picks which two newcomers each write joins. Every
        round therefore makes the same queries stale the same number of
        times, whatever the seed."""
        rng = random.Random(seed)
        pool = [row[0] for row in self.newcomers(count)]
        rng.shuffle(pool)
        segments = [[] for _ in range(self.writes_per_round)]
        reads = (
            ("read", query.qid, query.text)
            for query, read_count in zip(LDBC_QUERIES, self.read_counts)
            for _ in range(read_count)
        )
        for position, read in enumerate(reads):
            segments[position % len(segments)].append(read)
        for _ in range(count):
            ops = []
            for segment in segments:
                a, b = pool.pop(), pool.pop()
                ops.append(("write", WRITE_TABLE, [[a, b], [b, a]]))
                ops.extend(rng.sample(segment, len(segment)))
            yield ops

    # -- over the wire ---------------------------------------------------------
    async def _wire_round(
        self, server, connections, ops, rewrite, measured, record
    ):
        """One closed-loop round: each connection sends its next
        operation as soon as its previous one was answered. An operation
        that is refused, times out or is answered with anything but 200
        counts as failed and is timed like the others."""
        pending = iter(ops)
        clock = time.perf_counter

        async def client(connection: Connection) -> None:
            for op in pending:
                path, payload = _payload(op, rewrite)
                before = clock()
                status, body, size = await connection.request(
                    "POST", path, payload
                )
                elapsed = clock() - before
                measured.attempted += 1
                if status != 200:
                    measured.fail(f"{op[0]} {op[1]}: HTTP {status} {body!r}")
                    if isinstance(body, TimeoutError):
                        server.stop()  # the rest is then refused at once
                elif op[0] == "read" and (
                    body["row_count"] != len(body["rows"])
                ):
                    measured.fail(f"{op[1]}: row_count disagrees with rows")
                if record is not None:
                    record(op, elapsed, size)

        started = clock()
        await asyncio.gather(*(client(c) for c in connections))
        return clock() - started

    async def _start_server(self, label, rounds, measured) -> Server:
        """Spawn the child, wait for its port, register the newcomers,
        then send every query once per variant so plan and result caches
        hold all of them."""
        server = Server(self.scale_factor, label)
        started = time.perf_counter()
        server.start()
        try:
            connection = Connection(server.port)
            try:
                await self._wire_round(
                    server, [connection],
                    [("write", PERSON_TABLE, self.newcomers(rounds))],
                    True, measured, None,
                )
                for rewrite in (True, False):
                    await self._wire_round(
                        server, [connection], _WARM_UP, rewrite, measured,
                        None,
                    )
            finally:
                await connection.close()
        except BaseException:
            server.stop()
            raise
        measured.setup_seconds.append(time.perf_counter() - started)
        return server

    async def _verify(self, connection, rounds, appended, measured) -> None:
        """Every distinct query's final answer over the wire against a
        fresh in-process session holding the same appended rows."""
        started = time.perf_counter()
        session = ldbc_session(self.scale_factor)
        session.store.add_rows(
            PERSON_TABLE, [tuple(row) for row in self.newcomers(rounds)]
        )
        session.store.add_rows(WRITE_TABLE, appended)
        expected = {
            query.qid: session.execute(
                query.text, rewrite=False, exec_options=REFERENCE
            )
            for query in LDBC_QUERIES
        }
        session.close()
        measured.oracle_seconds = time.perf_counter() - started
        for rewrite in (True, False):
            for op in _WARM_UP:
                status, body, _size = await connection.request(
                    "POST", *_payload(op, rewrite)
                )
                measured.attempted += 1
                if status != 200:
                    measured.fail(f"{op[1]}: HTTP {status} on verify")
                elif {tuple(r) for r in body["rows"]} != expected[op[1]]:
                    measured.fail(
                        f"{op[1]} (rewrite={rewrite}): wrong row set "
                        f"after {len(appended)} appended rows"
                    )

    def run(self, seed: int, seconds: float, trace: bool) -> Measured:
        return asyncio.run(self._run(seed, seconds, trace))

    async def _run(self, seed, seconds, trace) -> Measured:
        """Untraced: ``pairs`` pairs of rounds on the wire. Traced:
        ``pairs`` rewritten rounds, then a third as many over a single
        connection and in each in-process replay. The people that writes
        connect are registered in set-up, which is why the number of
        rounds is fixed before the run."""
        pin_to_cpu(0, last=False)
        measured = Measured()
        label = f"seed{seed}-trace{int(trace)}"
        pairs = pair_count(self.sizes, seconds)
        rounds = pairs if trace else 2 * pairs
        few = max(2, pairs // 3)
        solo_rounds = few if trace else 0
        server = None
        try:
            for _ in range(1 if trace else self.sizes["setups"]):
                if server is not None:
                    server.stop()
                server = await self._start_server(
                    label, rounds + solo_rounds, measured
                )
            connections = [Connection(server.port) for _ in range(CLIENTS)]
            try:
                await self._measure(
                    server, connections, seed, rounds, solo_rounds, measured
                )
            finally:
                for connection in connections:
                    await connection.close()
        finally:
            if server is not None:
                server.stop()
        if trace:
            # The replays take the CPU the server child ran on.
            pin_to_cpu(0, last=True)
            measured.layers, measured.tracer = await self._replay_layers(
                seed, few, measured
            )
        return measured

    async def _measure(
        self, server, connections, seed, rounds, solo_rounds, measured
    ) -> None:
        """The timed rounds on the wire, then the correctness check. An
        untraced run alternates rewritten and baseline rounds; a traced
        run sends rewritten rounds only (the wire latencies its
        in-process replays are measured against), the last
        ``solo_rounds`` of them over one connection."""
        trace = solo_rounds > 0
        appended: list[tuple] = []

        def record(op, elapsed, size) -> None:
            if op[0] == "read":
                measured.read_passes[-1].append((op[1], elapsed))
                measured.response_bytes.append(size)
            else:
                measured.writes.append(elapsed)

        def record_solo(op, elapsed, _size) -> None:
            if op[0] == "read":
                measured.solo_reads.append(elapsed)

        total = rounds + solo_rounds
        for index, ops in enumerate(self.rounds(seed, total)):
            appended.extend(
                tuple(row) for op in ops if op[0] == "write" for row in op[2]
            )
            if index >= rounds:
                await self._wire_round(
                    server, connections[:1], ops, True, measured, record_solo
                )
                continue
            rewritten = trace or pass_variants(index // 2)[index % 2] == (
                "rewritten"
            )
            if rewritten:
                measured.read_passes.append([])
            elapsed = await self._wire_round(
                server, connections, ops, rewritten, measured,
                record if rewritten else None,
            )
            variant = "rewritten" if rewritten else "baseline"
            measured.pass_seconds[variant].append(elapsed)
            if rewritten:
                measured.rewritten_ops += len(ops)
        measured.peak_rss_mb = server.peak_rss_mb()

        await self._verify(connections[0], total, appended, measured)
        if trace:
            status, metrics, _size = await connections[0].request(
                "GET", "/metrics"
            )
            if status == 200:
                measured.server_metrics = metrics["tenants"][TENANT]

    # -- in this process -------------------------------------------------------
    async def _replay_layers(
        self, seed, pairs, wire
    ) -> tuple[dict[str, float], Tracer]:
        """The per-layer metrics and the tracer holding the replay's
        spans: ``pairs`` untraced/traced round pairs through a tenant,
        then ``pairs`` rounds on a bare session. ``wire`` is the wire
        run's ``Measured``."""
        tracer = Tracer()
        with tracer.span("datasets.generate"):
            graph = generate_ldbc(self.scale_factor)
        session = ldbc_session(
            graph=graph, result_cache_size=SERVED_RESULT_CACHE
        )
        with tracer.span("storage.build"):
            session.store
        tenant = Tenant(
            TENANT, session, TenantQuotas(), backend="vec",
            dataset=f"ldbc:{self.scale_factor:g}",
        )
        await tenant.service.start()
        tenant_reads: list[float] = []
        untraced_seconds: list[float] = []
        traced_seconds: list[float] = []
        result_rows = 0
        try:
            await tenant.write(WriteRequest.from_payload(
                {"table": PERSON_TABLE, "rows": self.newcomers(2 * pairs)}
            ))
            with tracer.method_span("exec.encode", StoreEncoding, "table"):
                await _tenant_round(tenant, _WARM_UP, None, 0)
            rounds = self.rounds(seed, 2 * pairs)
            for pair in range(pairs):
                elapsed, reads, _rows = await _tenant_round(
                    tenant, next(rounds), None, pair
                )
                untraced_seconds.append(elapsed)
                tenant_reads += reads
                with tracer.installed():
                    elapsed, _reads, rows = await _tenant_round(
                        tenant, next(rounds), tracer, pair
                    )
                traced_seconds.append(elapsed)
                result_rows += rows
        finally:
            await tenant.service.close()
            session.close()

        session = ldbc_session(
            self.scale_factor, result_cache_size=SERVED_RESULT_CACHE
        )
        session_reads: list[float] = []
        try:
            _session_round(
                session,
                [("write", PERSON_TABLE, self.newcomers(pairs)), *_WARM_UP],
            )
            for ops in self.rounds(seed, pairs):
                session_reads += _session_round(session, ops)
        finally:
            session.close()

        layers = span_layers(
            self.name, tracer, traced_seconds, untraced_seconds, result_rows
        )
        if wire.server_metrics:
            layers.update(cache_layers([wire.server_metrics["caches"]]))
        tenant_p50 = percentile(tenant_reads, 0.50)
        solo_p50 = percentile(wire.solo_reads, 0.50)
        layers["server.tenant_overhead_ms"] = 1e3 * (
            tenant_p50 - percentile(session_reads, 0.50)
        )
        layers["server.http_overhead_ms"] = 1e3 * (solo_p50 - tenant_p50)
        layers["server.queue_wait_ms"] = 1e3 * (
            percentile(wire.all_reads(), 0.50) - solo_p50
        )
        layers["server.response_bytes"] = statistics.fmean(
            wire.response_bytes
        )
        layers["server.write_p50_ms"] = 1e3 * percentile(wire.writes, 0.50)
        layers.update(wire.harness_layers())
        return layers, tracer


async def _tenant_op(tenant: Tenant, op, tracer: Tracer | None) -> int:
    """One operation as the HTTP handler would run it; returns the rows
    a read answered with."""
    if op[0] == "write":
        await tenant.write(
            WriteRequest.from_payload({"table": op[1], "rows": op[2]})
        )
        return 0
    body = await tenant.query(QueryRequest.from_payload({"query": op[2]}))
    if tracer is None:
        json.dumps(body, separators=(",", ":"))
    else:
        with tracer.span("server.serialise"):
            json.dumps(body, separators=(",", ":"))
    return body["row_count"]


async def _tenant_round(
    tenant, ops, tracer, pass_no
) -> tuple[float, list, int]:
    """One round, one operation at a time. With a tracer every operation
    is one request ``http_mixed/<qid or table>/<pass>.<position>``."""
    reads, result_rows = [], 0
    gc.collect()
    clock = time.perf_counter
    started = clock()
    for index, op in enumerate(ops):
        before = clock()
        if tracer is None:
            rows = await _tenant_op(tenant, op, None)
        else:
            with tracer.request_span(
                f"http_mixed/{op[1]}/{pass_no}.{index}"
            ):
                rows = await _tenant_op(tenant, op, tracer)
        if op[0] == "read":
            reads.append(clock() - before)
            result_rows += rows
    return clock() - started, reads, result_rows


def _session_round(session, ops) -> list[float]:
    reads = []
    clock = time.perf_counter
    for op in ops:
        if op[0] == "write":
            session.store.add_rows(op[1], [tuple(row) for row in op[2]])
            continue
        before = clock()
        session.execute(op[2], exec_options=VEC)
        reads.append(clock() - before)
    return reads
