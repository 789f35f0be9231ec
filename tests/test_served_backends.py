"""``gdb`` is refused at every serving entry point.

The paper's Neo4j stand-in (:mod:`repro.gdb`) is Fig. 14 figure code
and a test oracle, not a serving backend: the API, the CLI and the wire
refuse it the way they refuse any unregistered name, while ``repro
bench --engine gdb`` still runs it.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main as cli_main
from repro.engine import GraphSession, get_backend
from repro.graph.model import yago_example_graph
from repro.schema.builder import yago_example_schema
from repro.server import HTTPGraphServer, Tenant, TenantQuotas, TenantRegistry

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"


def test_api_refuses_gdb():
    with pytest.raises(ValueError, match="unknown backend 'gdb'"):
        get_backend("gdb")
    with GraphSession(yago_example_graph(), yago_example_schema()) as session:
        with pytest.raises(ValueError, match="unknown backend 'gdb'"):
            session.execute(CLOSURE, "gdb")


def test_cli_query_refuses_gdb(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["query", CLOSURE, "--backend", "gdb"])
    assert excinfo.value.code == 2
    assert "unknown backend 'gdb'" in capsys.readouterr().err


async def _post(port: int, path: str, payload: dict) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}"
        "\r\nConnection: close\r\n\r\n".encode() + body
    )
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, data = response.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(data)


def test_wire_refuses_gdb():
    registry = TenantRegistry()
    registry.add(
        Tenant(
            "toy",
            GraphSession(yago_example_graph(), yago_example_schema()),
            TenantQuotas(),
        )
    )

    async def drive():
        async with HTTPGraphServer(registry, port=0) as server:
            return await _post(
                server.port, "/v1/toy/query",
                {"query": CLOSURE, "backend": "gdb"},
            )

    status, body = asyncio.run(drive())
    assert status == 400
    assert body["error"]["field"] == "backend"
    assert "'gdb'" in body["error"]["message"]
