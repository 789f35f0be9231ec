"""Property: reads admitted around an append-only write each see one
consistent store version — never a torn mix.

Random schemas, graphs and path queries drive the serving tier's
snapshot machinery directly:

* :meth:`RelationalStore.snapshot_at` must reproduce *exactly* the
  pre-write table contents after any script of appends (and a session
  over the snapshot must answer exactly the pre-write rows).
* :class:`QueryService` must answer every read admitted *before* a
  write with the pre-write result and every read admitted *after* it
  with the post-write result, even though all of them execute after the
  store moved — the admission version, not the execution time, decides
  what a read sees.
* A :class:`Tenant` read of any request shape must answer with the rows
  of the ``store_version`` its body reports.
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.random_graphs import (
    random_graph,
    random_path_expr,
    random_schema,
)
from repro.engine import GraphSession
from repro.query.model import single_relation_query
from repro.serve import QueryService
from repro.server.models import QueryRequest
from repro.server.tenants import Tenant

_SEEDS = st.integers(min_value=0, max_value=10_000)
_SCRIPTS = st.lists(
    st.integers(min_value=0, max_value=999), min_size=1, max_size=6
)


def _setting(schema_seed, graph_seed, expr_seed):
    schema = random_schema(schema_seed)
    graph = random_graph(schema, graph_seed, max_nodes=12, max_edges=30)
    expr = random_path_expr(schema, expr_seed, max_depth=3)
    query = single_relation_query(expr)
    return schema, graph, query


def _script_edges(store, script):
    edge_tables = sorted(store.edge_tables)
    node_ids = sorted(
        {
            row[0]
            for name in store.node_tables
            for row in store.table(name).rows
        }
    )
    if not edge_tables or not node_ids:
        return []
    return [
        (
            edge_tables[choice % len(edge_tables)],
            (
                node_ids[choice % len(node_ids)],
                node_ids[(choice // 7) % len(node_ids)],
            ),
        )
        for choice in script
    ]


@given(_SEEDS, _SEEDS, _SEEDS, _SCRIPTS)
@settings(max_examples=25, deadline=None)
def test_snapshot_store_reproduces_prewrite_rows(
    schema_seed, graph_seed, expr_seed, script
):
    schema, graph, query = _setting(schema_seed, graph_seed, expr_seed)
    with GraphSession(graph, schema) as session:
        store = session.store
        pinned = store.version
        before = {
            name: frozenset(store.table(name).rows)
            for name in (*store.node_tables, *store.edge_tables)
        }
        expected = session.execute(query, "ra", rewrite=False)

        writes = _script_edges(store, script)
        for table, edge in writes:
            store.add_rows(table, [edge])
        if not writes:
            assert store.snapshot_at(pinned) is store
            return

        snapshot = store.snapshot_at(pinned)
        assert snapshot is not None
        for name, rows in before.items():
            assert frozenset(snapshot.table(name).rows) == rows

        pinned_session = session.snapshot_session(pinned)
        assert pinned_session is not None
        try:
            assert (
                pinned_session.execute(query, "vec", rewrite=False)
                == expected
            )
            assert (
                pinned_session.execute(query, "ra", rewrite=False)
                == expected
            )
        finally:
            if pinned_session is not session:
                pinned_session.close()


@given(_SEEDS, _SEEDS, _SEEDS, _SCRIPTS)
@settings(max_examples=10, deadline=None)
def test_service_reads_see_their_admission_version(
    schema_seed, graph_seed, expr_seed, script
):
    schema, graph, query = _setting(schema_seed, graph_seed, expr_seed)

    with GraphSession(graph, schema) as session:
        writes = _script_edges(session.store, script)
        version_before = session.store.version

        async def drive():
            # rewrite=False keeps the service on the same plan shape as
            # the expected answers below — this property is about which
            # store version a read sees, not rewrite equivalence.
            service = QueryService(session, "vec", rewrite=False)
            await service.start()
            try:
                lock = service._session_lock
                lock.acquire()  # every batch stalls at execution
                try:
                    early = [
                        asyncio.ensure_future(service.submit(query))
                        for _ in range(3)
                    ]
                    while service.stats.submitted < 3:
                        await asyncio.sleep(0.001)
                    for table, edge in writes:
                        session.store.add_rows(table, [edge])
                    late = [
                        asyncio.ensure_future(service.submit(query))
                        for _ in range(3)
                    ]
                    while service.stats.submitted < 6:
                        await asyncio.sleep(0.001)
                finally:
                    lock.release()
                return (
                    await asyncio.gather(*early),
                    await asyncio.gather(*late),
                    service,
                )
            finally:
                await service.close()

        # Expected answers, computed on an independent cold session.
        with GraphSession(graph, schema) as cold:
            expected_before = cold.execute(query, "ra", rewrite=False)
        early_results, late_results, service = asyncio.run(drive())
        expected_after = session.execute(query, "ra", rewrite=False)

        assert all(rows == expected_before for rows in early_results)
        assert all(rows == expected_after for rows in late_results)
        # An effective write forces the stalled early reads through the
        # snapshot path (a no-op script leaves everyone on the live one).
        if session.store.version > version_before:
            assert service.snapshot_reads >= 1
            assert service.snapshot_fallbacks == 0


#: Request bodies (beside ``query``) a served read may arrive in.
_SHAPES = {
    "plain": {},
    "no-rewrite": {"rewrite": False},
    "cost-planner": {"options": {"planner": "cost"}},
    "python-kernel": {"options": {"kernel": "python"}},
}


@pytest.mark.parametrize("shape", list(_SHAPES))
@given(_SEEDS, _SEEDS, _SEEDS, _SCRIPTS)
@example(schema_seed=0, graph_seed=0, expr_seed=1, script=[0])
@settings(max_examples=8, deadline=None)
def test_tenant_reads_answer_the_version_they_report(
    shape, schema_seed, graph_seed, expr_seed, script
):
    schema, graph, query = _setting(schema_seed, graph_seed, expr_seed)
    request = QueryRequest.from_payload(
        {"query": str(query), **_SHAPES[shape]}
    )
    with GraphSession(graph, schema) as cold:
        expected = {cold.store.version: cold.execute(query, "reference")}

    with GraphSession(graph, schema) as session:
        writes = _script_edges(session.store, script)

        async def drive():
            tenant = Tenant("t", session)
            await tenant.service.start()
            try:
                lock = tenant.service._session_lock
                lock.acquire()  # every read stalls at execution
                try:
                    early = [
                        asyncio.ensure_future(tenant.query(request))
                        for _ in range(2)
                    ]
                    while tenant._active < 2:
                        await asyncio.sleep(0.001)
                    for table, edge in writes:
                        session.store.add_rows(table, [edge])
                    late = [
                        asyncio.ensure_future(tenant.query(request))
                        for _ in range(2)
                    ]
                    while tenant._active < 4:
                        await asyncio.sleep(0.001)
                finally:
                    lock.release()
                return await asyncio.gather(*early, *late)
            finally:
                await tenant.service.close()

        bodies = asyncio.run(drive())
        expected[session.store.version] = session.execute(query, "reference")

    for body in bodies:
        rows = {tuple(row) for row in body["rows"]}
        assert rows == set(expected[body["store_version"]]), body
    assert [body["store_version"] for body in bodies] == [
        min(expected), min(expected), max(expected), max(expected)
    ]
