"""The answer type: :class:`repro.exec.result.ResultSet`.

An answer behaves as the ``frozenset`` of head-ordered rows it replaces
(equality and hashing in both directions, membership, iteration, the set
operators) while staying in coded columns until it is read: ``len``
decodes nothing, materialisation happens once. Every backend returns the
type, an answer handed out before a write keeps its rows, and the HTTP
bodies built from coded columns are the bytes the row-wise path built.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.datasets.ldbc import generate_ldbc, ldbc_session
from repro.datasets.yago import generate_yago, yago_session
from repro.engine import GraphSession
from repro.engine.backends import VecBackend
from repro.engine.options import ExecOptions
from repro.exec.compile import compile_term
from repro.exec.executor import execute_program
from repro.exec.kernels import available_kernels, get_kernel
from repro.exec.maintain import maintain_program
from repro.exec.result import EMPTY, ResultSet
from repro.graph.model import PropertyGraph, yago_example_graph
from repro.ra.terms import Project, Rel
from repro.schema.builder import SchemaBuilder, yago_example_schema
from repro.server import HTTPGraphServer, Tenant, TenantRegistry
from repro.server.models import rows_payload
from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
KERNELS = available_kernels()
BACKENDS = ("ra", "vec", "sqlite", "reference")


class CountingValues(list):
    """A value list that counts its lookups."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def _coded(kernel_name: str, rows, values):
    """A coded answer over ``rows`` of codes, built by one kernel."""
    kernel = get_kernel(kernel_name)
    return ResultSet(kernel.from_rows(rows, len(rows[0])), values)


def _session(**kwargs) -> GraphSession:
    return GraphSession(yago_example_graph(), yago_example_schema(), **kwargs)


# -- set behaviour -------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
class TestBehavesAsTheFrozenset:
    VALUES = ["a", "b", "c", 7]
    CODES = [(0, 3), (1, 3), (2, 0)]
    ROWS = frozenset({("a", 7), ("b", 7), ("c", "a")})

    def test_equality_both_directions(self, kernel):
        answer = _coded(kernel, self.CODES, self.VALUES)
        assert answer == self.ROWS and self.ROWS == answer
        assert answer == set(self.ROWS) and set(self.ROWS) == answer
        assert answer == _coded(kernel, self.CODES[::-1], self.VALUES)
        assert answer == ResultSet.from_rows(self.ROWS)
        assert not (answer != self.ROWS) and not (self.ROWS != answer)
        other = self.ROWS | {("z", 0)}
        assert answer != other and other != answer
        assert answer != self.ROWS - {("a", 7)}
        assert answer != list(self.ROWS) and answer != 3

    def test_hash_is_the_frozensets(self, kernel):
        answer = _coded(kernel, self.CODES, self.VALUES)
        assert hash(answer) == hash(self.ROWS)
        assert {answer: 1}[self.ROWS] == 1
        assert len({answer, self.ROWS}) == 1

    def test_membership_iteration_sorting(self, kernel):
        answer = _coded(kernel, [(0, 1), (1, 2)], self.VALUES)
        assert ("a", "b") in answer and ("b", "a") not in answer
        assert set(answer) == {("a", "b"), ("b", "c")}
        assert sorted(answer) == [("a", "b"), ("b", "c")]
        assert frozenset(answer) == answer.to_rows()
        assert type(answer.to_rows()) is frozenset

    def test_set_operators_both_directions(self, kernel):
        answer = _coded(kernel, self.CODES, self.VALUES)
        extra = frozenset({("z", 0)})
        assert answer | extra == self.ROWS | extra == extra | answer
        assert answer & self.ROWS == self.ROWS == self.ROWS & answer
        assert answer - self.ROWS == frozenset() == self.ROWS - answer
        assert answer <= self.ROWS <= answer
        assert answer < self.ROWS | extra
        assert answer.isdisjoint(extra)
        assert type(answer | extra) is frozenset

    def test_len_decodes_nothing(self, kernel):
        values = CountingValues(self.VALUES)
        answer = _coded(kernel, self.CODES, values)
        assert len(answer) == 3 and bool(answer)
        assert answer != frozenset()  # sizes differ: settled on len
        assert values.lookups == 0

    def test_materialises_once(self, kernel):
        values = CountingValues(self.VALUES)
        answer = _coded(kernel, self.CODES, values)
        assert answer == self.ROWS
        assert values.lookups == 6  # one lookup per cell
        sorted(answer), hash(answer), ("a", 7) in answer, answer.to_rows()
        assert values.lookups == 6
        assert answer.to_rows() is answer.to_rows()

    def test_codes_decode_after_the_dictionary_grew(self, kernel):
        values = list(self.VALUES)
        answer = _coded(kernel, self.CODES, values)
        values.append("later")  # the dictionary is append-only
        assert answer == self.ROWS


class TestEmptyAndZeroColumnAnswers:
    def test_empty(self):
        assert EMPTY == frozenset() and frozenset() == EMPTY
        assert len(EMPTY) == 0 and not EMPTY and list(EMPTY) == []
        assert hash(EMPTY) == hash(frozenset())
        assert rows_payload(EMPTY) == []

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_coded(self, kernel):
        answer = ResultSet(get_kernel(kernel).empty(2), ["a"])
        assert answer == frozenset() and len(answer) == 0
        assert rows_payload(answer) == []

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_columns_hold_the_empty_row_at_most_once(self, kernel):
        kernel = get_kernel(kernel)
        assert ResultSet(kernel.from_columns([], 0), []) == frozenset()
        for count in (1, 5):
            answer = ResultSet(kernel.from_columns([], count), [])
            assert len(answer) == 1 and answer == {()}
            assert rows_payload(answer) == [[]]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_column_program(self, kernel):
        store = _session().store
        term = Project(Rel("isLocatedIn", ("Sr", "Tr")), ())
        answer = execute_program(
            compile_term(term, store), store, kernel=get_kernel(kernel)
        )
        assert isinstance(answer, ResultSet)
        assert len(answer) == 1 and answer == {()}


# -- the engine ------------------------------------------------------------------
class TestEveryBackendReturnsTheType:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_execute(self, backend):
        session = _session()
        answer = session.execute(CLOSURE, backend)
        assert isinstance(answer, ResultSet)
        assert answer == session.execute(CLOSURE, "reference", rewrite=False)
        prepared = session.prepare(CLOSURE, backend)
        assert isinstance(prepared.execute(), ResultSet)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unsatisfiable_and_batch(self, backend):
        session = _session()
        # PROPERTY nodes own nothing: the schema empties the query.
        assert session.execute("x1 <- (x1, isLocatedIn/owns, x2)", backend) is EMPTY
        for answer in session.execute_batch([CLOSURE, CLOSURE], backend):
            assert isinstance(answer, ResultSet)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_execution_leaves_the_answer_coded(self, kernel):
        session = _session(result_cache_size=4)
        options = ExecOptions(backend="vec", kernel=kernel)
        answer = session.execute(CLOSURE, exec_options=options)
        assert answer.table is not None and len(answer) == 8
        # A warm hit hands out the cached object itself: nothing decoded.
        assert session.execute(CLOSURE, exec_options=options) is answer
        assert session.execute(CLOSURE, "sqlite").table is None


@pytest.mark.parametrize("kernel", KERNELS)
class TestMaintainedAnswers:
    def _options(self, kernel):
        return ExecOptions(backend="vec", kernel=kernel)

    def test_answer_handed_out_before_a_write_is_unchanged(self, kernel):
        session = _session(result_cache_size=4)
        options = self._options(kernel)
        before = session.execute(CLOSURE, rewrite=False, exec_options=options)
        held = session.execute(CLOSURE, rewrite=False, exec_options=options)
        assert held is before  # the entry's own object, not yet decoded
        session.store.add_rows("isLocatedIn", [(7, 1)])
        after = session.execute(CLOSURE, rewrite=False, exec_options=options)
        assert session.cache_stats["maintenance"].results_maintained == 1
        assert len(before) == 8 and len(after) > 8
        assert (7, 1) in after and (7, 1) not in before
        assert before == _session().execute(CLOSURE, "reference")
        with GraphSession(
            yago_example_graph(), yago_example_schema(), store=session.store
        ) as cold:
            assert after == cold.execute(
                CLOSURE, rewrite=False, exec_options=options
            )
        # ... and again after a second maintained read of the same entry.
        session.store.add_rows("isLocatedIn", [(7, 2)])
        again = session.execute(CLOSURE, rewrite=False, exec_options=options)
        assert (7, 2) in again and (7, 2) not in after
        assert len(again) == len(again.to_rows())

    def test_an_unchanged_answer_keeps_its_object_and_text(self, kernel):
        session = _session(result_cache_size=4)
        options = self._options(kernel)

        def read():
            return session.execute(CLOSURE, rewrite=False, exec_options=options)

        before = read()
        text = before.json_rows()
        assert before.json_built and before.json_rows() is text
        # 1 -> 6 -> 5 is there already: the table grows, the answer not.
        session.store.add_rows("isLocatedIn", [(1, 5)])
        same = read()
        assert session.cache_stats["maintenance"].results_maintained == 1
        assert same is before and same.json_rows() is text
        # A row that does change it: a new object with a new text, while
        # the one handed out before still renders the rows it had.
        session.store.add_rows("isLocatedIn", [(7, 1)])
        grown = read()
        assert grown is not before and not grown.json_built
        assert json.loads(grown.json_rows()) == rows_payload(grown)
        assert [7, 1] in json.loads(grown.json_rows())
        assert before.json_rows() is text
        assert json.loads(text) == rows_payload(before) and len(before) == 8

    def test_two_variants_deriving_one_row_leave_no_duplicate(self, kernel):
        # (1, 4) arrives as an appended edge and, through (1, 5) and the
        # appended (5, 4), from the recursive arm as well.
        session = _session()
        store = session.store
        handle = session.prepare(
            CLOSURE, rewrite=False, exec_options=self._options(kernel)
        )
        capture: dict = {}
        VecBackend().execute_with_stats(
            session, handle.plan, None, None, fix_capture=capture
        )
        version = store.version
        store.add_rows("isLocatedIn", [(1, 4), (5, 4)])
        outcome = maintain_program(
            handle.plan.program,
            store,
            store.delta_since(version),
            {k: v for k, v in capture.items() if not isinstance(k, str)},
            head=handle.plan.head,
            kernel=get_kernel(kernel),
        )
        assert len(outcome.answer) == len(outcome.answer.to_rows()) == 13


def _ledger_pairs():
    """The 96 query x variant pairs of the ledger, on its small graphs."""
    yago = yago_session(graph=generate_yago(0.05))
    ldbc = ldbc_session(graph=generate_ldbc(0.1))
    for session, queries in ((yago, YAGO_QUERIES), (ldbc, LDBC_QUERIES)):
        for query in queries:
            for rewrite in (True, False):
                yield session, query, rewrite


def test_compiled_roots_are_duplicate_free():
    """``len`` is the root's row count: the invariant it relies on."""
    checked = 0
    for session, query, rewrite in _ledger_pairs():
        for backend in ("vec", "ra"):
            answer = session.execute(query.text, backend, rewrite=rewrite)
            assert len(answer) == len(answer.to_rows()), (query.qid, backend)
        checked += 1
    assert checked == 96


# -- the wire --------------------------------------------------------------------
def _reference_payload(rows) -> list[list]:
    """``rows_payload`` as it was before answers were coded."""
    try:
        ordered = sorted(rows)
    except TypeError:
        ordered = sorted(rows, key=repr)
    return [list(row) for row in ordered]


def _mixed_graph():
    """Node ids of several types: ints, a float and strings."""
    schema = (
        SchemaBuilder("mixed")
        .node("PERSON")
        .node("CITY")
        .edge("PERSON", "livesIn", "CITY")
        .edge("CITY", "twin", "CITY")
        .build()
    )
    graph = PropertyGraph("mixed")
    for person in (3, 1, 2, 2.5):
        graph.add_node(person, "PERSON")
    for city in (10, "lyon", 11, "paris"):
        graph.add_node(city, "CITY")
    for person, city in ((1, "paris"), (2, 10), (3, "lyon"), (2.5, 11)):
        graph.add_edge(person, "livesIn", city)
    for source, target in ((10, "lyon"), ("lyon", 11), (11, "paris")):
        graph.add_edge(source, "twin", target)
    return graph, schema


#: comparable columns; rows that sort although a column does not;
#: rows that only sort on ``repr``.
MIXED_QUERIES = (
    "x1 <- (x1, livesIn, x2)",
    "x1, x2 <- (x1, livesIn, x2)",
    "x2, x1 <- (x1, livesIn, x2)",
    "x1, x2 <- (x1, twin+, x2)",
)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("query", MIXED_QUERIES)
def test_payload_of_coded_columns_is_the_row_wise_payload(kernel, query):
    graph, schema = _mixed_graph()
    session = GraphSession(graph, schema)
    answer = session.execute(
        query, exec_options=ExecOptions(backend="vec", kernel=kernel)
    )
    assert answer.table is not None
    expected = _reference_payload(session.execute(query, "reference"))
    assert rows_payload(answer) == expected
    assert json.dumps(rows_payload(answer)) == json.dumps(expected)
    assert rows_payload(frozenset(answer)) == expected


@pytest.mark.skipif("numpy" not in KERNELS, reason="numpy kernel only")
def test_json_rows_of_a_numpy_answer_imports_no_numpy_ma():
    """Ranking a coded answer's columns for the wire (``np.unique`` would
    import ``numpy.ma`` on the first read a server answers)."""
    import os
    import subprocess
    import sys

    import repro

    check = (
        "import sys\n"
        "from repro.engine import GraphSession\n"
        "from repro.graph.model import yago_example_graph\n"
        "from repro.schema.builder import yago_example_schema\n"
        "session = GraphSession(yago_example_graph(), yago_example_schema())\n"
        f"answer = session.execute({CLOSURE!r}, 'vec')\n"
        "assert answer.json_rows().startswith('[[')\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("command", ["batch", "serve"])
def test_cli_json_orders_rows_as_the_wire_does(
    command, tmp_path, monkeypatch, capsys
):
    from repro import cli

    graph, schema = _mixed_graph()
    monkeypatch.setattr(
        cli, "_load_session",
        lambda dataset, scale, **kwargs: GraphSession(graph, schema, **kwargs),
    )
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(MIXED_QUERIES) + "\n")
    assert cli.main([command, str(queries), "--backend", "vec", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    oracle = GraphSession(graph, schema)
    assert printed == [
        {
            "query": query,
            "rows": _reference_payload(oracle.execute(query, "reference")),
        }
        for query in MIXED_QUERIES
    ]


async def _post(port: int, path: str, payload: dict) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, data = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head
    return data


def test_http_bodies_are_byte_identical_on_mixed_type_columns():
    graph, schema = _mixed_graph()
    oracle = GraphSession(graph, schema)
    expected = [
        _reference_payload(frozenset(oracle.execute(query, "reference")))
        for query in MIXED_QUERIES
    ]
    version = oracle.store.version

    async def drive():
        registry = TenantRegistry()
        registry.add(Tenant("mixed", GraphSession(graph, schema)))
        async with HTTPGraphServer(registry, port=0) as server:
            singles = [
                await _post(server.port, "/v1/mixed/query", {"query": query})
                for query in MIXED_QUERIES
            ]
            batch = await _post(
                server.port, "/v1/mixed/batch",
                {"queries": list(MIXED_QUERIES)},
            )
        return singles, batch

    singles, batch = asyncio.run(drive())

    def dumps(body: dict) -> bytes:
        return json.dumps(body, separators=(",", ":")).encode()

    for data, rows in zip(singles, expected):
        assert data == dumps({
            "tenant": "mixed", "backend": "vec", "store_version": version,
            "row_count": len(rows), "rows": rows,
        })
    assert batch == dumps({
        "tenant": "mixed", "backend": "vec", "store_version": version,
        "queries": len(expected),
        "row_counts": [len(rows) for rows in expected],
        "results": expected,
    })
