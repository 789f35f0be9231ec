"""Plans do not depend on object addresses, the string-hash seed or
the queries that ran before them.

µ-RA terms hash by identity (they are interned), so any set or dict of
terms iterated in hash order would order a plan by memory address, and
any set of strings iterated for output would order it by the process's
``PYTHONHASHSEED``. This renders the cost planner's ``explain`` text of
every workload query, rewritten and not, on the columnar and the SQL
backend, in two fresh processes, and compares the two byte for byte.
The processes differ in their hash seed and in where their terms land:
one first builds a few terms it keeps alive, which shifts the addresses
of every later one. A third test renders the same explains in one
process before and after executing every query, and asserts that the
executions moved no plan.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

#: Printed by each child process: one explain text per (query, rewrite,
#: backend), at small dataset sizes, after keeping ``argv[1]`` terms.
RENDER = """
import sys

from repro.datasets.ldbc import ldbc_session
from repro.datasets.yago import yago_session
from repro.engine.options import ExecOptions
from repro.ra.terms import Rel
from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

padding = [Rel(f"padding{index}") for index in range(int(sys.argv[1]))]
for queries, session in (
    (YAGO_QUERIES, yago_session(0.02)),
    (LDBC_QUERIES, ldbc_session(0.05)),
):
    with session:
        for query in queries:
            for rewrite in (True, False):
                for backend in ("vec", "sqlite"):
                    options = ExecOptions(backend=backend, planner="cost")
                    report = session.explain(
                        query.text, rewrite=rewrite, exec_options=options
                    )
                    print(f"== {query.qid} rewrite={rewrite} {backend}")
                    print(report.render())
"""


#: A chain over one symmetric relation: every bracketing of its
#: sub-chains ties in estimate, so the chain planner keeps the parsed one
#: (ties break by position, never by hash order).
TIED = "x1, x2 <- (x1, knows/knows/knows, x2)"

#: Prints the cost-planned explain of :data:`TIED` on the columnar
#: backend, rewritten and not.
RENDER_TIED = f"""
import sys

from repro.datasets.ldbc import ldbc_session
from repro.engine.options import ExecOptions
from repro.ra.terms import Rel

padding = [Rel(f"padding{{index}}") for index in range(int(sys.argv[1]))]
with ldbc_session(0.05) as session:
    for rewrite in (True, False):
        options = ExecOptions(backend="vec", planner="cost")
        report = session.explain({TIED!r}, rewrite=rewrite, exec_options=options)
        print(report.render())
"""


def _render(seed: str, padding: int, script: str = RENDER) -> bytes:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(padding)],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_explain_text_is_the_same_across_hash_seeds_and_addresses():
    first, second = _render("1", 0), _render("2", 3)
    assert first.count(b"\n== ") + 1 == 2 * 2 * 48
    assert first == second


def test_tied_chain_keeps_its_parsed_bracketing_under_any_hash_seed():
    from repro.datasets.ldbc import ldbc_session
    from repro.query.parser import parse_query
    from repro.ra.stats import Estimator
    from repro.ra.translate import TranslationContext, ucqt_to_ra

    first = _render("1", 0, RENDER_TIED)
    assert first == _render("2", 3, RENDER_TIED)
    query = parse_query(TIED)
    with ldbc_session(0.05) as session:
        knows = Estimator(session.store).estimate(
            ucqt_to_ra(parse_query("x1, x2 <- (x1, knows, x2)"))
        )
        assert knows.ndv("x1") == knows.ndv("x2")  # symmetric
        planned = ucqt_to_ra(
            query, TranslationContext(estimator=Estimator(session.store))
        )
    assert planned is ucqt_to_ra(query, TranslationContext())


def _cost_explains(session, queries, options) -> dict[tuple, str]:
    """The cost-planned explain of each query, rewritten and not, cut
    above its Q-error footer (the one section executions must move)."""
    texts = {}
    for query in queries:
        for rewrite in (True, False):
            text = session.explain(
                query.text, rewrite=rewrite, exec_options=options
            ).render()
            texts[query.qid, rewrite] = text.split("\n\n-- q-error", 1)[0]
    return texts


def test_explain_text_does_not_depend_on_earlier_executions():
    from repro.datasets.ldbc import ldbc_session
    from repro.datasets.yago import yago_session
    from repro.engine.options import ExecOptions
    from repro.workloads import LDBC_QUERIES, YAGO_QUERIES

    options = ExecOptions(backend="vec", planner="cost")
    for queries, session in (
        (YAGO_QUERIES, yago_session(0.02)),
        (LDBC_QUERIES, ldbc_session(0.05)),
    ):
        with session:
            cold = _cost_explains(session, queries, options)
            for query in queries:
                for rewrite in (True, False):
                    for _ in range(2):
                        session.execute(
                            query.text, rewrite=rewrite, exec_options=options
                        )
            session.clear_caches()
            warm = _cost_explains(session, queries[::-1], options)
        assert len(cold) == 2 * len(queries)
        assert warm == cold
