"""Property: path composition and closures agree with the plain path.

Three differentials:

* numpy's ``compose`` against ``distinct`` of the two kept columns of
  ``join``: the same rows and dedup ``key``, in the same order whenever
  ``distinct`` dropped a row (when it drops none it keeps the join's own
  order, which no caller relies on). Every way through ``compose`` is
  forced in turn — the join it falls back to, the bit-matrix product
  and the fused pass (mark and sort dedup) — and the size gates are
  checked at their boundaries.
* numpy's ``closure`` hook against the semi-naive loop it replaces: a
  linear closure over a drawn edge relation, narrow or wide domain,
  either orientation and join order, with or without a ``step_perm``,
  from a plain or a seeded base, gives the same rows, operator counts
  and captured total through the hook as through ``_iterate_fixpoint``,
  whichever way through the hook the module constants force (sorted
  runs of local pair keys, bit rows, or a switch from one to the other).
* maintained fixpoint answers after appends, some of which grow the
  dictionary (and so the packing domain), against the closure computed
  directly — on every available kernel, so the pure-Python one (which
  has no ``compose`` or ``closure``) runs it too, and on numpy from a
  fixpoint total the ``closure`` hook built, in each of its ways.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import GraphSession
from repro.engine.options import ExecOptions
from repro.exec import ExecutionStats, compile_term, encoding_for, execute_program
from repro.exec.kernels import available_kernels
from repro.exec.kernels import kernels_numpy as npk
from repro.graph.model import yago_example_graph
from repro.ra.terms import Fix, Join, Project, Rel, Rename, Var
from repro.schema.builder import yago_example_schema
from repro.storage.relational import RelationalStore, Table

needs_numpy = pytest.mark.skipif(npk is None, reason="numpy kernel absent")

#: Module constants that force one way through ``compose``: the join
#: (every gate shares the slack), or, with no slack so that a few dozen
#: join rows are enough for the local path, the bit product or the fused
#: pass (which dedups by a mark or a sort, as the drawn tables fall).
_COMPOSE_MODES = {
    "default": {},
    "join": {"_DIRECT_SLACK": 1 << 40},
    "bits": {"_DIRECT_SLACK": 0, "_BITS_PER_JOIN_ROW": 1 << 40},
    "fused": {"_DIRECT_SLACK": 0, "_BITS_PER_JOIN_ROW": 0},
}


def _patched(**constants):
    stack = ExitStack()
    for name, value in constants.items():
        stack.enter_context(mock.patch.object(npk, name, value))
    return stack


def _reference_compose(outer, ok, oc, inner, ik, ic, domain):
    pairs = npk.join(outer, inner, [ok], [ik], [(0, oc), (1, ic)], domain)
    return npk.distinct(npk.select_columns(pairs, [0, 1]), domain), pairs.n


def _assert_same_pairs(got, want, joined):
    (got, got_rows), (want, want_rows) = got, want
    assert got_rows == want_rows == joined
    assert npk.width(got) == 2 and got.n == want.n
    assert sorted(npk.to_rows(got)) == sorted(npk.to_rows(want))
    if want.key is None:
        assert got.key is None
    else:
        assert got.key[0] == want.key[0]
        assert got.key[1].tolist() == want.key[1].tolist()
    if want.n < joined:  # distinct dropped a row: its order is key order
        assert npk.to_rows(got) == npk.to_rows(want)


@st.composite
def _join_sides(draw):
    """Two coded tables of width 2 or 3 over one domain, and the key and
    kept column of each. The domain is small next to the rows, so most
    joins clear the join-rows gate once the slack is gone."""
    domain = draw(st.integers(1, 12))
    code = st.integers(0, domain - 1)
    sides = []
    for _ in range(2):
        width = draw(st.integers(2, 3))
        rows = draw(st.lists(st.tuples(*[code] * width), max_size=60))
        key, column = draw(st.permutations(range(width)))[:2]
        sides.append((npk.from_rows(rows, width), key, column))
    return domain, sides


@needs_numpy
@pytest.mark.parametrize("mode", sorted(_COMPOSE_MODES))
@given(data=_join_sides())
@settings(max_examples=80, deadline=None)
def test_compose_equals_distinct_of_join(mode, data):
    domain, ((outer, ok, oc), (inner, ik, ic)) = data
    want = _reference_compose(outer, ok, oc, inner, ik, ic, domain)
    with _patched(**_COMPOSE_MODES[mode]):
        got = npk.compose(outer, ok, oc, inner, ik, ic, domain)
    _assert_same_pairs(got, want, want[1])


def _chain(keys: int, fan: int, spread: bool = False):
    """``outer`` (i, k) and ``inner`` (k, j) over ``keys`` keys, each key
    joining ``fan`` outer rows to ``fan`` inner rows; their codes repeat
    across keys unless ``spread``."""
    def code(k, i):
        return k * fan + i if spread else i % 7
    outer = [(code(k, i), k) for k in range(keys) for i in range(fan)]
    inner = [(k, code(k, j)) for k in range(keys) for j in range(fan)]
    return npk.from_rows(outer, 2), npk.from_rows(inner, 2)


def _compose_spying(outer, inner, domain, spied, **constants):
    """``compose`` over a chain, under ``constants``, and whether it
    called ``spied``; checked against the join it stands for."""
    want = _reference_compose(outer, 1, 0, inner, 0, 1, domain)
    with _patched(**constants), mock.patch.object(
        npk, spied, wraps=getattr(npk, spied)
    ) as spy:
        got = npk.compose(outer, 1, 0, inner, 0, 1, domain)
    _assert_same_pairs(got, want, want[1])
    return spy.called


@needs_numpy
@pytest.mark.parametrize("mode", sorted(_COMPOSE_MODES))
@pytest.mark.parametrize("keys, fan", [(10, 3), (2, 10)])
def test_compose_modes_where_every_row_counts(mode, keys, fan):
    # Codes that never repeat: a row lost anywhere loses a pair.
    outer, inner = _chain(keys, fan, spread=True)
    want = _reference_compose(outer, 1, 0, inner, 0, 1, 40)
    with _patched(**_COMPOSE_MODES[mode]):
        got = npk.compose(outer, 1, 0, inner, 0, 1, 40)
    _assert_same_pairs(got, want, keys * fan * fan)


@needs_numpy
@pytest.mark.parametrize("domain", [320, 321])
def test_compose_counting_layout_gate_boundary(domain):
    # 40 rows a side: 4 * (40 + 40) = 320 is the largest domain that
    # still gets the counting layout (800 join rows clear the next gate).
    outer, inner = _chain(2, 20)
    joined = _compose_spying(outer, inner, domain, "join", _DIRECT_SLACK=0)
    assert joined == (domain > 320)


@needs_numpy
@pytest.mark.parametrize("slack", [31, 32])
def test_compose_join_rows_gate_boundary(slack):
    # 64 join rows over domain 16: the local path from one join row past
    # 2 * 16 + slack.
    outer, inner = _chain(4, 4)
    joined = _compose_spying(outer, inner, 16, "join", _DIRECT_SLACK=slack)
    assert joined == (slack == 32)


@needs_numpy
@pytest.mark.parametrize("per_row", [0, 1, 2, 1 << 20])
def test_compose_bit_product_gate(per_row):
    # 30 keys, 3 outer codes, 11 inner codes, 270 join rows: packing the
    # outer side touches 30 x 3 cells + 90 rows + 90 words, and the
    # product has 3 x 11 cells: 303 units, so from 2 per join row.
    outer, inner = _chain(30, 3)
    product = _compose_spying(
        outer, inner, 40, "_bit_product",
        _DIRECT_SLACK=0, _BITS_PER_JOIN_ROW=per_row,
    )
    assert product == (303 <= per_row * 270)


@needs_numpy
@pytest.mark.parametrize("keys, fan, sorts", [(2, 10, False), (10, 3, True)])
def test_compose_fused_dedup(keys, fan, sorts):
    # The fused pass marks a local pair space of at most 8 cells per
    # join row (20 x 20 <= 8 x 200) and sorts a sparser one (30 x 30 >
    # 8 x 90).
    outer, inner = _chain(keys, fan, spread=True)
    sorted_ = _compose_spying(
        outer, inner, 40, "_sorted_unique",
        _DIRECT_SLACK=0, _BITS_PER_JOIN_ROW=0,
    )
    assert sorted_ == sorts


# -- the closure hook against the semi-naive loop ------------------------------
#: Module constants that force one way through ``closure``: sorted runs of
#: local pair keys throughout, bit rows from the base on, or runs that
#: switch to bit rows once four pairs are held.
_CLOSURE_MODES = {
    "default": {},
    "keys": {"_CLOSURE_BITS_PER_ROW": 0},
    "bits": {"_BITS_MIN_ROWS": 0, "_CLOSURE_BITS_PER_ROW": 1 << 40},
    "switch": {"_BITS_MIN_ROWS": 4, "_CLOSURE_BITS_PER_ROW": 1 << 40},
}
#: Values a wide-domain store encodes before the closure's own, so that
#: the domain is far past a counting layout's reach for its few rows.
_WIDE = 6000


@st.composite
def _closures(draw):
    """A store holding an edge relation ``e`` and a base relation ``b``,
    and a linear closure over them: ``X = base ∪ X/e`` (the fixed column
    first) or ``X = base ∪ e/X`` (the fixed column second), the join's
    sides in either order, the step's columns in either order (the
    compiler then adds a ``step_perm``), from ``b`` or from ``b/e``. A
    *crossed* step puts the variable's kept column in the other place,
    which is not a closure the hook may run."""
    nodes = draw(st.integers(1, 12))
    node = st.integers(0, nodes - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=40))
    base = draw(st.sets(st.tuples(node, node), max_size=12))
    wide, forward, relation_first, swapped, seeded, crossed = (
        draw(st.booleans()) for _ in range(6)
    )
    store = RelationalStore()
    if wide:
        pad = {(f"pad{i}",) for i in range(_WIDE)}
        store.add_table(Table("pad", ("Sr",), pad), node_label=False)
    store.add_table(Table("e", ("Sr", "Tr"), edges), node_label=False)
    store.add_table(Table("b", ("Sr", "Tr"), base), node_label=False)

    def chain(left, right, crossed=False):
        # left.Tr = right.Sr, keeping left.Sr and right.Tr under their
        # own names, or under each other's when crossed.
        if crossed:
            return Join(
                Rename.of(left, {"Sr": "Tr", "Tr": "m"}),
                Rename.of(right, {"Sr": "m", "Tr": "Sr"}),
            )
        return Join(
            Rename.of(left, {"Tr": "m"}), Rename.of(right, {"Sr": "m"})
        )

    var = Var("X", ("Sr", "Tr"))
    sides = (var, Rel("e")) if forward else (Rel("e"), var)
    joined = chain(*sides, crossed)
    if relation_first == forward:  # the relation on the join's left
        joined = Join(joined.right, joined.left)
    step = Project(joined, ("Tr", "Sr") if swapped else ("Sr", "Tr"))
    seed = Project(chain(Rel("b"), Rel("e")), ("Sr", "Tr")) if seeded else Rel("b")
    if seeded:
        base = {(a, d) for a, b in base for c, d in edges if b == c}
    return store, Fix("X", seed, step), wide, forward, crossed, base, edges


def _lfp(base: set, edges: set, forward: bool, crossed: bool) -> set:
    closure = set(base)
    while True:
        left, right = (closure, edges) if forward else (edges, closure)
        step = {(a, d) for a, b in left for c, d in right if b == c}
        if crossed:
            step = {(d, a) for a, d in step}
        if step <= closure:
            return closure
        closure |= step


@needs_numpy
@pytest.mark.parametrize("mode", sorted(_CLOSURE_MODES))
@given(data=_closures())
@settings(max_examples=60, deadline=None)
def test_closure_equals_the_semi_naive_loop(mode, data):
    store, term, wide, forward, crossed, base, edges = data
    program = compile_term(term, store)
    encoding = encoding_for(store)
    if wide:
        encoding.table("pad")
        assert encoding.domain_size > 4 * (len(base) + len(edges)) + 4096

    def run():
        capture, stats = {}, ExecutionStats()
        answer = execute_program(
            program, store, kernel=npk, stats=stats, fix_capture=capture
        )
        return answer, stats, capture[term]

    with _patched(**_CLOSURE_MODES[mode]):
        with mock.patch.object(npk, "closure", wraps=npk.closure) as closure:
            hooked, hook_stats, hook_fix = run()
        with mock.patch.object(npk, "closure", None):  # the loop
            looped, loop_stats, loop_fix = run()
    # The hook ran, once, unless the step was crossed.
    assert closure.call_count == (not crossed)
    assert hooked == looped == _lfp(base, edges, forward, crossed)
    for name in (
        "ops_evaluated", "join_rows", "project_rows", "fixpoint_rows",
        "memo_hits",
    ):
        assert getattr(hook_stats, name) == getattr(loop_stats, name)
    # The captured totals: the same rows, each held once.
    held = set(npk.to_rows(hook_fix))
    assert held == set(npk.to_rows(loop_fix))
    assert npk.nrows(hook_fix) == npk.nrows(loop_fix) == len(held)


# -- maintained fixpoints after dictionary-growing appends ---------------------
CLOSURE = "x1, x2 <- (x1, isLocatedIn+, x2)"
#: Existing ids of the example graph's places, then ids it has not seen
#: (appending those grows the dictionary, so the packing domain moves).
_IDS = [5, 6, 7, 8, 9, 100, 101, 102, 103, 104, 105]
_WRITES = st.lists(
    st.lists(
        st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)),
        min_size=1, max_size=4,
    ),
    min_size=1, max_size=4,
)


def _closure(edges) -> set:
    closure = set(edges)
    while True:
        step = {(a, d) for a, b in closure for c, d in edges if b == c}
        if step <= closure:
            return closure
        closure |= step


def _check_maintained(kernel, writes, constants):
    options = ExecOptions(backend="vec", kernel=kernel)
    with _patched(**constants), GraphSession(
        yago_example_graph(), yago_example_schema(), result_cache_size=8
    ) as session:
        store = session.store

        def check():
            answer = session.execute(CLOSURE, rewrite=False, exec_options=options)
            edges = set(store.table("isLocatedIn").rows)
            assert set(answer) == _closure(edges)

        check()
        added = 0
        for rows in writes:
            added += store.add_rows("isLocatedIn", rows)
            check()
        maintained = session.cache_stats["maintenance"].results_maintained
        assert maintained >= 1 or not added


@pytest.mark.parametrize("kernel", available_kernels())
@given(_WRITES)
@settings(max_examples=25, deadline=None)
def test_maintained_fixpoint_after_growing_appends(kernel, writes):
    _check_maintained(kernel, writes, {})


@needs_numpy
@pytest.mark.parametrize("mode", sorted(_CLOSURE_MODES))
@given(_WRITES)
@settings(max_examples=15, deadline=None)
def test_maintained_closure_after_growing_appends(mode, writes):
    # The cached fixpoint total the maintenance run resumes from is the
    # one the ``closure`` hook returned.
    with mock.patch.object(npk, "closure", wraps=npk.closure) as closure:
        _check_maintained("numpy", writes, _CLOSURE_MODES[mode])
    assert closure.called
