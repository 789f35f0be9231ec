"""Property: a kept closure answers as a fresh one, across appends.

The executor keeps the total of an unseeded closure of a stored relation
on the store encoding and reads it, as a stored table, in every later
execution until an append to the relation drops it. Over a drawn edge
relation ``e`` and a drawn sequence of appends to it (some with ids the
dictionary has not seen), each of ``e ∪ X/e``, ``e ∪ e/X`` and the
closure of ``e`` run backwards answers on numpy, first building the
closure and then reading it kept, exactly as the pure-Python kernel
(which never keeps one) answers it fresh on a store built from the
relation's current rows (whose encoding shares nothing); so does ``e ∪ X/e⁻``, whose
rows are not ``e+``: it must not read another closure's kept total.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionStats, closures_kept, compile_term, execute_program
from repro.exec.kernels import get_kernel
from repro.exec.kernels import kernels_numpy as npk
from repro.ra.terms import Fix, Join, Project, Rel, Rename, Var
from repro.storage.relational import RelationalStore, Table

needs_numpy = pytest.mark.skipif(npk is None, reason="numpy kernel absent")

SR, TR = "Sr", "Tr"


def _closure(base, grow_target: bool, relation=None) -> Fix:
    """``base ∪ X/relation`` (``grow_target``) or ``base ∪ relation/X``;
    the relation is the base unless given."""
    var = Var("X", (SR, TR))
    relation = base if relation is None else relation
    if grow_target:
        left, right = var, relation
    else:
        left, right = relation, var
    joined = Join(Rename.of(left, {TR: "m"}), Rename.of(right, {SR: "m"}))
    return Fix("X", base, Project(joined, (SR, TR)))


_REVERSED = Rename.of(Rel("e"), {SR: TR, TR: SR})
CLOSURES = {
    "forward": _closure(Rel("e"), grow_target=True),
    "backward": _closure(Rel("e"), grow_target=False),
    "reversed": _closure(_REVERSED, grow_target=True),
    "crossed": _closure(Rel("e"), grow_target=True, relation=_REVERSED),
}

#: Ids 0-7 start in the relation; the rest arrive by append only.
_NODE = st.integers(0, 11)
_EDGES = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24)
_APPENDS = st.lists(
    st.sets(st.tuples(_NODE, _NODE), min_size=1, max_size=5), max_size=4
)


def _store(edges) -> RelationalStore:
    store = RelationalStore()
    store.add_table(Table("e", (SR, TR), set(edges)), node_label=False)
    return store


@needs_numpy
@given(edges=_EDGES, appends=_APPENDS, order=st.permutations(sorted(CLOSURES)))
@settings(max_examples=60, deadline=None)
def test_kept_closures_answer_as_fresh_ones(edges, appends, order):
    python = get_kernel("python")
    store = _store(edges)
    for writes in [(), *appends]:
        store.add_rows("e", writes)
        oracle = _store(store.table("e").rows)
        for name in order:
            term = CLOSURES[name]
            fresh = execute_program(
                compile_term(term, oracle), oracle, kernel=python
            )
            program = compile_term(term, store)
            built = execute_program(program, store, kernel=npk)
            read = ExecutionStats()
            kept = execute_program(program, store, kernel=npk, stats=read)
            assert built == kept == fresh, name
            # The kept read is one scan of the closure's rows.
            assert read.fixpoint_rows == read.join_rows == 0, name
            assert read.scan_rows == len(fresh), name
        assert closures_kept(store) >= 1
