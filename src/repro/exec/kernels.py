"""Columnar kernel selection.

A *kernel* is a module implementing the batch primitives the executor
needs over tables of integer-code columns:

======================  ======================================================
``NAME``                kernel identifier (``"numpy"`` / ``"python"``)
``from_columns(c, n)``  build a table from lists of column codes
``from_rows(r, w)``     build a table from row tuples (tests, fixpoint glue)
``to_rows(t)``          materialise row tuples
``nrows(t)``            row count
``width(t)``            column count
``empty(w)``            the empty table of ``w`` columns
``select_columns``      gather/permute columns by position
``distinct``            the set of a table's rows (one ``()`` for any
                        non-empty zero-width table)
``select_eq``           keep rows where two columns hold equal codes
``concat``              stack two same-width tables
``concat_many``         stack many same-width tables in one pass
``join``                natural join on encoded key columns, as a bag: the
                        smaller side is indexed by key (a counting layout —
                        the build rows of one key are one run of a stable
                        ``order`` — addressed by the code itself in numpy,
                        through a dict in python), the larger side probes it.
                        numpy: a stored table's key column (``from_columns``,
                        and its ``select_columns`` views) keeps its layout
                        for the table's lifetime, sized by the column's own
                        largest code; a single-key join probes it with the
                        other side, whatever the sizes
``empty_state()``       fresh seen-row state for fixpoint difference
``difference``          the set of a table's rows not yet in the state
                        (duplicates in the input are dropped, like
                        ``distinct``); returns (delta, state) and may
                        update the state it was given in place (python: a
                        set of rows; numpy: sorted runs of packed row keys,
                        never written to, or a set of rows too wide to
                        pack). A state lives inside one execution: nothing
                        keeps it past the fixpoint that built it
``compose`` (optional)  ``compose(outer, ok, oc, inner, ik, ic, domain)``:
                        ``distinct`` of the ``(oc, ic)`` columns of the
                        single-key join ``outer.ok = inner.ik`` and the
                        join's row count, without materialising the join
                        (numpy: a boolean product of bit-packed rows over
                        locally renumbered codes, or one fused gather-and-
                        dedup pass). The executor runs ``ProjectOp(distinct)``
                        over such a ``JoinOp`` through it; a kernel without
                        it runs the join, then ``distinct``
``closure`` (optional)  ``closure(base, fixed, domain)``: semi-naive
                        iteration of a linear fixpoint ``X = base ∪
                        π(X ⋈ S)`` whose step keeps ``X``'s column
                        ``fixed`` and fills the other from the ``S`` rows
                        it joins (``base`` as ``difference`` left the
                        base rows), or None when it cannot run one. The
                        object it returns has ``rows`` (the frontier's),
                        ``step(S, key, column)`` for one round, returning
                        its join and step row counts, and ``result()``:
                        the total (numpy: over the closure's own
                        renumbered ids, ``S``'s successors laid out once,
                        the pairs reached held as sorted runs of local
                        keys or as bit rows). The executor runs such a
                        fixpoint through it, accounted round by round as
                        the loop it replaces; a kernel without it and a
                        maintenance resume run the loop
``release``             drop any scratch a table carries before it is kept
                        (numpy: the sorted key ``distinct`` leaves for the
                        ``difference`` that follows); returns the table
======================  ======================================================

:mod:`repro.exec.kernels_numpy` vectorizes these over ``numpy`` arrays;
:mod:`repro.exec.kernels_python` is a dependency-free columnar fallback so
the ``vec`` backend works on a bare CPython install.

The contract is about row *sets* (bags, for ``join``, ``concat*`` and
``select_*``): both kernels produce the same rows for the same input —
``tests/properties/test_kernel_agreement.py`` checks it primitive by
primitive — but the **row order of a coded table is not part of it**.
numpy's ``distinct`` and ``difference`` emit packed-key order (they
dedup by sorting the packed key, not by first occurrence), python's
emit set-iteration order. Nothing downstream may rely on either.
"""

from __future__ import annotations

from repro.exec import kernels_python

try:  # pragma: no cover - exercised via whichever kernel is active
    from repro.exec import kernels_numpy
except ImportError:  # pragma: no cover - numpy genuinely absent
    kernels_numpy = None  # type: ignore[assignment]

_DEFAULT = kernels_numpy if kernels_numpy is not None else kernels_python


def default_kernel():
    """The fastest available kernel module (numpy when importable)."""
    return _DEFAULT


def available_kernels() -> tuple[str, ...]:
    names = [kernels_python.NAME]
    if kernels_numpy is not None:
        names.insert(0, kernels_numpy.NAME)
    return tuple(names)


def get_kernel(name: str):
    """Resolve a kernel module by name."""
    if name == kernels_python.NAME:
        return kernels_python
    if kernels_numpy is not None and name == kernels_numpy.NAME:
        return kernels_numpy
    raise ValueError(
        f"unknown kernel {name!r}; available: {available_kernels()}"
    )
