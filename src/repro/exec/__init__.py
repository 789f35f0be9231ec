"""Columnar execution engine: the one physical layer under µ-RA.

Everything that executes an optimised :class:`~repro.ra.terms.RaTerm`
goes through this subsystem — the ``vec`` and ``ra`` backends and
:func:`repro.ra.evaluate.evaluate_term` alike. Plans run batch-at-a-time
over columns of dense integer codes:

* :mod:`repro.exec.dictionary` — dictionary-encodes every node id and
  constant into a dense integer once per store snapshot; the encoding is
  *append-only*, so append-only store writes fold in as O(delta) code
  appends and only barrier writes rebuild it,
* :mod:`repro.exec.kernels` — the columnar kernel primitives (gather,
  distinct, hash join on encoded key columns, set difference), with a
  NumPy implementation and a pure-Python fallback behind one surface,
* :mod:`repro.exec.compile` — compiles an ``RaTerm`` into a DAG of
  physical columnar operators with all column arithmetic resolved to
  positional indices at compile time,
* :mod:`repro.exec.executor` — runs a compiled program, including
  semi-naive fixpoint iteration over delta frontiers,
* :mod:`repro.exec.result` — the answer type: the coded root plus the
  value list, decoded once and only when read,
* :mod:`repro.exec.maintain` — incrementally maintains cached results
  after append-only store writes: one delta pass over the program,
  re-seeding semi-naive iteration where it kept a fixpoint.

The :class:`~repro.engine.backends.VecBackend` registered in the engine
layer wires the pieces behind the standard ``prepare``/``execute``/
``explain`` protocol; :class:`~repro.engine.backends.RaBackend` is the
same wiring with the pure-Python kernel pinned. Everything runs in
memory: a ``max_bytes`` cap is a hard limit on every kernel.
"""

from repro.exec.compile import CompiledProgram, compile_term, render_program
from repro.exec.dictionary import (
    StoreEncoding,
    ValueDictionary,
    closures_kept,
    encoding_appends,
    encoding_for,
    tables_encoded,
)
from repro.exec.executor import (
    ExecutionStats,
    execute_batch_programs,
    execute_program,
)
from repro.exec.maintain import (
    MaintenanceOutcome,
    maintain_program,
    maintainable,
)
from repro.exec.kernels import available_kernels, default_kernel, get_kernel
from repro.exec.result import ResultSet

__all__ = [
    "CompiledProgram",
    "ExecutionStats",
    "MaintenanceOutcome",
    "ResultSet",
    "StoreEncoding",
    "ValueDictionary",
    "available_kernels",
    "closures_kept",
    "compile_term",
    "default_kernel",
    "encoding_appends",
    "encoding_for",
    "execute_batch_programs",
    "execute_program",
    "get_kernel",
    "maintain_program",
    "maintainable",
    "render_program",
    "tables_encoded",
]
