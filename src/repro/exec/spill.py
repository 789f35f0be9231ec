"""Memmap spill of encoded columns — out-of-core vec execution.

A :class:`SpillManager` owns one session-scoped spill directory and
rewrites integer-code columns into flat little-endian int64 files that
are handed back as ``numpy.memmap`` views. Kernel tables built over
those views behave exactly like in-RAM tables (a memmap is an ndarray
subclass), but their resident footprint is whatever the OS page cache
decides — which is why the executor does *not* charge spilled tables
against a :class:`~repro.graph.evaluator.ResourceBudget`'s ``max_bytes``
ceiling: the cap governs materialised RAM, spill trades it for disk.

Two spill shapes:

* **named base tables** — keyed ``(table name, encoding version)`` so a
  repeat execution at the same store version reuses the file instead of
  rewriting it; a version move (append delta or barrier rebuild)
  invalidates the stale file on next spill of that table;
* **anonymous intermediates** — written, mapped, then immediately
  unlinked (POSIX keeps the mapping alive), so operator outputs spilled
  mid-query free their disk space the moment the last table referencing
  them is garbage collected. No leak is possible even on a crashed run.

Spilling is numpy-only (``kernel.SUPPORTS_MEMMAP``): the pure-Python
kernel copies columns into plain lists on construction, so a memmap
buys it nothing — spill degrades to a no-op there and results stay
identical, which the property suite checks.

Fault sites: ``spill.write`` fires before a file is written and is
*contained* (callers keep the table in RAM instead); ``spill.read``
fires before a named file is reused and *raises* (retryable — the next
attempt rewrites the file).

Environment defaults (the CLI flags and ``ExecOptions`` fields override
them): ``REPRO_SPILL_PATH`` roots the spill directories and
``REPRO_SPILL_THRESHOLD_BYTES`` turns spilling on for any table whose
estimated encoded size exceeds it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading

from repro.testing.faults import fault_point

try:  # pragma: no cover - exercised via whichever kernel is active
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None  # type: ignore[assignment]

SPILL_PATH_ENV = "REPRO_SPILL_PATH"
SPILL_THRESHOLD_ENV = "REPRO_SPILL_THRESHOLD_BYTES"

_INT_BYTES = 8


def default_spill_path() -> str | None:
    """The spill-directory root implied by ``REPRO_SPILL_PATH``."""
    raw = os.environ.get(SPILL_PATH_ENV, "").strip()
    return raw or None


def default_spill_threshold() -> int | None:
    """Bytes above which tables spill (``REPRO_SPILL_THRESHOLD_BYTES``).

    ``None`` (spilling off) when unset, empty, non-numeric or < 1.
    """
    raw = os.environ.get(SPILL_THRESHOLD_ENV, "").strip()
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def spill_supported(kernel) -> bool:
    """Whether ``kernel``'s tables can be backed by memmap columns."""
    return _np is not None and getattr(kernel, "SUPPORTS_MEMMAP", False)


def is_spilled(table) -> bool:
    """Whether every column of a kernel table is disk-backed.

    Column gathers and row slices of a spilled table stay memmap views
    (no new RAM), so they count as spilled too; any operator that
    materialises fresh arrays (joins, dedup, concat) drops the property
    and its output is charged against the budget normally.
    """
    if _np is None:
        return False
    cols = getattr(table, "cols", None)
    if not cols:
        return False
    return all(isinstance(column, _np.memmap) for column in cols)


class SpillManager:
    """Owns one spill directory; writes columns, hands back memmaps.

    ``spilled_bytes``/``spill_ops`` count what was actually written
    (reuse of a named file is free); ``spill_reuses`` counts the hits.
    The counters and the file sequence are lock-guarded: a session's
    manager is shared by every execution on it.
    """

    #: The counters :meth:`counters` reports, in its order.
    COUNTERS = ("spilled_bytes", "spill_ops", "spill_reuses")

    def __init__(self, path: str | None = None):
        root = path or default_spill_path()
        if root:
            os.makedirs(root, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=root or None)
        self.spilled_bytes = 0
        self.spill_ops = 0
        self.spill_reuses = 0
        self.closed = False
        self._lock = threading.Lock()
        self._sequence = 0
        #: Named spill files: table name -> (version, path, ncols, nrows).
        self._named: dict[str, tuple[int, str, int, int]] = {}

    def counters(self) -> dict[str, int]:
        """The spill counters, JSON-ready (``planner_stats["memory"]``)."""
        with self._lock:
            return {name: getattr(self, name) for name in self.COUNTERS}

    # -- paths -------------------------------------------------------------
    def _next_path(self, tag: str) -> str:
        with self._lock:
            self._sequence += 1
            sequence = self._sequence
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in tag)
        return os.path.join(self.directory, f"{safe}-{sequence:06d}.bin")

    def files(self) -> list[str]:
        """The spill files currently on disk (lifecycle tests)."""
        if self.closed or not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
        )

    # -- writing -----------------------------------------------------------
    def _write(self, path: str, columns, nrows: int) -> None:
        fault_point("spill.write")
        with open(path, "wb") as handle:
            for column in columns:
                _np.asarray(column, dtype=_np.int64).tofile(handle)
        with self._lock:
            self.spill_ops += 1
            self.spilled_bytes += len(columns) * nrows * _INT_BYTES

    def _map(self, path: str, ncols: int, nrows: int):
        return _np.memmap(path, dtype=_np.int64, mode="r", shape=(ncols, nrows))

    def spill_table(self, name: str, version: int, columns, nrows: int):
        """Spill (or reuse) a named base table; returns the 2D memmap.

        A cached file at the same ``version`` is remapped without a
        write; a cached file at any *other* version (append delta or
        barrier rebuild moved the encoding) is deleted and rewritten —
        the invalidation half of the lifecycle contract.
        """
        if self.closed:
            raise RuntimeError("spill manager is closed")
        ncols = len(columns)
        entry = self._named.get(name)
        if entry is not None:
            cached_version, path, cached_cols, cached_rows = entry
            if (
                cached_version == version
                and cached_cols == ncols
                and cached_rows == nrows
            ):
                fault_point("spill.read")
                with self._lock:
                    self.spill_reuses += 1
                return self._map(path, ncols, nrows)
            self._named.pop(name, None)
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        path = self._next_path(f"table-{name}-v{version}")
        self._write(path, columns, nrows)
        self._named[name] = (version, path, ncols, nrows)
        return self._map(path, ncols, nrows)

    def spill_anonymous(self, tag: str, columns, nrows: int):
        """Spill an intermediate; the file is unlinked once mapped.

        POSIX keeps the mapping valid after the unlink, so the disk
        space is reclaimed automatically when the returned memmap (and
        every view of it) is garbage collected — intermediates need no
        explicit lifecycle at all.
        """
        if self.closed:
            raise RuntimeError("spill manager is closed")
        path = self._next_path(tag)
        self._write(path, columns, nrows)
        mapped = self._map(path, len(columns), nrows)
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - e.g. non-POSIX filesystem
            pass
        return mapped

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Delete the spill directory and everything in it."""
        if self.closed:
            return
        self.closed = True
        self._named.clear()
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


def table_from_memmap(kernel, mapped, nrows: int):
    """A kernel table over the rows of a 2D column-major memmap.

    Built directly (not through ``kernel.from_columns``, whose
    ``np.asarray`` would strip the ``memmap`` type the budget exemption
    keys on) — each table column is one zero-copy row view of the map.
    """
    from repro.exec.kernels_numpy import NpTable

    return NpTable([mapped[i] for i in range(mapped.shape[0])], nrows)


def spill_kernel_table(manager: SpillManager, kernel, table, tag: str):
    """Rewrite an in-RAM kernel table onto disk; ``None`` if ineligible.

    Only memmap-capable kernels spill; empty tables are never worth a
    file. The caller decides *whether* to spill (threshold policy) —
    this helper only performs the rewrite.
    """
    if not spill_supported(kernel):
        return None
    cols = getattr(table, "cols", None)
    n = getattr(table, "n", 0)
    if not cols or n == 0:
        return None
    mapped = manager.spill_anonymous(tag, cols, n)
    return table_from_memmap(kernel, mapped, n)
