"""``ExecOptions`` — every execution knob in one frozen dataclass.

Execution knobs used to be scattered: ``backend=`` and ``planner=``
parameters, a per-backend ``backend_options`` mapping (``kernel``,
``fixpoint_growth``), and session-level result-cache/incremental
toggles. :class:`ExecOptions` collapses them into one immutable object
accepted uniformly by ``GraphSession.__init__`` / ``prepare`` /
``execute`` / ``execute_batch``, the CLI and the HTTP request models.

Resolution order, most specific wins:

1. per-call legacy kwargs (``backend=``, ``planner=``,
   ``backend_options={...}`` — kept as deprecated aliases),
2. the per-call ``exec_options=``,
3. the session's constructor-time ``exec_options=``.

Each backend consumes only the knobs it understands
(:data:`BACKEND_OPTION_KEYS`): one options object can therefore describe
a mixed-backend batch — ``vec`` reads ``kernel``/``fixpoint_growth``
plus the out-of-core pair ``spill_path``/``spill_threshold_bytes``,
``ra`` reads ``fixpoint_growth``, the rest take nothing. A legacy
``backend_options`` mapping is still handed to the backend verbatim (on
top of the derived knobs), so third-party backends with their own option
vocabulary — and option-typo validation — keep working.

Deprecation warnings for the legacy kwargs are gated behind
``REPRO_EXEC_OPTIONS_WARN=1`` so existing callers stay quiet by default;
a CI leg runs the whole suite with the flag on.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields, replace
from typing import Mapping

from repro.engine.cache import freeze_options

#: Environment flag turning legacy-kwarg DeprecationWarnings on.
EXEC_OPTIONS_WARN_ENV = "REPRO_EXEC_OPTIONS_WARN"

#: Which ExecOptions knobs each built-in backend consumes. Backends not
#: listed (sqlite/gdb/reference, third-party registrations) take no
#: derived knobs — only a legacy ``backend_options`` mapping reaches
#: them, verbatim.
BACKEND_OPTION_KEYS: dict[str, tuple[str, ...]] = {
    "vec": (
        "kernel",
        "fixpoint_growth",
        "spill_path",
        "spill_threshold_bytes",
    ),
    "ra": ("fixpoint_growth",),
}

#: The ExecOptions fields that travel inside a backend-options mapping.
_KNOB_FIELDS = (
    "kernel",
    "fixpoint_growth",
    "spill_path",
    "spill_threshold_bytes",
)


def exec_options_warnings_enabled() -> bool:
    return os.environ.get(EXEC_OPTIONS_WARN_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def warn_legacy_exec_kwargs(context: str) -> None:
    """Emit the (env-gated) deprecation warning for legacy kwargs."""
    if exec_options_warnings_enabled():
        warnings.warn(
            f"{context}: the planner=/backend_options= keyword arguments "
            "are deprecated aliases; pass exec_options=ExecOptions(...) "
            "instead",
            DeprecationWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class ExecOptions:
    """Immutable bundle of every execution knob.

    All fields default to ``None`` ("unset"): resolution overlays more
    specific objects onto less specific ones field by field, and each
    consumer applies its own default for fields still unset.
    """

    backend: str | None = None           # execution substrate ("auto" allowed)
    planner: str | None = None           # "greedy" | "cost"
    kernel: str | None = None            # vec kernel pin ("numpy"/"python")
    fixpoint_growth: float | None = None # estimator closure-growth override
    spill_path: str | None = None        # out-of-core spill directory root
    spill_threshold_bytes: int | None = None  # spill tables above this size
    result_cache_size: int | None = None # session result-cache capacity
    incremental: bool | None = None      # session maintenance toggle
    max_rows: int | None = None          # ResourceBudget cumulative row cap
    max_bytes: int | None = None         # ResourceBudget intermediate-bytes cap
    fallback: bool | None = None         # retry down the backend chain

    def __post_init__(self) -> None:
        for name in ("backend", "planner", "kernel", "spill_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"exec option {name!r} must be a string, got {value!r}"
                )
        for name in ("max_rows", "max_bytes", "spill_threshold_bytes"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"exec option {name!r} must be a positive integer, "
                    f"got {value!r}"
                )
        growth = self.fixpoint_growth
        if growth is not None:
            if isinstance(growth, bool) or not isinstance(growth, (int, float)):
                raise ValueError(
                    f"exec option 'fixpoint_growth' must be a number, "
                    f"got {growth!r}"
                )
        size = self.result_cache_size
        if size is not None:
            if isinstance(size, bool) or not isinstance(size, int) or size < 0:
                raise ValueError(
                    "exec option 'result_cache_size' must be a "
                    f"non-negative integer, got {size!r}"
                )
        if self.incremental is not None and not isinstance(
            self.incremental, bool
        ):
            raise ValueError(
                "exec option 'incremental' must be a boolean, "
                f"got {self.incremental!r}"
            )
        if self.fallback is not None and not isinstance(self.fallback, bool):
            raise ValueError(
                "exec option 'fallback' must be a boolean, "
                f"got {self.fallback!r}"
            )

    # -- resolution --------------------------------------------------------
    def merged(self, other: "ExecOptions | None") -> "ExecOptions":
        """This object with ``other``'s *set* fields overlaid on top."""
        if other is None:
            return self
        updates = {
            field.name: getattr(other, field.name)
            for field in fields(other)
            if getattr(other, field.name) is not None
        }
        return replace(self, **updates) if updates else self

    def with_legacy(
        self,
        *,
        backend: str | None = None,
        planner: str | None = None,
        backend_options: Mapping | None = None,
    ) -> "ExecOptions":
        """Overlay the deprecated per-call aliases onto this object."""
        updates: dict = {}
        if backend is not None:
            updates["backend"] = backend
        if planner is not None:
            updates["planner"] = planner
        for key in _KNOB_FIELDS:
            if backend_options and backend_options.get(key) is not None:
                updates[key] = backend_options[key]
        return replace(self, **updates) if updates else self

    # -- projection to one backend ----------------------------------------
    def backend_options_for(
        self, backend: str | None, extra: Mapping | None = None
    ) -> dict | None:
        """The backend-options mapping ``backend``'s prepare should see.

        Derived from the knobs ``backend`` consumes
        (:data:`BACKEND_OPTION_KEYS`); a legacy ``extra`` mapping is laid
        on top verbatim — unknown keys deliberately reach the backend so
        its own option validation still fires. ``None`` when nothing
        applies (the pre-options prepare signature keeps working).
        """
        options: dict = {}
        for key in BACKEND_OPTION_KEYS.get(backend or "", ()):
            value = getattr(self, key)
            if value is not None:
                options[key] = value
        if extra:
            options.update(extra)
        return options or None

    def freeze(
        self, backend: str | None, extra: Mapping | None = None
    ) -> tuple | None:
        """The canonical cache-key part for this object on one backend.

        The single place plan-/result-cache keying derives from
        execution options: :func:`~repro.engine.cache.freeze_options`
        over exactly the mapping the backend would receive.
        """
        return freeze_options(self.backend_options_for(backend, extra))

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """The set fields only, JSON-serializable."""
        return {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if getattr(self, field.name) is not None
        }

    @classmethod
    def from_mapping(cls, payload: Mapping) -> "ExecOptions":
        """Build from an untrusted mapping (the HTTP request models).

        Raises ``ValueError`` on unknown keys or ill-typed values — the
        server wraps that into its structured request-error taxonomy.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"exec options must be an object, got {type(payload).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown exec option(s) {', '.join(map(repr, unknown))}; "
                f"accepted options: {', '.join(sorted(known))}"
            )
        return cls(**{key: payload[key] for key in payload})


#: The all-unset object resolution starts from.
DEFAULT_EXEC_OPTIONS = ExecOptions()
