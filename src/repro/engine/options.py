"""``ExecOptions`` — every execution knob in one frozen dataclass.

One immutable object carries the knobs from a front door
(``GraphSession.__init__`` / ``prepare`` / ``execute`` /
``execute_batch``, the CLI flags, the ``"options"`` object of an HTTP
request) down to the backend that compiles and runs the plan; nothing in
between re-spells them as a mapping.

Resolution order, most specific wins:

1. the positional ``backend`` of a call (shorthand for
   ``ExecOptions(backend=...)``),
2. the per-call ``exec_options=``,
3. the session's constructor-time ``exec_options=``,
4. :data:`DEFAULT_BACKEND` for a ``backend`` none of them set.

Every value is checked here, when the object is built, except the one
check that depends on the install (``kernel`` names a kernel that can be
imported), which the ``vec`` backend makes in ``prepare``. Each backend
names the fields it reads in its ``option_fields`` attribute — ``vec``
the kernel pin, the rest nothing — and the
values of exactly those fields (:meth:`ExecOptions.key_for`) are the
execution-options part of its plan- and result-cache keys, so one
object can describe a mixed-backend batch without fragmenting anyone's
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping


@dataclass(frozen=True)
class ExecOptions:
    """Immutable bundle of every execution knob.

    All fields default to ``None`` ("unset"): resolution overlays more
    specific objects onto less specific ones field by field, and each
    consumer applies its own default for fields still unset.
    """

    backend: str | None = None           # execution substrate, or auto
    planner: str | None = None           # "greedy" | "cost"
    kernel: str | None = None            # vec kernel pin ("numpy"/"python")
    max_rows: int | None = None          # ResourceBudget cumulative row cap
    max_bytes: int | None = None         # ResourceBudget intermediate-bytes cap
                                         # (hard: over it, the run fails)
    fallback: bool | None = None         # retry down the backend chain

    def __post_init__(self) -> None:
        for name in ("backend", "planner", "kernel"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"exec option {name!r} must be a string, got {value!r}"
                )
        for name in ("max_rows", "max_bytes"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"exec option {name!r} must be a positive integer, "
                    f"got {value!r}"
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

    def key_for(self, backend: object) -> tuple:
        """The cache-key part of this object on one backend: the values
        of the fields the backend reads (its ``option_fields``; a
        backend that names none keys on nothing)."""
        return tuple(
            getattr(self, name)
            for name in getattr(backend, "option_fields", ())
        )

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

#: What a ``backend`` still unset after resolution means, at every front
#: door (API, CLI, serving tier): the exec layer on the fastest kernel
#: :func:`~repro.exec.kernels.default_kernel` can import.
DEFAULT_BACKEND = "vec"
