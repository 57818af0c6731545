"""The engine backend registry.

Two names for driving the cycle-level simulator.  Both run the same
code -- :class:`~repro.sim.engine.Engine` has one hot path
(``_begin`` / ``_drain`` / ``_finish``), and hooks are ``is not None``
tests inside it -- so the names select how cells share a process,
never a different loop:

* ``plain`` -- the default: one :class:`~repro.sim.engine.Engine` per
  run, nothing attached unless the caller attaches it (a
  :class:`~repro.obs.profile.PhaseProfile`, say: ``repro run
  --profile``).
* ``batched`` -- the lockstep scheduler of :mod:`repro.sim.batched`:
  many cells of the same workload graph in one process (one fork, one
  warm interpreter, one ledger append per group), interleaved
  cycle-major, each cell draining the same hot path up to a shared
  cycle ceiling.  Requires numpy.  The scheduler itself runs cells
  with hooks attached; the sweep harness and
  ``WaveScalarProcessor`` nevertheless keep such cells (fault plans,
  traces, sanitizers, profiles) out of batch groups and record why
  (:func:`batch_unsupported_reason`), so ledger records do not depend
  on which cells happened to share a group.

Every user-facing selection point (``WaveScalarProcessor(backend=)``,
``repro run --backend``, sweep ``--backend``) funnels through
:func:`validate_backend`, so an unknown name always fails fast with
the valid set listed.
"""

from __future__ import annotations

import enum
from typing import Optional

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "UnknownBackendError",
    "batched_available",
    "batch_unsupported_reason",
    "validate_backend",
]

#: Every selectable backend, in documentation order.
BACKENDS = ("plain", "batched")

DEFAULT_BACKEND = "plain"


class UnknownBackendError(ValueError):
    """Raised for a backend name outside :data:`BACKENDS`."""

    def __init__(self, name: object) -> None:
        super().__init__(
            f"unknown engine backend {name!r}; valid backends: "
            + ", ".join(BACKENDS)
        )
        self.name = name


def validate_backend(name: object) -> str:
    """Normalize ``name`` to a registered backend string.

    Accepts the canonical strings (whitespace/case tolerated, for
    misparsed CLI values) and string-valued enum members from
    programmatic callers.  Everything else -- ``None``, bytes, numbers
    -- raises :class:`UnknownBackendError` listing the valid set, never
    ``TypeError``, so every selection point fails the same way.
    """
    candidate = name
    if isinstance(candidate, enum.Enum):
        candidate = candidate.value
    if not isinstance(candidate, str):
        raise UnknownBackendError(name)
    candidate = candidate.strip().lower()
    if candidate not in BACKENDS:
        raise UnknownBackendError(name)
    return candidate


def batched_available() -> bool:
    """Whether the batched backend can run in this environment (it
    holds its lockstep bookkeeping in numpy arrays)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def batch_unsupported_reason(
    faults=None,
    trace=None,
    sanitizer=None,
    profile=None,
) -> Optional[str]:
    """The deterministic reason a cell is kept out of batch groups and
    run alone, or ``None`` when it may join one.

    The reasons here depend only on the cell's own definition and the
    environment -- never on scheduling dynamics (batch width, worker
    crashes) -- so a recorded fallback reason is identical for any
    ``jobs`` value and any lane interleaving.
    """
    if not batched_available():
        return "numpy-unavailable"
    if faults is not None:
        return "fault-plan"
    if trace is not None:
        return "trace-attached"
    if sanitizer is not None:
        return "sanitizer-attached"
    if profile is not None:
        return "profile-attached"
    return None
