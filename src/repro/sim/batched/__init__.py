"""The batched lockstep engine backend.

Executes many cells of the same workload graph in one process,
interleaved cycle-major over a shared frontier (see
:mod:`repro.sim.batched.core`).  It is a scheduler over the engine's
one hot path, so per-cell simulated results are those of a serial
run; ``tests/sim/test_batched_backend.py`` holds that for every
workload, with quanta that interrupt each cell mid-run.
"""

from .core import (
    LOCKSTEP_QUANTUM,
    BatchedEngine,
    BatchOutcome,
)

__all__ = [
    "BatchedEngine",
    "BatchOutcome",
    "LOCKSTEP_QUANTUM",
]
