"""The batched engine backend.

Executes many cells of the same workload graph in one process, one
after another (see :mod:`repro.sim.batched.core`).  It is a loop over
the engine's one hot path, so per-cell simulated results are those of
a serial run; ``tests/sim/test_batched_backend.py`` holds that for
every workload.
"""

from .core import BatchedEngine, BatchOutcome

__all__ = [
    "BatchedEngine",
    "BatchOutcome",
]
