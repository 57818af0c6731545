"""Wave-ordered memory annotations.

WaveScalar executes imperative-language programs by annotating every
memory instruction with its position in the *program order* of its wave.
Each memory operation carries a triple ``<prev, this, next>``:

* ``this`` -- the operation's own sequence number within the wave,
* ``prev`` -- the sequence number of the memory operation that
  immediately precedes it in program order, or ``UNKNOWN`` ('?') when the
  predecessor depends on a branch not yet resolved,
* ``next`` -- the successor's sequence number, or ``UNKNOWN`` when it
  depends on an untaken-yet branch.

The store buffer (repro.sim.storebuffer) uses these annotations to issue
memory operations in program order: an operation may issue once its
predecessor link is resolved, either directly (``prev`` matches the last
issued operation) or through a *ripple* (the previous operation named
this one in its ``next`` field).

Along every control path the chain of annotations must be gap-free.
:class:`repro.lang.GraphBuilder` assigns the triples itself when it
finalizes a graph, inserting MEMORY_NOP instructions on branch paths
that contain no memory operations; the assembler
(:mod:`repro.lang.assembler`) reads them from the program text.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sentinel for an unresolved predecessor/successor ('?' in the paper).
UNKNOWN = -1

#: Sequence number marking the first operation of a wave (its ``prev``).
WAVE_START = -2

#: ``next`` value marking the last operation of a wave.
WAVE_END = -3


@dataclass(frozen=True, slots=True)
class WaveAnnotation:
    """The ``<prev, this, next>`` ordering triple of one memory op.

    ``region`` identifies the static wave region (single-entry
    single-exit code between wave boundaries) the annotation belongs
    to; sequence numbers are unique *within* a region.  At runtime each
    dynamic wave executes exactly one region, so the store buffer
    disambiguates chains by dynamic wave number alone -- ``region`` is
    metadata for verification and debugging.
    """

    prev: int
    this: int
    next: int
    region: int = 0

    def __post_init__(self) -> None:
        if self.this < 0:
            raise ValueError(f"'this' must be a real sequence number: {self.this}")
        if self.prev >= self.this and self.prev not in (UNKNOWN, WAVE_START):
            raise ValueError(
                f"prev ({self.prev}) must precede this ({self.this})"
            )
        if self.next != UNKNOWN and self.next != WAVE_END and self.next <= self.this:
            raise ValueError(
                f"next ({self.next}) must follow this ({self.this})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        def show(x: int) -> str:
            if x == UNKNOWN:
                return "?"
            if x == WAVE_START:
                return "^"
            if x == WAVE_END:
                return "$"
            return str(x)

        return f"<{show(self.prev)},{show(self.this)},{show(self.next)}>"
