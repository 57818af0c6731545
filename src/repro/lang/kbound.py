"""k-loop bounding pass.

WaveScalar restricts the number of dynamic instances of a loop that may
be in flight simultaneously with *k-loop bounding* [Culler & Arvind,
ISCA'88]: at most ``k`` input instances may accumulate for a single
static instruction.  The paper tunes ``k`` per application (Table 4) by
sweeping it against an infinite matching table.

In this reproduction the bound is carried in the immediate of every
back-edge WAVE_ADVANCE instruction (``None`` means unbounded); the
simulator's wave-advance unit delays issuing wave ``w+1`` tokens until
wave ``w+1-k`` has retired at the store buffer.  This pass rewrites
those immediates, so a single built graph can be re-bounded cheaply for
the Table 4 sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..isa.graph import DataflowGraph
from ..isa.opcodes import Opcode


def backedge_ids(graph: DataflowGraph) -> list[int]:
    """Static ids of back-edge WAVE_ADVANCE instructions.

    Back edges are recognised structurally: a WAVE_ADVANCE (a) whose
    input is the *true* side of a STEER (the loop-continue path) and
    (b) whose destination is a loop-header NOP fed by at least two
    WAVE_ADVANCE instructions (the loop-entry advance plus the back
    edge).  The builder's ``*.back.*`` labels are not relied upon, so
    the pass also works on assembled programs without labels.
    """
    # For every (dest inst, port): which producers feed it, and on
    # which steer side.
    advance_feeds: dict[tuple[int, int], int] = {}
    fed_from_steer_true: dict[tuple[int, int], bool] = {}
    for inst in graph.instructions:
        from_steer_true = inst.opcode is Opcode.STEER
        for dest in inst.dests:
            key = (dest.inst, dest.port)
            if inst.opcode is Opcode.WAVE_ADVANCE:
                advance_feeds[key] = advance_feeds.get(key, 0) + 1
            if from_steer_true:
                fed_from_steer_true[key] = True
        if inst.opcode is Opcode.WAVE_ADVANCE:
            for dest in inst.false_dests:
                key = (dest.inst, dest.port)
                advance_feeds[key] = advance_feeds.get(key, 0) + 1

    result = []
    for inst in graph.instructions:
        if inst.opcode is not Opcode.WAVE_ADVANCE:
            continue
        if not fed_from_steer_true.get((inst.inst_id, 0), False):
            continue  # entry or exit advance
        is_back = any(
            advance_feeds.get((dest.inst, dest.port), 0) >= 2
            and graph[dest.inst].opcode is Opcode.NOP
            for dest in inst.all_dests
        )
        if is_back:
            result.append(inst.inst_id)
    return result


def check_k_bound(k: Optional[int]) -> None:
    """Raise ``ValueError`` unless ``k`` is a legal loop bound: ``None``
    (unbounded) or >= 1 (at least one iteration must be allowed in
    flight)."""
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def set_k_bound(graph: DataflowGraph, k: Optional[int]) -> DataflowGraph:
    """Return a copy of ``graph`` with every loop bounded to ``k``.

    ``k=None`` removes all bounds; otherwise ``k`` must be >= 1
    (:func:`check_k_bound`).
    """
    check_k_bound(k)
    targets = set(backedge_ids(graph))
    instructions = []
    for inst in graph.instructions:
        if inst.inst_id in targets:
            instructions.append(dataclasses.replace(inst, immediate=k))
        else:
            instructions.append(inst)
    return DataflowGraph(
        instructions=instructions,
        entry_tokens=list(graph.entry_tokens),
        initial_memory=dict(graph.initial_memory),
        threads=list(graph.threads),
        name=graph.name,
    )


def k_bound_of(graph: DataflowGraph) -> Optional[int]:
    """The common k bound of the graph's loops (None if unbounded or
    no loops; raises if loops carry inconsistent bounds)."""
    bounds = {
        graph[i].immediate for i in backedge_ids(graph)
    }
    if not bounds:
        return None
    if len(bounds) > 1:
        raise ValueError(f"inconsistent k bounds in {graph.name}: {bounds}")
    value = bounds.pop()
    return int(value) if value is not None else None
