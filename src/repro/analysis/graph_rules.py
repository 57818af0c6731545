"""Static-analysis rules over dataflow programs.

These port (and extend) the semantic checks that historically lived in
:mod:`repro.isa.verify`, reformulated as diagnostics so one pass
reports every problem.  Error-level rules describe programs the
simulator cannot run to completion (never-firing instructions, broken
wave orders); warnings describe legal-but-suspect shapes (dead code,
predicate misuse, matching-table pressure).

Rule ids are stable: ``G000``-``G011``.  The raising wrapper
:func:`repro.isa.verify.verify_graph` surfaces the first error-level
diagnostic from this registry.
"""

from __future__ import annotations

from collections import defaultdict, deque

from ..isa.graph import DataflowGraph
from ..isa.opcodes import Opcode
from ..isa.waves import UNKNOWN, WAVE_END, WAVE_START
from .diagnostics import Diagnostic, Severity
from .engine import TARGET_GRAPH, GraphFacts, PortTable, rule

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

#: Opcodes that legitimately produce no consumable result.
_SINK_OPCODES = frozenset({
    Opcode.OUTPUT, Opcode.THREAD_HALT, Opcode.STORE, Opcode.MEMORY_NOP,
})

#: Opcodes whose output is a 0/1 (or otherwise predicate-shaped) value.
_PREDICATE_PRODUCERS = frozenset({
    Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE,
    Opcode.FLT, Opcode.FLE, Opcode.FEQ,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT,
    Opcode.CONST, Opcode.WAVE_TO_DATA,
})

#: Value-preserving pass-throughs a predicate may legally route
#: through: identity (NOP), steers/merges (forward an input
#: unchanged), and int/float conversions (preserve zero/nonzero).
_TRANSPARENT_OPCODES = frozenset({
    Opcode.NOP, Opcode.STEER, Opcode.MERGE, Opcode.I2F, Opcode.F2I,
})


# ----------------------------------------------------------------------
# G000: structural integrity (delegates to DataflowGraph.validate)
# ----------------------------------------------------------------------
@rule("G000", "structural integrity", TARGET_GRAPH, shared=True)
def check_structure(graph: DataflowGraph, facts: GraphFacts):
    if not facts.sound:
        yield Diagnostic(
            rule="G000", severity=Severity.ERROR,
            message=facts.structure_error, source=graph.name,
            hint="the toolchain emitted a corrupt binary; rebuild the "
                 "graph through GraphBuilder",
        )


# ----------------------------------------------------------------------
# G001: never-firing inputs
# ----------------------------------------------------------------------
@rule("G001", "never-firing input port", TARGET_GRAPH, shared=True)
def check_port_coverage(graph: DataflowGraph, facts: GraphFacts):
    """Every input port needs a producer or an entry token; otherwise
    the instruction can never fire and the program deadlocks."""
    if not facts.sound:
        return
    table = facts.ports
    entry = table.entry
    for slot, fed in enumerate(table.feeders):
        if not fed and not entry[slot]:
            inst_id, port = table.port_of(slot)
            yield Diagnostic(
                rule="G001", severity=Severity.ERROR,
                message=(
                    f"port {port} of {graph[inst_id]!r} has no producer "
                    "and no entry token; instruction can never fire"
                ),
                source=graph.name, location=f"i{inst_id}",
                hint="connect a producer to the port or inject an "
                     "entry token",
            )


# ----------------------------------------------------------------------
# G002: unreachable instructions
# ----------------------------------------------------------------------
@rule("G002", "unreachable instruction", TARGET_GRAPH,
      severity=Severity.WARNING, shared=True)
def check_reachability(graph: DataflowGraph, facts: GraphFacts):
    """Instructions no entry token can ever reach are dead code: they
    occupy instruction-store slots (hurting virtualization pressure)
    but can never fire."""
    if not facts.sound or not graph.entry_tokens:
        return
    dead = [
        inst for inst, level in zip(graph.instructions, facts.levels)
        if level < 0
    ]
    for inst in dead[:16]:
        yield Diagnostic(
            rule="G002", severity=Severity.WARNING,
            message=(
                f"{inst!r} is unreachable from every entry token; it can "
                "never fire (dead code)"
            ),
            source=graph.name, location=f"i{inst.inst_id}",
            hint="delete the instruction or feed it from live code",
        )
    if len(dead) > 16:
        yield Diagnostic(
            rule="G002", severity=Severity.WARNING,
            message=f"... and {len(dead) - 16} more unreachable "
                    "instructions",
            source=graph.name,
        )


# ----------------------------------------------------------------------
# G003: dangling results
# ----------------------------------------------------------------------
@rule("G003", "dangling result", TARGET_GRAPH, severity=Severity.WARNING,
      shared=True)
def check_dangling_results(graph: DataflowGraph, facts: GraphFacts):
    """A value-producing instruction with no destinations computes a
    result nobody consumes -- almost always a toolchain slip.  NOPs
    are exempt: a destination-less NOP is the builder's deliberate
    discard sink (loop landing pads for unused exit values)."""
    if not facts.sound:
        return
    for inst, out in zip(graph.instructions, facts.ports.consumers):
        if out or inst.opcode in _SINK_OPCODES or \
                inst.opcode is Opcode.NOP:
            continue
        yield Diagnostic(
            rule="G003", severity=Severity.WARNING,
            message=(
                f"{inst!r} produces a value but has no destinations; "
                "its result is silently discarded"
            ),
            source=graph.name, location=f"i{inst.inst_id}",
            hint="route the result to a consumer or an OUTPUT, or "
                 "remove the instruction",
        )


# ----------------------------------------------------------------------
# G004-G007: wave-ordered memory
# ----------------------------------------------------------------------
def _wave_regions(graph: DataflowGraph) -> dict[int, list]:
    by_region: dict[int, list] = defaultdict(list)
    for inst in graph.memory_instructions:
        if inst.wave_annotation is not None:
            by_region[inst.wave_annotation.region].append(
                (inst.inst_id, inst.wave_annotation)
            )
    return by_region


@rule("G004", "duplicate wave sequence number", TARGET_GRAPH, shared=True)
def check_wave_duplicates(graph: DataflowGraph, facts: GraphFacts):
    if not facts.sound:
        return
    for region, anns in _wave_regions(graph).items():
        seen: dict[int, int] = {}
        for inst_id, ann in anns:
            if ann.this in seen:
                yield Diagnostic(
                    rule="G004", severity=Severity.ERROR,
                    message=(
                        f"region {region}: duplicate wave sequence number "
                        f"{ann.this} (i{seen[ann.this]} and i{inst_id})"
                    ),
                    source=graph.name, location=f"i{inst_id}",
                    hint="renumber the region so every memory op has a "
                         "unique sequence slot",
                )
            else:
                seen[ann.this] = inst_id


@rule("G005", "dangling wave-order link", TARGET_GRAPH, shared=True)
def check_wave_links(graph: DataflowGraph, facts: GraphFacts):
    if not facts.sound:
        return
    for region, anns in _wave_regions(graph).items():
        valid = {ann.this for _, ann in anns}
        for inst_id, ann in anns:
            if ann.prev not in (UNKNOWN, WAVE_START) and \
                    ann.prev not in valid:
                yield Diagnostic(
                    rule="G005", severity=Severity.ERROR,
                    message=(
                        f"region {region}: i{inst_id} names nonexistent "
                        f"predecessor sequence {ann.prev}"
                    ),
                    source=graph.name, location=f"i{inst_id}",
                    hint="the store buffer could never resolve this "
                         "link; fix the <prev, this, next> chain",
                )
            if ann.next not in (UNKNOWN, WAVE_END) and \
                    ann.next not in valid:
                yield Diagnostic(
                    rule="G005", severity=Severity.ERROR,
                    message=(
                        f"region {region}: i{inst_id} names nonexistent "
                        f"successor sequence {ann.next}"
                    ),
                    source=graph.name, location=f"i{inst_id}",
                    hint="the store buffer could never resolve this "
                         "link; fix the <prev, this, next> chain",
                )


@rule("G006", "unorderable memory operation", TARGET_GRAPH, shared=True)
def check_wave_orderable(graph: DataflowGraph, facts: GraphFacts):
    """Each memory op must be orderable: either its predecessor is
    statically known, or another op names it in its ``next`` field
    (a ripple).  Otherwise wave ordering deadlocks at runtime."""
    if not facts.sound:
        return
    for region, anns in _wave_regions(graph).items():
        rippled_to = {
            ann.next for _, ann in anns
            if ann.next not in (UNKNOWN, WAVE_END)
        }
        for inst_id, ann in anns:
            if ann.prev == UNKNOWN and ann.this not in rippled_to:
                yield Diagnostic(
                    rule="G006", severity=Severity.ERROR,
                    message=(
                        f"region {region}: i{inst_id} has unknown "
                        "predecessor and no ripple names it; wave "
                        "ordering would deadlock"
                    ),
                    source=graph.name, location=f"i{inst_id}",
                    hint="insert a MEMORY_NOP on the branch arm so the "
                         "ordering chain is gap-free",
                )


@rule("G007", "unterminable wave region", TARGET_GRAPH, shared=True)
def check_wave_terminable(graph: DataflowGraph, facts: GraphFacts):
    if not facts.sound:
        return
    for region, anns in _wave_regions(graph).items():
        if anns and not any(ann.next == WAVE_END for _, ann in anns):
            yield Diagnostic(
                rule="G007", severity=Severity.ERROR,
                message=(
                    f"region {region}: no operation carries WAVE_END; "
                    "the store buffer could never retire this wave"
                ),
                source=graph.name, location=f"region {region}",
                hint="mark the final memory operation of the region "
                     "with next=WAVE_END",
            )


# ----------------------------------------------------------------------
# G008: STEER/MERGE predicate provenance
# ----------------------------------------------------------------------
def _predicate_origin_suspect(
    graph: DataflowGraph, table: PortTable, start: int
) -> list[int]:
    """Trace the predicate operand at slot ``start`` of ``table`` back
    through value-preserving ops.

    Returns the producer ids whose values reach the predicate port
    without being predicate-shaped.  Constants and comparisons routed
    through identity/conversion ops (NOP, STEER/MERGE forwarding,
    I2F/F2I) are fine -- the historical heuristic warned on those, a
    known false positive.
    """
    suspects: list[int] = []
    seen: set[int] = set()
    work: deque[int] = deque([start])
    while work:
        slot = work.popleft()
        if slot in seen:
            continue
        seen.add(slot)
        if table.entry[slot]:
            continue  # runtime-provided value: assume well-formed
        for producer, _ in table.feeders[slot]:
            opcode = graph[producer].opcode
            if opcode in _PREDICATE_PRODUCERS:
                continue
            if opcode in _TRANSPARENT_OPCODES:
                # Follow the *data* inputs the op forwards unchanged:
                # port 0 for NOP/STEER/conversions, ports 0 and 1 for
                # MERGE (either side may be selected).
                data_ports = (0, 1) if opcode is Opcode.MERGE else (0,)
                for p in data_ports:
                    work.append(table.base[producer] + p)
                continue
            suspects.append(producer)
    return suspects


@rule("G008", "suspicious steer predicate", TARGET_GRAPH,
      severity=Severity.WARNING, shared=True)
def check_steer_predicates(graph: DataflowGraph, facts: GraphFacts):
    """STEER predicates should be 0/1 values.  An arithmetic result
    steering data is legal (nonzero = taken) but usually means the
    toolchain wired the wrong operand to the predicate port."""
    if not facts.sound:
        return
    for inst in graph.instructions:
        if inst.opcode not in (Opcode.STEER, Opcode.MERGE):
            continue
        pred_port = 1 if inst.opcode is Opcode.STEER else 2
        suspects = _predicate_origin_suspect(
            graph, facts.ports, facts.ports.base[inst.inst_id] + pred_port
        )
        for producer in suspects[:4]:
            yield Diagnostic(
                rule="G008", severity=Severity.WARNING,
                message=(
                    f"{inst.opcode.name} i{inst.inst_id} predicate "
                    f"(port {pred_port}) is fed by "
                    f"{graph[producer].opcode.name} i{producer}, which "
                    "does not produce a 0/1 value"
                ),
                source=graph.name, location=f"i{inst.inst_id}",
                hint="route the predicate through a comparison, or "
                     "swap the operand wiring if data and predicate "
                     "are crossed",
            )


# ----------------------------------------------------------------------
# G009: fan-out exceeding PE output bandwidth
# ----------------------------------------------------------------------
@rule("G009", "fan-out exceeds output bandwidth", TARGET_GRAPH,
      severity=Severity.WARNING, shared=True)
def check_fanout(graph: DataflowGraph, facts: GraphFacts):
    """The PE OUTPUT stage sends to at most MAX_FANOUT consumers per
    firing; the toolchain splits wider fan-out through NOP trees.  A
    hand-written binary exceeding the limit serialises its sends."""
    from ..lang.builder import MAX_FANOUT  # local: avoid import cycle

    if not facts.sound:
        return
    for inst_id, out in enumerate(facts.ports.consumers):
        if len(out) <= MAX_FANOUT:
            continue  # neither side can be over the limit
        inst = graph[inst_id]
        for kind, dests in (("taken", inst.dests),
                            ("not-taken", inst.false_dests)):
            if len(dests) > MAX_FANOUT:
                which = f" {kind}" if inst.false_dests else ""
                yield Diagnostic(
                    rule="G009", severity=Severity.WARNING,
                    message=(
                        f"i{inst.inst_id} ({inst.opcode.name}) has "
                        f"{len(dests)}{which} destinations, above the "
                        f"PE output-port fan-out limit of {MAX_FANOUT}"
                    ),
                    source=graph.name, location=f"i{inst.inst_id}",
                    hint="split the fan-out through a NOP relay tree "
                         "(GraphBuilder does this automatically)",
                )


# ----------------------------------------------------------------------
# G010: matching-table pressure from unbalanced rendezvous
# ----------------------------------------------------------------------
#: Path-length skew (in instructions) above which the short operand of
#: a rendezvous parks in the matching table long enough to matter.
RENDEZVOUS_SKEW_LIMIT = 24


@rule("G010", "unbalanced operand rendezvous", TARGET_GRAPH,
      severity=Severity.WARNING, shared=True)
def check_rendezvous_balance(graph: DataflowGraph, facts: GraphFacts):
    """A multi-input instruction whose operands arrive over paths of
    grossly different depth holds a matching-table row for the whole
    skew -- a >2-input chain of such waits is how programs thrash an
    undersized matching table.  Depths are computed over the acyclic
    forward skeleton (loop back-edges ignored)."""
    if not facts.sound or not graph.entry_tokens:
        return
    # A port's earliest arrival depth, counting instructions on the
    # path: 0 under an entry token, else one more than the shallowest
    # reached producer's breadth-first level.
    table, level = facts.ports, facts.levels
    base, entry, feeders = table.base, table.entry, table.feeders
    for inst_id in table.rendezvous:
        known = []
        for slot in range(base[inst_id], base[inst_id + 1]):
            if entry[slot]:
                known.append(0)
                continue
            reached = [level[src] for src, _ in feeders[slot]
                       if level[src] >= 0]
            if reached:
                known.append(1 + min(reached))
        if len(known) < 2:
            continue
        skew = max(known) - min(known)
        if skew > RENDEZVOUS_SKEW_LIMIT:
            yield Diagnostic(
                rule="G010", severity=Severity.WARNING,
                message=(
                    f"i{inst_id} ({graph[inst_id].opcode.name}) operands "
                    f"arrive {skew} instruction levels apart; the early "
                    "operand occupies a matching-table row for the "
                    "whole skew"
                ),
                source=graph.name, location=f"i{inst_id}",
                hint="rebalance the operand paths or expect "
                     "matching-table overflow on small-M configurations",
            )


# ----------------------------------------------------------------------
# G011: observability
# ----------------------------------------------------------------------
@rule("G011", "no observable outputs", TARGET_GRAPH,
      severity=Severity.WARNING, shared=True)
def check_outputs(graph: DataflowGraph, facts: GraphFacts):
    if not facts.sound:
        return
    if graph.instructions and not graph.output_instruction_ids():
        yield Diagnostic(
            rule="G011", severity=Severity.WARNING,
            message="no OUTPUT instructions; results unobservable",
            source=graph.name,
            hint="add OUTPUT sinks for the values the program computes",
        )
    if graph.instructions and not graph.entry_tokens:
        yield Diagnostic(
            rule="G011", severity=Severity.WARNING,
            message="no entry tokens; nothing can ever fire unless "
                    "tokens are injected externally",
            source=graph.name,
            hint="declare program inputs so execution can start",
        )
