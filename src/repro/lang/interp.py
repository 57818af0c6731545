"""Functional reference interpreter for dataflow graphs.

Executes a :class:`~repro.isa.DataflowGraph` with unlimited resources
and zero-latency communication: pure dataflow-firing-rule semantics plus
wave-ordered memory.  It is the *architectural golden model* -- the
cycle-level simulator must produce identical program outputs and final
memory, which the integration tests assert for every workload.

The interpreter also reports dynamic statistics (instruction counts by
class, wave counts) that the workload suite uses to characterise kernel
shape independent of any microarchitecture.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from ..isa.graph import DataflowGraph
from ..isa.opcodes import Opcode
from ..isa.semantics import evaluate, steer_taken
from ..isa.token import Tag, Token, Value
from ..isa.waves import UNKNOWN, WAVE_END, WAVE_START


class DeadlockError(RuntimeError):
    """Raised when execution stops with unconsumed partial matches."""


@dataclass
class InterpResult:
    """Outcome of a reference execution."""

    outputs: dict[int, list[Value]]
    memory: dict[int, Value]
    dynamic_instructions: int
    alpha_instructions: int
    fired_by_opcode: dict[str, int]
    fired_by_inst: dict[int, int]
    waves_retired: dict[int, int]
    #: Tokens delivered per static edge: ``(src, dst, dst_port) ->
    #: count``.  Architectural (config-independent), so the static
    #: bound analyzer can use it as an exact dynamic profile.
    sent_by_edge: dict[tuple[int, int, int], int] = field(
        default_factory=dict
    )

    def output_values(self) -> list[Value]:
        """All OUTPUT-instruction values, ordered by (inst id, arrival)."""
        result = []
        for inst_id in sorted(self.outputs):
            result.extend(self.outputs[inst_id])
        return result


@dataclass
class _WaveChain:
    """Wave-ordering state for one (thread, wave) in the memory model."""

    pending: dict[int, tuple[int, Value, Value]] = field(default_factory=dict)
    last_issued: int = WAVE_START
    last_next: int = UNKNOWN
    complete: bool = False


class _OrderedMemory:
    """Sequentially consistent wave-ordered memory for the interpreter.

    Memory operations arrive (possibly out of order) tagged with
    ``(thread, wave)`` and their static annotation; each thread's waves
    issue strictly in order, and within a wave the ``<prev, this,
    next>`` chain dictates issue order exactly as in the hardware store
    buffer.
    """

    def __init__(self, graph: DataflowGraph, initial: dict[int, Value]):
        self._graph = graph
        self.data: dict[int, Value] = dict(initial)
        self._chains: dict[tuple[int, int], _WaveChain] = {}
        self._expected_wave: dict[int, int] = {}
        self.waves_retired: dict[int, int] = defaultdict(int)
        #: (inst_id, tag-thread, tag-wave, value) results ready to return
        self.completions: deque[tuple[int, int, int, Value]] = deque()

    def submit(
        self, inst_id: int, thread: int, wave: int, addr: Value, data: Value
    ) -> None:
        ann = self._graph[inst_id].wave_annotation
        assert ann is not None
        chain = self._chains.setdefault((thread, wave), _WaveChain())
        if ann.this in chain.pending:
            raise DeadlockError(
                f"duplicate memory op seq {ann.this} in thread {thread} "
                f"wave {wave} (i{inst_id})"
            )
        chain.pending[ann.this] = (inst_id, addr, data)
        self._expected_wave.setdefault(thread, 0)
        self._drain(thread)

    def _drain(self, thread: int) -> None:
        while True:
            wave = self._expected_wave[thread]
            chain = self._chains.get((thread, wave))
            if chain is None:
                return
            progressed = self._drain_chain(thread, wave, chain)
            if chain.complete:
                del self._chains[(thread, wave)]
                self._expected_wave[thread] = wave + 1
                self.waves_retired[thread] = wave + 1
                continue
            if not progressed:
                return

    def _drain_chain(self, thread: int, wave: int, chain: _WaveChain) -> bool:
        progressed = False
        while True:
            ready_seq = self._next_ready(chain)
            if ready_seq is None:
                return progressed
            inst_id, addr, data = chain.pending.pop(ready_seq)
            inst = self._graph[inst_id]
            ann = inst.wave_annotation
            assert ann is not None
            if inst.opcode is Opcode.LOAD:
                value = self.data.get(int(addr), 0)
                self.completions.append((inst_id, thread, wave, value))
            elif inst.opcode is Opcode.STORE:
                self.data[int(addr)] = data
                self.completions.append((inst_id, thread, wave, data))
            else:  # MEMORY_NOP
                self.completions.append((inst_id, thread, wave, addr))
            chain.last_issued = ann.this
            chain.last_next = ann.next
            progressed = True
            if ann.next == WAVE_END:
                chain.complete = True
                return progressed

    def _next_ready(self, chain: _WaveChain) -> int | None:
        for seq, (inst_id, _, _) in chain.pending.items():
            ann = self._graph[inst_id].wave_annotation
            assert ann is not None
            if chain.last_issued == WAVE_START:
                if ann.prev == WAVE_START:
                    return seq
            elif ann.prev == chain.last_issued:
                return seq
            elif chain.last_next == ann.this:
                return seq
        return None

    def stuck_report(self) -> str:
        lines = []
        for (thread, wave), chain in sorted(self._chains.items()):
            if chain.pending:
                ops = ", ".join(
                    f"i{i}<seq {s}>" for s, (i, _, _) in
                    sorted(chain.pending.items())
                )
                lines.append(
                    f"  thread {thread} wave {wave} "
                    f"(expected wave {self._expected_wave.get(thread)}; "
                    f"last issued {chain.last_issued}): {ops}"
                )
        return "\n".join(lines)


def interpret(
    graph: DataflowGraph,
    max_firings: int = 50_000_000,
) -> InterpResult:
    """Execute ``graph`` to completion under ideal dataflow semantics.

    Raises :class:`DeadlockError` if execution stops while operands or
    memory operations remain buffered.
    """
    matching: dict[tuple[int, int, int], dict[int, Value]] = {}
    worklist: deque[Token] = deque(graph.entry_tokens)
    memory = _OrderedMemory(graph, graph.initial_memory)
    outputs: dict[int, list[Value]] = defaultdict(list)
    fired: dict[str, int] = defaultdict(int)
    fired_inst: dict[int, int] = defaultdict(int)
    dynamic = 0
    alpha = 0

    sent_by_edge: dict[tuple[int, int, int], int] = defaultdict(int)

    def send(inst_id: int, thread: int, wave: int, value: Value,
             taken: bool) -> None:
        inst = graph[inst_id]
        dests = inst.dests if taken else inst.false_dests
        for dest in dests:
            sent_by_edge[(inst_id, dest.inst, dest.port)] += 1
            worklist.append(
                Token(Tag(thread, wave, dest.inst, dest.port), value)
            )

    firings = 0
    while worklist or memory.completions:
        while memory.completions:
            inst_id, thread, wave, value = memory.completions.popleft()
            send(inst_id, thread, wave, value, taken=True)
        if not worklist:
            break
        token = worklist.popleft()
        key = token.tag.match_key()
        inst = graph[token.inst]
        slot = matching.setdefault(key, {})
        if token.port in slot:
            raise DeadlockError(
                f"operand collision at {token.tag!r}: port already full "
                "(missing wave advance?)"
            )
        slot[token.port] = token.value
        if len(slot) < inst.arity:
            continue

        # Fire.
        del matching[key]
        operands = [slot[p] for p in range(inst.arity)]
        firings += 1
        if firings > max_firings:
            raise DeadlockError(
                f"{graph.name}: exceeded {max_firings} firings; "
                "probable livelock (unbounded loop?)"
            )
        dynamic += 1
        fired[inst.opcode.name] += 1
        fired_inst[inst.inst_id] += 1
        if inst.opcode.alpha_equivalent:
            alpha += 1

        thread, wave = token.thread, token.wave
        if inst.opcode.is_memory:
            if inst.opcode is Opcode.STORE:
                memory.submit(
                    inst.inst_id, thread, wave, operands[0], operands[1]
                )
            else:
                memory.submit(
                    inst.inst_id, thread, wave, operands[0], operands[0]
                )
            continue
        if inst.opcode is Opcode.OUTPUT:
            outputs[inst.inst_id].append(operands[0])
            continue
        if inst.opcode is Opcode.THREAD_HALT:
            continue

        value = evaluate(inst.opcode, operands, inst.immediate)
        if inst.opcode is Opcode.STEER:
            send(inst.inst_id, thread, wave, value,
                 taken=steer_taken(operands))
        elif inst.opcode is Opcode.WAVE_ADVANCE:
            send(inst.inst_id, thread, wave + 1, value, taken=True)
        elif inst.opcode is Opcode.THREAD_SPAWN:
            assert inst.immediate is not None
            send(inst.inst_id, int(inst.immediate), 0, value, taken=True)
        else:
            send(inst.inst_id, thread, wave, value, taken=True)

    leftovers = {
        key: sorted(slot) for key, slot in matching.items() if slot
    }
    stuck_mem = memory.stuck_report()
    if leftovers or stuck_mem:
        detail = ""
        if leftovers:
            sample = list(leftovers.items())[:8]
            pretty = ", ".join(
                f"t{t}.w{w}.i{i}(ports {p})" for (t, w, i), p in sample
            )
            detail += f"\n  partial matches: {pretty}"
        if stuck_mem:
            detail += f"\n  stuck memory ops:\n{stuck_mem}"
        raise DeadlockError(f"{graph.name}: deadlocked{detail}")

    return InterpResult(
        outputs=dict(outputs),
        memory=memory.data,
        dynamic_instructions=dynamic,
        alpha_instructions=alpha,
        fired_by_opcode=dict(fired),
        fired_by_inst=dict(fired_inst),
        waves_retired=dict(memory.waves_retired),
        sent_by_edge=dict(sent_by_edge),
    )
