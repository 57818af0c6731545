"""Dataflow graph builder: an embedded DSL for WaveScalar programs.

The original paper compiles DEC Alpha binaries to WaveScalar assembly
with a binary translator.  Without that toolchain, workloads in this
reproduction are written directly against :class:`GraphBuilder`, which
produces the same artifact the translator would: a
:class:`repro.isa.DataflowGraph` with steers for control flow,
WAVE_ADVANCE instructions at wave boundaries, and gap-free wave-ordered
memory annotations.

Wave discipline
---------------
WaveScalar tokens match on ``(thread, wave, instruction)``.  The builder
therefore partitions each thread's code into *regions*; a region is the
single-entry single-exit code between two wave boundaries (loop entry,
loop back-edge, loop exit) and executes entirely within one dynamic
wave.  Two rules keep programs wave-consistent, and the builder enforces
both:

1. An instruction may only consume values produced in the *current*
   region.  Values that must cross a loop boundary are threaded through
   the loop as carried or invariant state (which routes them through
   WAVE_ADVANCE instructions).
2. Every region's memory operations form one gap-free wave-ordering
   chain.  Regions that perform no memory operation receive an automatic
   MEMORY_NOP so that, per thread, the store buffer observes a
   contiguous sequence of waves (this mirrors the paper's use of
   MEMORY_NOPs to close ordering gaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..isa.graph import DataflowGraph, ThreadInfo
from ..isa.instruction import Dest, Instruction
from ..isa.opcodes import Opcode
from ..isa.token import Token, make_token
from ..isa.waves import UNKNOWN, WAVE_END, WAVE_START, WaveAnnotation

#: Maximum destinations encodable in one instruction word; larger
#: fan-out is realised with automatically inserted NOP trees.
MAX_FANOUT = 4


class BuildError(ValueError):
    """Raised when a program violates the builder's wave discipline."""


@dataclass(frozen=True, slots=True)
class Node:
    """Handle for one value stream (an instruction output side)."""

    inst: int
    true_side: bool
    region: int
    thread: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        side = "" if self.true_side else ".F"
        return f"n{self.inst}{side}@r{self.region}"


@dataclass(slots=True, eq=False)
class _MemRec:
    """Mutable wave-ordering record for one memory instruction."""

    inst: int
    this: int
    region: int = 0
    prev: int = UNKNOWN
    next: int = UNKNOWN
    next_ambiguous: bool = False


@dataclass(slots=True)
class _Region:
    """Build-time state for one wave region of one thread."""

    region_id: int
    thread: int
    seq_counter: int = 0
    cursor: list[_MemRec] = field(default_factory=list)
    mem_ops: list[_MemRec] = field(default_factory=list)
    trigger: Optional[Node] = None
    closed: bool = False


class GraphBuilder:
    """Constructs a :class:`DataflowGraph` program.

    Typical use::

        b = GraphBuilder("dot")
        base = b.data("v", [1, 2, 3, 4])
        t = b.entry(0)
        n = b.const(4, trigger=t)
        lp = b.loop([b.const(0, t), b.const(0, t)], invariants=[n])
        i, acc = lp.state
        (n_in,) = lp.invariants
        x = b.load(b.add(b.const(base, i), i))
        i2 = b.add(i, b.const(1, i))
        lp.next_iteration(b.lt(i2, n_in), [i2, b.add(acc, x)])
        _, total, _ = lp.end()
        b.output(total)
        graph = b.finalize()
    """

    def __init__(self, name: str = "anonymous") -> None:
        self.name = name
        self._opcodes: list[Opcode] = []
        self._immediates: list[Optional[int | float]] = []
        self._labels: list[str] = []
        self._inst_thread: list[int] = []
        self._edges_true: dict[int, list[tuple[int, int]]] = {}
        self._edges_false: dict[int, list[tuple[int, int]]] = {}
        self._mem_recs: dict[int, _MemRec] = {}
        self._entry_tokens: list[Token] = []
        self._initial_memory: dict[int, int | float] = {}
        self._heap_top = 0
        self._data_bases: dict[str, int] = {}

        self._regions: list[_Region] = []
        self._region_counter = 0
        self._current: _Region = self._new_region(thread=0)
        self._cond_depth = 0
        self._finalized = False
        self._thread_parents: dict[int, _Region] = {}

    # ==================================================================
    # Region bookkeeping
    # ==================================================================
    def _new_region(self, thread: int) -> _Region:
        region = _Region(region_id=self._region_counter, thread=thread)
        self._region_counter += 1
        self._regions.append(region)
        return region

    def _close_region(self, region: _Region) -> None:
        """Terminate a region's wave-ordering chain.

        Regions with no memory operations get an automatic MEMORY_NOP so
        every dynamic wave presents exactly one chain (ending in
        WAVE_END) to the store buffer.
        """
        if region.closed:
            raise BuildError(f"region {region.region_id} closed twice")
        if not region.mem_ops:
            if region.trigger is None:
                raise BuildError(
                    f"region {region.region_id} has no unconditional value "
                    "to trigger its closing MEMORY_NOP"
                )
            saved = self._current
            self._current = region
            region.closed = False  # re-open briefly for the nop emit
            self.memory_nop(region.trigger)
            self._current = saved
        for rec in region.cursor:
            if not rec.next_ambiguous and rec.next == UNKNOWN:
                rec.next = WAVE_END
        region.closed = True

    def _use(self, node: Node) -> Node:
        """Validate that ``node`` is legal to consume here."""
        if node.region != self._current.region_id:
            raise BuildError(
                f"value {node!r} crosses a wave boundary into region "
                f"{self._current.region_id}; thread it through the loop as "
                "carried or invariant state"
            )
        if node.thread != self._current.thread:
            raise BuildError(
                f"value {node!r} belongs to thread {node.thread}, not "
                f"thread {self._current.thread}; use spawn/end_thread"
            )
        return node

    # ==================================================================
    # Raw emission
    # ==================================================================
    def _emit(
        self,
        opcode: Opcode,
        inputs: Sequence[Node],
        immediate: Optional[int | float] = None,
        label: str = "",
        check_inputs: bool = True,
        new_region: Optional[_Region] = None,
        allow_underfed: bool = False,
    ) -> Node:
        """Create one instruction and wire its inputs.

        ``new_region`` is used internally by wave-advancing constructs:
        the created instruction consumes values from the current region
        but its *output* belongs to ``new_region``.  ``allow_underfed``
        permits ports to be fed later (entry tokens, join wiring).
        """
        if self._finalized:
            raise BuildError("builder already finalized")
        if len(inputs) != opcode.arity and not (
            allow_underfed and len(inputs) < opcode.arity
        ):
            raise BuildError(
                f"{opcode.name} needs {opcode.arity} inputs, got {len(inputs)}"
            )
        inst_id = len(self._opcodes)
        self._opcodes.append(opcode)
        self._immediates.append(immediate)
        self._labels.append(label)
        self._inst_thread.append(self._current.thread)
        for port, node in enumerate(inputs):
            if check_inputs:
                self._use(node)
            edges = (
                self._edges_true if node.true_side else self._edges_false
            )
            edges.setdefault(node.inst, []).append((inst_id, port))

        out_region = new_region if new_region is not None else self._current
        node_out = Node(
            inst=inst_id,
            true_side=True,
            region=out_region.region_id,
            thread=out_region.thread,
        )
        if opcode.is_memory:
            self._sequence_memory_op(inst_id)
        # Track a region trigger for auto-inserted MEMORY_NOPs: it must
        # fire unconditionally (not inside an if_else arm) and actually
        # produce a token (OUTPUT and THREAD_HALT are sinks; STEER's
        # true side fires only when the predicate is true).
        produces_output = opcode not in (
            Opcode.OUTPUT,
            Opcode.THREAD_HALT,
            Opcode.STEER,
        )
        if self._cond_depth == 0 and new_region is None and produces_output:
            self._current.trigger = node_out
        return node_out

    def _sequence_memory_op(self, inst_id: int) -> None:
        """Assign a wave-ordering record to a freshly emitted memory op."""
        region = self._current
        if region.closed:
            raise BuildError(
                f"memory op emitted into closed region {region.region_id}"
            )
        rec = _MemRec(
            inst=inst_id, this=region.seq_counter, region=region.region_id
        )
        region.seq_counter += 1
        cursor = region.cursor
        if not cursor:
            rec.prev = WAVE_START
        elif len(cursor) == 1 and not cursor[0].next_ambiguous:
            rec.prev = cursor[0].this
            cursor[0].next = rec.this
        else:
            # Post-join (or ambiguous-next predecessor): ripple forward.
            rec.prev = UNKNOWN
            for pred in cursor:
                if not pred.next_ambiguous:
                    pred.next = rec.this
            if all(pred.next_ambiguous for pred in cursor):
                raise BuildError(
                    "memory op follows a fork with no join NOPs; "
                    "this indicates a builder bug"
                )
        region.cursor = [rec]
        region.mem_ops.append(rec)
        self._mem_recs[inst_id] = rec

    # ==================================================================
    # Data segment
    # ==================================================================
    def data(
        self, name: str, values: Sequence[int | float], stride: int = 1
    ) -> int:
        """Place an initialised array in memory; returns its base address.

        Addresses are in 64-bit words; the cache hierarchy maps 16
        consecutive words to one 128-byte line.  ``stride`` spaces the
        elements ``stride`` words apart -- used to model records larger
        than one word (element i lives at ``base + i*stride``), which
        determines the array's cache footprint.
        """
        return self.alloc(name, len(values), init=values, stride=stride)

    def alloc(
        self,
        name: str,
        size: int,
        init: Optional[Sequence[int | float]] = None,
        stride: int = 1,
    ) -> int:
        """Reserve ``size`` elements spaced ``stride`` words apart;
        returns the base address."""
        if name in self._data_bases:
            raise BuildError(f"data segment {name!r} already allocated")
        if size <= 0:
            raise BuildError(f"allocation {name!r} must be positive, got {size}")
        if stride < 1:
            raise BuildError(f"stride must be >= 1, got {stride}")
        base = self._heap_top
        values = init if init is not None else [0] * size
        if len(values) != size:
            raise BuildError(
                f"init for {name!r} has {len(values)} values, expected {size}"
            )
        for offset, value in enumerate(values):
            if value != 0:
                self._initial_memory[base + offset * stride] = value
        # Round segments to cache-line (16-word) boundaries so arrays
        # don't share lines; this mirrors typical allocator behaviour and
        # makes coherence traffic attributable.
        words = size * stride
        self._heap_top = base + ((words + 15) // 16) * 16
        self._data_bases[name] = base
        return base

    def base_of(self, name: str) -> int:
        return self._data_bases[name]

    # ==================================================================
    # Entry points and constants
    # ==================================================================
    def entry(self, value: int | float = 0) -> Node:
        """Declare a program input delivered at cycle 0 (wave 0)."""
        if self._current.thread != 0 or self._current.region_id != 0:
            raise BuildError("entries may only be created in the master region")
        node = self._emit(
            Opcode.NOP, [], label="entry", check_inputs=False,
            allow_underfed=True,
        )
        # NOP has arity 1; feed its single port from an entry token.
        self._entry_tokens.append(
            make_token(thread=0, wave=0, inst=node.inst, port=0, value=value)
        )
        return node

    def const(
        self, value: int | float, trigger: Optional[Node] = None
    ) -> Node:
        """Produce ``value`` each time ``trigger`` delivers a token.

        With no explicit trigger the region's current unconditional
        trigger is used.
        """
        if trigger is None:
            trigger = self._current.trigger
        if trigger is None:
            raise BuildError("const needs a trigger in an empty region")
        return self._emit(
            Opcode.CONST, [trigger], immediate=value, label=f"#{value}"
        )

    def nop(self, value: Node, label: str = "") -> Node:
        """Forward ``value`` unchanged (fan-out / join glue)."""
        return self._emit(Opcode.NOP, [value], label=label)

    # ==================================================================
    # Arithmetic (generated helpers)
    # ==================================================================
    def _binop(self, opcode: Opcode, a: Node, b: Node) -> Node:
        return self._emit(opcode, [a, b])

    def _unop(self, opcode: Opcode, a: Node) -> Node:
        return self._emit(opcode, [a])

    def add(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.ADD, a, b)

    def sub(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.SUB, a, b)

    def mul(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.MUL, a, b)

    def div(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.DIV, a, b)

    def mod(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.MOD, a, b)

    def and_(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.AND, a, b)

    def or_(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.OR, a, b)

    def xor(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.XOR, a, b)

    def not_(self, a: Node) -> Node:
        return self._unop(Opcode.NOT, a)

    def shl(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.SHL, a, b)

    def shr(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.SHR, a, b)

    def sar(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.SAR, a, b)

    def neg(self, a: Node) -> Node:
        return self._unop(Opcode.NEG, a)

    def abs_(self, a: Node) -> Node:
        return self._unop(Opcode.ABS, a)

    def min_(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.MIN, a, b)

    def max_(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.MAX, a, b)

    def eq(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.EQ, a, b)

    def ne(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.NE, a, b)

    def lt(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.LT, a, b)

    def le(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.LE, a, b)

    def gt(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.GT, a, b)

    def ge(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.GE, a, b)

    def fadd(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FADD, a, b)

    def fsub(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FSUB, a, b)

    def fmul(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FMUL, a, b)

    def fdiv(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FDIV, a, b)

    def fsqrt(self, a: Node) -> Node:
        return self._unop(Opcode.FSQRT, a)

    def fneg(self, a: Node) -> Node:
        return self._unop(Opcode.FNEG, a)

    def fabs_(self, a: Node) -> Node:
        return self._unop(Opcode.FABS, a)

    def flt(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FLT, a, b)

    def fle(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FLE, a, b)

    def feq(self, a: Node, b: Node) -> Node:
        return self._binop(Opcode.FEQ, a, b)

    def i2f(self, a: Node) -> Node:
        return self._unop(Opcode.I2F, a)

    def f2i(self, a: Node) -> Node:
        return self._unop(Opcode.F2I, a)

    # ==================================================================
    # Memory
    # ==================================================================
    def load(self, addr: Node) -> Node:
        return self._emit(Opcode.LOAD, [addr])

    def store(self, addr: Node, value: Node) -> Node:
        """Emit a store; the returned node is the store's acknowledgement
        value (the stored data), usable for explicit ordering chains."""
        return self._emit(Opcode.STORE, [addr, value])

    def memory_nop(self, trigger: Node, label: str = "mnop") -> Node:
        return self._emit(Opcode.MEMORY_NOP, [trigger], label=label)

    # ==================================================================
    # Control flow
    # ==================================================================
    def steer(self, value: Node, pred: Node) -> tuple[Node, Node]:
        """Raw steer: returns the (true-side, false-side) streams."""
        node = self._emit(Opcode.STEER, [value, pred])
        true_node = node
        false_node = Node(
            inst=node.inst,
            true_side=False,
            region=node.region,
            thread=node.thread,
        )
        return true_node, false_node

    def merge_select(self, a: Node, b: Node, pred: Node) -> Node:
        """Strict select: all three inputs arrive; forwards a or b."""
        return self._emit(Opcode.MERGE, [a, b, pred])

    def if_else(self, pred: Node, values: Sequence[Node]) -> "IfElse":
        """Open a conditional region over ``values``.

        See :class:`IfElse`.  ``values`` must be non-empty (the arms need
        at least one steered token to trigger conditional work).
        """
        if not values:
            raise BuildError("if_else requires at least one steered value")
        pred = self._use(pred)
        values = [self._use(v) for v in values]
        cursor = self._current.cursor
        if len(cursor) > 1 or any(rec.next_ambiguous for rec in cursor):
            # Fork directly after a join: the join's multiple chain
            # tails cannot each ripple to the new fork's alternative
            # heads (``next`` is single-valued), so a MEMORY_NOP
            # serialises the chain first -- the same NOP a wave-ordered
            # memory compiler must insert.  Its trigger fires exactly
            # when this conditional executes.
            self.memory_nop(values[0], label="fork.mnop")
        return IfElse(self, pred, values)

    def loop(
        self,
        carried: Sequence[Node],
        invariants: Sequence[Node] = (),
        k: Optional[int] = None,
        label: str = "loop",
    ) -> "Loop":
        """Open a loop whose body runs one wave per iteration.

        ``carried`` values are rebound by :meth:`Loop.next_iteration`;
        ``invariants`` pass through unchanged.  ``k`` bounds the number
        of in-flight iterations (k-loop bounding [Culler88]); ``None``
        leaves the loop unbounded.
        """
        if not carried:
            raise BuildError("loop requires at least one carried value")
        return Loop(self, list(carried), list(invariants), k, label)

    # ==================================================================
    # Threads
    # ==================================================================
    def spawn_thread(
        self, thread_id: int, values: Sequence[Node]
    ) -> list[Node]:
        """Retag ``values`` into thread ``thread_id`` (wave 0) and switch
        the builder into that thread's entry region.

        Must later be matched by :meth:`end_thread`.
        """
        if thread_id == self._current.thread:
            raise BuildError(f"thread {thread_id} would spawn into itself")
        if thread_id in self._thread_parents:
            raise BuildError(f"thread {thread_id} already open")
        if not values:
            raise BuildError("spawn_thread needs at least one seed value")
        parent = self._current
        region = self._new_region(thread=thread_id)
        spawned = []
        for i, value in enumerate(values):
            node = self._emit(
                Opcode.THREAD_SPAWN,
                [value],
                immediate=thread_id,
                label=f"spawn.t{thread_id}.{i}",
                new_region=region,
            )
            spawned.append(node)
        self._current = region
        region.trigger = spawned[0]
        self._thread_parents[thread_id] = parent
        return spawned

    def end_thread(self, result: Node) -> Node:
        """Close the current thread, retagging ``result`` back to the
        parent (master) context; returns the master-side node."""
        region = self._current
        parent = self._thread_parents.pop(region.thread, None)
        if parent is None:
            raise BuildError("end_thread without matching spawn_thread")
        self._use(result)
        self._close_region(region)
        node = self._emit(
            Opcode.THREAD_SPAWN,
            [result],
            immediate=parent.thread,
            label=f"join.t{region.thread}",
            check_inputs=False,
            new_region=parent,
        )
        self._current = parent
        return node

    # ==================================================================
    # Outputs and finalisation
    # ==================================================================
    def output(self, value: Node, label: str = "out") -> Node:
        """Mark ``value`` as a program output (observable result)."""
        return self._emit(Opcode.OUTPUT, [value], label=label)

    def finalize(self, verify: bool = True) -> DataflowGraph:
        """Close open regions, expand fan-out, and build the binary."""
        if self._finalized:
            raise BuildError("finalize called twice")
        if self._thread_parents:
            raise BuildError(
                f"{len(self._thread_parents)} thread(s) not closed with "
                "end_thread"
            )
        if self._cond_depth:
            raise BuildError("finalize inside an open if_else arm")
        self._close_region(self._current)
        self._expand_fanout()
        self._finalized = True

        instructions = []
        for inst_id, opcode in enumerate(self._opcodes):
            rec = self._mem_recs.get(inst_id)
            annotation = None
            if rec is not None:
                annotation = WaveAnnotation(
                    prev=rec.prev,
                    this=rec.this,
                    next=rec.next,
                    region=rec.region,
                )
            instructions.append(
                Instruction(
                    inst_id=inst_id,
                    opcode=opcode,
                    dests=tuple(
                        Dest(i, p) for i, p in self._edges_true.get(inst_id, [])
                    ),
                    false_dests=tuple(
                        Dest(i, p)
                        for i, p in self._edges_false.get(inst_id, [])
                    ),
                    immediate=self._immediates[inst_id],
                    wave_annotation=annotation,
                    label=self._labels[inst_id],
                )
            )

        threads: dict[int, list[int]] = {}
        for inst_id, thread in enumerate(self._inst_thread):
            threads.setdefault(thread, []).append(inst_id)
        thread_infos = [
            ThreadInfo(thread_id=t, instructions=tuple(ids))
            for t, ids in sorted(threads.items())
        ]

        graph = DataflowGraph(
            instructions=instructions,
            entry_tokens=list(self._entry_tokens),
            initial_memory=dict(self._initial_memory),
            threads=thread_infos,
            name=self.name,
        )
        if verify:
            from ..isa.verify import verify_graph

            verify_graph(graph)
        return graph

    def _expand_fanout(self) -> None:
        """Split destinations beyond MAX_FANOUT through NOP trees."""
        work = list(range(len(self._opcodes)))
        while work:
            inst_id = work.pop()
            for edges in (self._edges_true, self._edges_false):
                dests = edges.get(inst_id, [])
                if len(dests) <= MAX_FANOUT:
                    continue
                # Keep MAX_FANOUT - 1 real destinations, push the rest
                # through a relay NOP (which may itself be split again).
                keep = dests[: MAX_FANOUT - 1]
                rest = dests[MAX_FANOUT - 1 :]
                relay_id = len(self._opcodes)
                self._opcodes.append(Opcode.NOP)
                self._immediates.append(None)
                self._labels.append(f"fanout.i{inst_id}")
                self._inst_thread.append(self._inst_thread[inst_id])
                edges[inst_id] = keep + [(relay_id, 0)]
                self._edges_true[relay_id] = rest
                work.append(relay_id)
                work.append(inst_id)
                break  # edges mutated; revisit this instruction


# ----------------------------------------------------------------------
# Control-flow helpers
# ----------------------------------------------------------------------
class IfElse:
    """A structured conditional.

    Usage::

        br = b.if_else(pred, [x, y])
        tx, ty = br.then_values()
        br.then_result([b.add(tx, ty)])
        fx, fy = br.else_values()
        br.else_result([fx])
        (merged,) = br.end()

    Each arm's body must consume only its own steered values (plus
    constants triggered by them).  Results of the two arms are joined
    through shared NOPs, so downstream code sees a single stream.

    The conditional keeps wave-ordering sound across arms: if one arm
    performs memory operations and the other does not, the empty arm
    receives an automatic MEMORY_NOP so the ordering chain resolves on
    both paths.
    """

    def __init__(self, b: GraphBuilder, pred: Node, values: list[Node]) -> None:
        self._b = b
        self._true_vals: list[Node] = []
        self._false_vals: list[Node] = []
        for value in values:
            t, f = b.steer(value, pred)
            self._true_vals.append(t)
            self._false_vals.append(f)
        region = b._current
        self._region = region
        self._fork_cursor = list(region.cursor)
        self._fork_counter_ops = len(region.mem_ops)
        # The op immediately before the fork can no longer name its
        # successor statically if either arm emits memory ops.
        self._then_results: Optional[list[Node]] = None
        self._else_results: Optional[list[Node]] = None
        self._then_last: list[_MemRec] = []
        self._else_last: list[_MemRec] = []
        self._then_had_ops = False
        self._else_had_ops = False
        self._state = "open"

    # -- then arm ------------------------------------------------------
    def then_values(self) -> list[Node]:
        if self._state != "open":
            raise BuildError(f"then_values in state {self._state}")
        self._state = "then"
        self._b._cond_depth += 1
        self._arm_start()
        return list(self._true_vals)

    def then_result(self, results: Sequence[Node]) -> None:
        if self._state != "then":
            raise BuildError("then_result without then_values")
        self._then_had_ops, self._then_last = self._arm_end(
            self._true_vals[0], self._then_had_ops_pending()
        )
        self._then_results = [self._b._use(r) for r in results]
        self._b._cond_depth -= 1
        self._state = "mid"

    # -- else arm ------------------------------------------------------
    def else_values(self) -> list[Node]:
        if self._state != "mid":
            raise BuildError("else_values before then_result")
        self._state = "else"
        self._b._cond_depth += 1
        self._arm_start()
        return list(self._false_vals)

    def else_result(self, results: Sequence[Node]) -> None:
        if self._state != "else":
            raise BuildError("else_result without else_values")
        self._else_had_ops, self._else_last = self._arm_end(
            self._false_vals[0], self._else_had_ops_pending()
        )
        self._else_results = [self._b._use(r) for r in results]
        self._b._cond_depth -= 1
        self._state = "done"

    # -- join ----------------------------------------------------------
    def end(self) -> list[Node]:
        """Join the two arms; returns the merged value streams."""
        if self._state != "done":
            raise BuildError("end before both arms completed")
        assert self._then_results is not None
        assert self._else_results is not None
        if len(self._then_results) != len(self._else_results):
            raise BuildError(
                "arms must produce the same number of results "
                f"({len(self._then_results)} vs {len(self._else_results)})"
            )
        region = self._region
        if self._then_had_ops or self._else_had_ops:
            # Insert a MEMORY_NOP on any memory-free arm, then set the
            # join cursor to both arms' last ops and poison the pre-fork
            # op's next link (its dynamic successor is arm-dependent).
            if not self._then_had_ops:
                self._then_last = self._emit_arm_nop(self._true_vals[0])
            if not self._else_had_ops:
                self._else_last = self._emit_arm_nop(self._false_vals[0])
            for rec in self._fork_cursor:
                rec.next_ambiguous = True
                rec.next = UNKNOWN
            region.cursor = self._then_last + self._else_last
        else:
            region.cursor = self._fork_cursor

        merged = []
        for t_node, f_node in zip(self._then_results, self._else_results):
            join = self._b._emit(Opcode.NOP, [t_node], label="join")
            # Wire the false-arm producer into the same join port.
            edges = (
                self._b._edges_true
                if f_node.true_side
                else self._b._edges_false
            )
            edges.setdefault(f_node.inst, []).append((join.inst, 0))
            merged.append(join)
        return merged

    # -- internals -----------------------------------------------------
    def _arm_start(self) -> None:
        region = self._region
        region.cursor = list(self._fork_cursor)
        # Arms may not ripple *through* the fork ops while building (the
        # counterpart arm also descends from them); defer patches.
        self._arm_ops_before = len(region.mem_ops)

    def _then_had_ops_pending(self) -> bool:
        return len(self._region.mem_ops) > self._arm_ops_before

    _else_had_ops_pending = _then_had_ops_pending

    def _arm_end(
        self, arm_trigger: Node, had_ops: bool
    ) -> tuple[bool, list[_MemRec]]:
        region = self._region
        last = [rec for rec in region.cursor if rec not in self._fork_cursor]
        if had_ops and not last:
            # Possible if the arm's last ops came from a nested join that
            # restored the fork cursor; treat as no ops at this level.
            had_ops = False
        if had_ops:
            # First op of the arm descends from the fork point; if there
            # were multiple fork-cursor entries its prev is already
            # UNKNOWN; with exactly one it was recorded as that op's
            # ``this`` by _sequence_memory_op, which also patched the
            # fork op's next -- undo that patch (arm-dependent).
            for rec in self._fork_cursor:
                if rec.next != UNKNOWN and any(
                    rec.next == arm_rec.this for arm_rec in region.mem_ops
                ):
                    rec.next = UNKNOWN
        return had_ops, last

    def _emit_arm_nop(self, trigger: Node) -> list[_MemRec]:
        region = self._region
        region.cursor = list(self._fork_cursor)
        self._b._cond_depth += 1
        try:
            node = self._b.memory_nop(trigger, label="arm.mnop")
        finally:
            self._b._cond_depth -= 1
        rec = self._b._mem_recs[node.inst]
        for fork_rec in self._fork_cursor:
            if fork_rec.next == rec.this:
                fork_rec.next = UNKNOWN
        return [rec]


class Loop:
    """A structured loop; each iteration executes in its own wave.

    Construction wiring (per carried value ``v``)::

        outer value --WAVE_ADVANCE--> header NOP --> body ...
        body result --STEER(pred)--+--true--> WAVE_ADVANCE --> header NOP
                                   +--false-> WAVE_ADVANCE --> exit NOP

    Invariants use the same wiring with the steered input being the
    header output itself (pass-through).  The exit WAVE_ADVANCE moves
    post-loop code into a fresh wave, giving it a fresh memory-ordering
    chain.
    """

    def __init__(
        self,
        b: GraphBuilder,
        carried: list[Node],
        invariants: list[Node],
        k: Optional[int],
        label: str,
    ) -> None:
        self._b = b
        self._k = k
        self._label = label
        outer = b._current
        for node in carried + invariants:
            b._use(node)
        b._close_region(outer)

        body = b._new_region(thread=outer.thread)
        self._body_region = body
        self._headers: list[Node] = []
        for idx, value in enumerate(carried + invariants):
            adv = b._emit(
                Opcode.WAVE_ADVANCE,
                [value],
                label=f"{label}.enter.{idx}",
                check_inputs=False,
                new_region=body,
            )
            saved = b._current
            b._current = body
            header = b.nop(adv, label=f"{label}.hdr.{idx}")
            b._current = saved
            self._headers.append(header)
        self._n_carried = len(carried)
        self._n_invariant = len(invariants)
        b._current = body
        body.trigger = self._headers[0]
        self._exit_advances: list[Node] = []
        self._state = "body"

    @property
    def state(self) -> list[Node]:
        """Header outputs for the carried values."""
        return self._headers[: self._n_carried]

    @property
    def invariants(self) -> list[Node]:
        """Header outputs for the invariant values."""
        return self._headers[self._n_carried :]

    def next_iteration(self, pred: Node, next_values: Sequence[Node]) -> None:
        """Close the body: continue with ``next_values`` while ``pred``.

        ``next_values`` rebind the carried state.  Invariants are routed
        automatically from the loop header, so the iteration tail must
        still be the loop body region; a loop whose body contains an
        inner loop (which advances waves) carries what the inner loop
        needs as state instead, threaded through the inner loop.
        """
        if self._state != "body":
            raise BuildError(f"next_iteration in state {self._state}")
        if len(next_values) != self._n_carried:
            raise BuildError(
                f"loop carries {self._n_carried} values, got "
                f"{len(next_values)} next values"
            )
        b = self._b
        # The region current *now* is the tail of the iteration: the
        # body itself, or the post-region of an inner loop.  Its chain
        # ends here (the back edge is a wave boundary).
        tail = b._current
        pred = b._use(pred)
        routed = []
        for value in next_values:
            routed.append(b._use(value))
        if self._n_invariant and tail.region_id != self._body_region.region_id:
            raise BuildError(
                f"loop {self._label!r}: body contains an inner loop; "
                "carry the invariants as loop state and thread them "
                "through it"
            )
        routed.extend(self._headers[self._n_carried :])
        b._close_region(tail)

        for idx, value in enumerate(routed):
            t_node, f_node = b.steer(value, pred)
            back = b._emit(
                Opcode.WAVE_ADVANCE,
                [t_node],
                immediate=self._k,
                label=f"{self._label}.back.{idx}",
                check_inputs=False,
                new_region=tail,
            )
            # Back-edge targets this value's header NOP.
            b._edges_true.setdefault(back.inst, []).append(
                (self._headers[idx].inst, 0)
            )
            exit_adv = b._emit(
                Opcode.WAVE_ADVANCE,
                [f_node],
                label=f"{self._label}.exit.{idx}",
                check_inputs=False,
                new_region=tail,  # placeholder; retargeted in end()
            )
            self._exit_advances.append(exit_adv)
        self._state = "closed"

    def end(self) -> list[Node]:
        """Finish the loop; returns exit values (carried + invariants)
        in a fresh post-loop region."""
        if self._state != "closed":
            raise BuildError("end before next_iteration")
        b = self._b
        post = b._new_region(thread=self._body_region.thread)
        exits = []
        for idx, adv in enumerate(self._exit_advances):
            saved = b._current
            b._current = post
            exit_node = Node(
                inst=adv.inst,
                true_side=True,
                region=post.region_id,
                thread=post.thread,
            )
            landing = b.nop(exit_node, label=f"{self._label}.land.{idx}")
            b._current = saved
            exits.append(landing)
        b._current = post
        post.trigger = exits[0]
        self._state = "ended"
        return exits
