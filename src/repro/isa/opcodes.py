"""WaveScalar opcode definitions.

WaveScalar is a tagged-token dynamic dataflow ISA.  Each opcode carries
static metadata the rest of the toolchain and simulator rely on:

* how many input operands it consumes (``arity``),
* whether it is counted as an *Alpha-equivalent* instruction for AIPC
  accounting (the paper reports AIPC, excluding dataflow-overhead
  instructions such as steers and wave management -- Section 4.2),
* whether it is a memory operation handled by the wave-ordered store
  buffer,
* whether it uses the floating-point unit (FPUs are shared per domain and
  pipelined, Section 3.2 / Table 2),
* the nominal execution latency in cycles.

The opcode set is the subset of the WaveScalar ISA needed to express the
binaries the paper runs: integer and floating-point arithmetic, data
steering (the dataflow equivalent of branches), wave management, constant
generation, and wave-ordered memory operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Coarse functional classification of an opcode."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    FP = "fp"
    STEER = "steer"
    WAVE = "wave"
    CONST = "const"
    MEMORY = "memory"
    THREAD = "thread"
    MISC = "misc"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode."""

    name: str
    opclass: OpClass
    arity: int
    latency: int = 1
    alpha_equivalent: bool = True
    is_memory: bool = False
    is_store: bool = False
    is_load: bool = False
    uses_fpu: bool = False
    commutative: bool = False


class Opcode(enum.Enum):
    """Every instruction opcode understood by the simulator.

    The value of each member is an :class:`OpInfo` describing it.
    """

    # ------------------------------------------------------------------
    # Integer ALU (Alpha-equivalent, 1 cycle unless noted)
    # ------------------------------------------------------------------
    ADD = OpInfo("ADD", OpClass.INT_ALU, 2, commutative=True)
    SUB = OpInfo("SUB", OpClass.INT_ALU, 2)
    MUL = OpInfo("MUL", OpClass.INT_MUL, 2, latency=1, commutative=True)
    DIV = OpInfo("DIV", OpClass.INT_MUL, 2, latency=12)
    MOD = OpInfo("MOD", OpClass.INT_MUL, 2, latency=12)
    AND = OpInfo("AND", OpClass.INT_ALU, 2, commutative=True)
    OR = OpInfo("OR", OpClass.INT_ALU, 2, commutative=True)
    XOR = OpInfo("XOR", OpClass.INT_ALU, 2, commutative=True)
    NOT = OpInfo("NOT", OpClass.INT_ALU, 1)
    SHL = OpInfo("SHL", OpClass.INT_ALU, 2)
    SHR = OpInfo("SHR", OpClass.INT_ALU, 2)
    SAR = OpInfo("SAR", OpClass.INT_ALU, 2)
    NEG = OpInfo("NEG", OpClass.INT_ALU, 1)
    ABS = OpInfo("ABS", OpClass.INT_ALU, 1)
    MIN = OpInfo("MIN", OpClass.INT_ALU, 2, commutative=True)
    MAX = OpInfo("MAX", OpClass.INT_ALU, 2, commutative=True)

    # Comparisons produce 0/1.
    EQ = OpInfo("EQ", OpClass.INT_ALU, 2, commutative=True)
    NE = OpInfo("NE", OpClass.INT_ALU, 2, commutative=True)
    LT = OpInfo("LT", OpClass.INT_ALU, 2)
    LE = OpInfo("LE", OpClass.INT_ALU, 2)
    GT = OpInfo("GT", OpClass.INT_ALU, 2)
    GE = OpInfo("GE", OpClass.INT_ALU, 2)

    # ------------------------------------------------------------------
    # Floating point (pipelined FPU, Section 3.2: "Floating point units
    # are pipelined to avoid putting floating-point execution on the
    # critical path")
    # ------------------------------------------------------------------
    FADD = OpInfo("FADD", OpClass.FP, 2, latency=4, uses_fpu=True, commutative=True)
    FSUB = OpInfo("FSUB", OpClass.FP, 2, latency=4, uses_fpu=True)
    FMUL = OpInfo("FMUL", OpClass.FP, 2, latency=4, uses_fpu=True, commutative=True)
    FDIV = OpInfo("FDIV", OpClass.FP, 2, latency=12, uses_fpu=True)
    FSQRT = OpInfo("FSQRT", OpClass.FP, 1, latency=12, uses_fpu=True)
    FNEG = OpInfo("FNEG", OpClass.FP, 1, latency=1, uses_fpu=True)
    FABS = OpInfo("FABS", OpClass.FP, 1, latency=1, uses_fpu=True)
    FLT = OpInfo("FLT", OpClass.FP, 2, latency=2, uses_fpu=True)
    FLE = OpInfo("FLE", OpClass.FP, 2, latency=2, uses_fpu=True)
    FEQ = OpInfo("FEQ", OpClass.FP, 2, latency=2, uses_fpu=True, commutative=True)
    I2F = OpInfo("I2F", OpClass.FP, 1, latency=2, uses_fpu=True)
    F2I = OpInfo("F2I", OpClass.FP, 1, latency=2, uses_fpu=True)

    # ------------------------------------------------------------------
    # Dataflow control.  These are WaveScalar-specific and are *not*
    # Alpha equivalent (they replace branch bookkeeping).
    # ------------------------------------------------------------------
    # STEER: input 0 is the data value, input 1 a 1-bit predicate.  The
    # value is forwarded to the TRUE destinations when the predicate is
    # nonzero and to the FALSE destinations otherwise.  The 1-bit input
    # occupies the narrow third matching-table column in hardware.
    STEER = OpInfo("STEER", OpClass.STEER, 2, alpha_equivalent=False)
    # MERGE (phi): three inputs -- two data, one predicate -- selecting
    # which data input is forwarded.  Used rarely; steers are preferred.
    MERGE = OpInfo("MERGE", OpClass.STEER, 3, alpha_equivalent=False)

    # WAVE_ADVANCE increments the wave number of its token; it sits on
    # loop back-edges so each iteration executes in a fresh wave.
    WAVE_ADVANCE = OpInfo("WAVE_ADVANCE", OpClass.WAVE, 1, alpha_equivalent=False)
    # WAVE_TO_DATA exposes the current wave number as a data value
    # (used to derive induction variables and unique per-iteration ids).
    WAVE_TO_DATA = OpInfo("WAVE_TO_DATA", OpClass.WAVE, 1, alpha_equivalent=False)

    # CONST produces an immediate each time its trigger input arrives.
    CONST = OpInfo("CONST", OpClass.CONST, 1, alpha_equivalent=False)

    # NOP forwards its input unchanged (fan-out trees, ordering glue).
    NOP = OpInfo("NOP", OpClass.MISC, 1, alpha_equivalent=False)

    # ------------------------------------------------------------------
    # Wave-ordered memory.  Each memory instruction carries a
    # (prev, this, next) ordering annotation (see repro.isa.waves).
    # ------------------------------------------------------------------
    # LOAD: input 0 = address; result = memory[address].
    LOAD = OpInfo(
        "LOAD", OpClass.MEMORY, 1, latency=1, is_memory=True, is_load=True
    )
    # STORE: input 0 = address, input 1 = data.  Address and data travel
    # to the store buffer as separate messages (store decoupling,
    # Section 3.3.1); the PE fires when the address arrives and forwards
    # the data message when it arrives.
    STORE = OpInfo(
        "STORE", OpClass.MEMORY, 2, latency=1, is_memory=True, is_store=True
    )
    # MEMORY_NOP: participates in wave-ordering without touching memory;
    # used to close ordering gaps across branches.
    MEMORY_NOP = OpInfo(
        "MEMORY_NOP", OpClass.MEMORY, 1, latency=1, is_memory=True,
        alpha_equivalent=False,
    )

    # ------------------------------------------------------------------
    # Thread management (Splash2-style multithreading).
    # ------------------------------------------------------------------
    # THREAD_SPAWN retags its input token into a new thread context; the
    # target (thread, wave) pair is the instruction's immediate.
    # THREAD_HALT consumes a thread's final token.
    THREAD_SPAWN = OpInfo("THREAD_SPAWN", OpClass.THREAD, 1, alpha_equivalent=False)
    THREAD_HALT = OpInfo("THREAD_HALT", OpClass.THREAD, 1, alpha_equivalent=False)

    # Sink for values whose production we want to observe (program
    # outputs); consumes one token per firing.
    OUTPUT = OpInfo("OUTPUT", OpClass.MISC, 1, alpha_equivalent=False)

    # ------------------------------------------------------------------
    # Convenience accessors.  They read ``_value_``, a plain instance
    # attribute: ``self.value`` goes through enum's descriptor, and a
    # graph build asks these hundreds of thousands of times.
    # ------------------------------------------------------------------
    @property
    def info(self) -> OpInfo:
        return self._value_

    @property
    def arity(self) -> int:
        return self._value_.arity

    @property
    def latency(self) -> int:
        return self._value_.latency

    @property
    def alpha_equivalent(self) -> bool:
        return self._value_.alpha_equivalent

    @property
    def is_memory(self) -> bool:
        return self._value_.is_memory

    @property
    def is_store(self) -> bool:
        return self._value_.is_store

    @property
    def is_load(self) -> bool:
        return self._value_.is_load

    @property
    def uses_fpu(self) -> bool:
        return self._value_.uses_fpu

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes whose second input is the single-bit predicate stored in the
#: narrow third matching-table column (Section 3.2, footnote 3).
PREDICATED_OPCODES = frozenset({Opcode.STEER, Opcode.MERGE})

#: Name -> Opcode lookup used by the assembler.
OPCODES_BY_NAME = {op.name: op for op in Opcode}
