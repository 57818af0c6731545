"""Operational semantics of WaveScalar opcodes.

Shared by the functional reference interpreter
(:mod:`repro.lang.interp`) and the cycle-level simulator's EXECUTE stage
so the two can never diverge.

Values are Python ints/floats standing in for 64-bit machine words.
Division and modulo by zero produce 0 (a common safe-hardware choice)
rather than trapping, so design-space sweeps never die on a stray
workload corner case.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .opcodes import Opcode
from .token import Value


def _idiv(operands: Sequence[Value]) -> int:
    a, b = operands
    if b == 0:
        return 0
    return int(a) // int(b) if (a >= 0) == (b >= 0) else -(int(abs(a)) // int(abs(b)))


def _imod(operands: Sequence[Value]) -> int:
    a, b = operands
    if b == 0:
        return 0
    return int(a) - _idiv(operands) * int(b)


def _fdiv(operands: Sequence[Value]) -> float:
    a, b = operands
    if b == 0:
        return 0.0
    return float(a) / float(b)


def _fsqrt(operands: Sequence[Value]) -> float:
    a = operands[0]
    return math.sqrt(a) if a >= 0 else 0.0


#: The data value an opcode forwards unchanged: operand 0, or a STORE's
#: data operand.
_first = itemgetter(0)
_second = itemgetter(1)

#: Every opcode's semantics but CONST's (which reads the immediate),
#: each taking the operand tuple.  STEER, LOAD and STORE return the
#: forwarded data value; the caller makes the routing decision or the
#: memory access.
_EVALUATORS: dict[Opcode, Callable[[Sequence[Value]], Value]] = {
    Opcode.ADD: lambda o: int(o[0]) + int(o[1]),
    Opcode.SUB: lambda o: int(o[0]) - int(o[1]),
    Opcode.MUL: lambda o: int(o[0]) * int(o[1]),
    Opcode.DIV: _idiv,
    Opcode.MOD: _imod,
    Opcode.AND: lambda o: int(o[0]) & int(o[1]),
    Opcode.OR: lambda o: int(o[0]) | int(o[1]),
    Opcode.XOR: lambda o: int(o[0]) ^ int(o[1]),
    Opcode.NOT: lambda o: ~int(o[0]),
    Opcode.SHL: lambda o: int(o[0]) << max(0, min(63, int(o[1]))),
    Opcode.SHR: lambda o: (int(o[0]) % (1 << 64)) >> max(0, min(63, int(o[1]))),
    Opcode.SAR: lambda o: int(o[0]) >> max(0, min(63, int(o[1]))),
    Opcode.NEG: lambda o: -int(o[0]),
    Opcode.ABS: lambda o: abs(int(o[0])),
    Opcode.MIN: lambda o: min(int(o[0]), int(o[1])),
    Opcode.MAX: lambda o: max(int(o[0]), int(o[1])),
    Opcode.EQ: lambda o: int(o[0] == o[1]),
    Opcode.NE: lambda o: int(o[0] != o[1]),
    Opcode.LT: lambda o: int(o[0] < o[1]),
    Opcode.LE: lambda o: int(o[0] <= o[1]),
    Opcode.GT: lambda o: int(o[0] > o[1]),
    Opcode.GE: lambda o: int(o[0] >= o[1]),
    Opcode.FADD: lambda o: float(o[0]) + float(o[1]),
    Opcode.FSUB: lambda o: float(o[0]) - float(o[1]),
    Opcode.FMUL: lambda o: float(o[0]) * float(o[1]),
    Opcode.FDIV: _fdiv,
    Opcode.FSQRT: _fsqrt,
    Opcode.FNEG: lambda o: -float(o[0]),
    Opcode.FABS: lambda o: abs(float(o[0])),
    Opcode.FLT: lambda o: int(float(o[0]) < float(o[1])),
    Opcode.FLE: lambda o: int(float(o[0]) <= float(o[1])),
    Opcode.FEQ: lambda o: int(float(o[0]) == float(o[1])),
    Opcode.I2F: lambda o: float(int(o[0])),
    Opcode.F2I: lambda o: int(o[0]),
    Opcode.STEER: _first,
    Opcode.MERGE: lambda o: o[0] if o[2] else o[1],
    Opcode.LOAD: _first,
    Opcode.STORE: _second,
    Opcode.NOP: _first,
    Opcode.WAVE_ADVANCE: _first,
    Opcode.THREAD_SPAWN: _first,
    Opcode.THREAD_HALT: _first,
    Opcode.OUTPUT: _first,
    Opcode.MEMORY_NOP: _first,
}


def evaluate(
    opcode: Opcode,
    operands: Sequence[Value],
    immediate: Optional[Value] = None,
) -> Value:
    """Compute the result value of a non-routing instruction.

    STEER/MERGE routing decisions and memory accesses are made by the
    caller (they need tag or memory context); for those this function
    returns the forwarded *data* value:

    * STEER forwards operand 0 (operand 1 is the predicate),
    * MERGE forwards operand 0 or 1 according to operand 2,
    * CONST ignores operands and returns the immediate,
    * LOAD/STORE return the address/data (the caller performs the
      access).
    """
    if opcode is Opcode.CONST:
        if immediate is None:
            raise ValueError("CONST requires an immediate")
        return immediate
    evaluator = _EVALUATORS.get(opcode)
    if evaluator is None:
        raise ValueError(f"no semantics for {opcode.name}")
    return evaluator(operands)


def evaluator_for(
    opcode: Opcode,
    immediate: Optional[Value] = None,
) -> Callable[[Sequence[Value]], Value]:
    """A callable equivalent to ``lambda operands: evaluate(opcode,
    operands, immediate)``: the opcode's :data:`_EVALUATORS` entry
    itself, or for CONST a closure over the immediate.

    The opcode's identity tests and evaluator lookup are resolved
    once, here, instead of on every dynamic instruction -- the
    compiled decode holds one evaluator per instruction, so EXECUTE
    is a single call.  Error behaviour matches :func:`evaluate`
    exactly (the failures surface at call time, as the engine would
    see them).
    """
    if opcode is Opcode.CONST:
        if immediate is None:
            def _const_missing(operands: Sequence[Value]) -> Value:
                raise ValueError("CONST requires an immediate")
            return _const_missing
        return lambda operands: immediate
    evaluator = _EVALUATORS.get(opcode)
    if evaluator is None:
        def _no_semantics(operands: Sequence[Value]) -> Value:
            raise ValueError(f"no semantics for {opcode.name}")
        return _no_semantics
    return evaluator


def steer_taken(operands: Sequence[Value]) -> bool:
    """Whether a STEER forwards to its true-side destinations."""
    return bool(operands[1])
