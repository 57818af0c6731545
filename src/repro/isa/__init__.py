"""WaveScalar instruction set architecture.

The :mod:`repro.isa` package defines the program representation shared
by the toolchain (:mod:`repro.lang`), the placement phase
(:mod:`repro.place`) and the cycle-level simulator (:mod:`repro.sim`):
tagged tokens, opcodes, static instructions with wave-ordered memory
annotations, and the dataflow graph.
"""

from .graph import DataflowGraph, ThreadInfo
from .instruction import Dest, Instruction
from .opcodes import OpClass, Opcode, OpInfo, OPCODES_BY_NAME
from .token import Tag, Token, Value, make_token
from .verify import GraphVerificationError, verify_graph
from .waves import (
    UNKNOWN,
    WAVE_END,
    WAVE_START,
    WaveAnnotation,
)

__all__ = [
    "DataflowGraph",
    "ThreadInfo",
    "Dest",
    "Instruction",
    "OpClass",
    "Opcode",
    "OpInfo",
    "OPCODES_BY_NAME",
    "Tag",
    "Token",
    "Value",
    "make_token",
    "GraphVerificationError",
    "verify_graph",
    "UNKNOWN",
    "WAVE_END",
    "WAVE_START",
    "WaveAnnotation",
]
