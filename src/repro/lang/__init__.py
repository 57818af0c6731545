"""WaveScalar program construction toolchain.

Replaces the paper's Alpha-binary-translation flow: programs are built
with the :class:`GraphBuilder` EDSL (or parsed from textual assembly),
with every loop's k bound fixed at build time, and handed to placement
and the simulator.
"""

from .assembler import AssemblerError, assemble
from .builder import MAX_FANOUT, BuildError, GraphBuilder, IfElse, Loop, Node
from .disasm import disassemble

__all__ = [
    "AssemblerError",
    "assemble",
    "MAX_FANOUT",
    "BuildError",
    "GraphBuilder",
    "IfElse",
    "Loop",
    "Node",
    "disassemble",
]
