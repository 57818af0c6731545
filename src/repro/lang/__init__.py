"""WaveScalar program construction toolchain.

Replaces the paper's Alpha-binary-translation flow: programs are built
with the :class:`GraphBuilder` EDSL (or parsed from textual assembly),
k-loop bounded, and handed to placement and the simulator.
"""

from .assembler import AssemblerError, assemble
from .builder import MAX_FANOUT, BuildError, GraphBuilder, IfElse, Loop, Node
from .disasm import disassemble
from .kbound import backedge_ids, k_bound_of, set_k_bound

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
    "backedge_ids",
    "k_bound_of",
    "set_k_bound",
]
