"""Workload characterisation.

The paper introduces its suites qualitatively (Section 2.2: Spec for
single-threaded performance, Mediabench for media, Splash2 for
threads).  This module measures each kernel's *shape* -- the properties
the substitution argument in DESIGN.md rests on -- using only the
functional interpreter, so the numbers are microarchitecture-free:

* static and dynamic instruction counts,
* memory intensity (loads+stores per Alpha-equivalent instruction),
* floating-point fraction,
* dataflow overhead (non-Alpha share of dynamic instructions),
* available parallelism (dynamic instructions / dataflow critical
  path -- an ILP/TLP upper bound in the spirit of limit studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa.graph import DataflowGraph
from ..isa.opcodes import OpClass, Opcode
from ..lang.interp import interpret
from .base import Scale, Workload


@dataclass(frozen=True)
class Profile:
    """Microarchitecture-independent shape of one workload."""

    name: str
    static_instructions: int
    dynamic_instructions: int
    alpha_instructions: int
    memory_operations: int
    fp_operations: int
    waves: int

    @property
    def overhead_fraction(self) -> float:
        """Dynamic dataflow-overhead share (why AIPC != IPC)."""
        if not self.dynamic_instructions:
            return 0.0
        return 1.0 - self.alpha_instructions / self.dynamic_instructions

    @property
    def memory_intensity(self) -> float:
        """Loads+stores per Alpha-equivalent instruction."""
        if not self.alpha_instructions:
            return 0.0
        return self.memory_operations / self.alpha_instructions

    @property
    def fp_fraction(self) -> float:
        if not self.alpha_instructions:
            return 0.0
        return self.fp_operations / self.alpha_instructions


def profile_graph(graph: DataflowGraph, name: Optional[str] = None
                  ) -> Profile:
    """Characterise an arbitrary program."""
    result = interpret(graph)
    fired = result.fired_by_opcode
    memory_ops = fired.get("LOAD", 0) + fired.get("STORE", 0)
    fp_ops = sum(
        count for op_name, count in fired.items()
        if Opcode[op_name].value.opclass is OpClass.FP
    )
    return Profile(
        name=name or graph.name,
        static_instructions=len(graph),
        dynamic_instructions=result.dynamic_instructions,
        alpha_instructions=result.alpha_instructions,
        memory_operations=memory_ops,
        fp_operations=fp_ops,
        waves=sum(result.waves_retired.values()),
    )


def profile_workload(
    workload: Workload,
    scale: Scale = Scale.TINY,
    threads: Optional[int] = None,
) -> Profile:
    graph = workload.instantiate(scale=scale, threads=threads)
    return profile_graph(graph, name=workload.name)


def characterization_table(profiles: list[Profile]) -> str:
    """Section 2.2 as a measured table."""
    lines = [
        f"{'workload':<13}{'static':>8}{'dynamic':>9}{'alpha':>8}"
        f"{'mem/alpha':>11}{'FP':>7}{'overhead':>10}{'waves':>7}"
    ]
    for p in profiles:
        lines.append(
            f"{p.name:<13}{p.static_instructions:>8}"
            f"{p.dynamic_instructions:>9}{p.alpha_instructions:>8}"
            f"{p.memory_intensity:>11.2f}{p.fp_fraction:>7.0%}"
            f"{p.overhead_fraction:>10.0%}{p.waves:>7}"
        )
    return "\n".join(lines)
