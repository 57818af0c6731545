"""Workload infrastructure.

The paper drives its simulator with Spec2000, Mediabench and Splash2
binaries translated from Alpha code.  Those binaries and the
translator are unavailable, so each workload here is a kernel written
against :class:`repro.lang.GraphBuilder` that preserves the *shape*
that matters for the study (see DESIGN.md's substitution table):
static working-set size, control structure, memory intensity,
floating-point mix, and -- for the Splash2 suite -- thread-level
parallelism with per-thread data partitions.

Every workload carries a pure-Python reference implementation; the
test suite checks that both the functional interpreter and the
cycle-level simulator produce exactly the reference outputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from ..isa.graph import DataflowGraph


class Suite(enum.Enum):
    """The workload groups: Section 2.2's three suites plus the
    dense-tensor family the 2006 study predates."""

    SPEC = "spec"
    MEDIA = "mediabench"
    SPLASH = "splash2"
    TENSOR = "tensor"


class Scale(enum.Enum):
    """Problem-size presets.

    ``TINY`` keeps unit tests fast; ``SMALL`` is the default for
    benchmarks; ``MEDIUM``/``LARGE`` lengthen runs for users with
    patience (the simulator is cycle-accurate Python).
    """

    TINY = "tiny"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


#: Per-scale multiplier applied to each kernel's base problem size.
SCALE_FACTOR = {
    Scale.TINY: 1,
    Scale.SMALL: 3,
    Scale.MEDIUM: 8,
    Scale.LARGE: 24,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark program generator.

    ``build(scale, threads, k, seed)`` returns a fresh
    :class:`DataflowGraph`; ``reference(scale, threads, seed)`` returns
    the expected OUTPUT values in the simulator's ordering.
    ``default_k`` seeds the k-loop bound before Table 4 tuning.
    """

    name: str
    suite: Suite
    build: Callable[..., DataflowGraph]
    reference: Callable[..., list]
    multithreaded: bool = False
    uses_fp: bool = False
    description: str = ""
    default_k: int = 4

    def instantiate(
        self,
        scale: Scale = Scale.SMALL,
        threads: Optional[int] = None,
        k: Optional[int] = None,
        seed: int = 0,
    ) -> DataflowGraph:
        if threads is not None and not self.multithreaded:
            raise ValueError(f"{self.name} is single-threaded")
        kwargs = {"scale": scale, "seed": seed}
        kwargs["k"] = k if k is not None else self.default_k
        if self.multithreaded:
            kwargs["threads"] = threads if threads is not None else 4
        return self.build(**kwargs)

    def expected(
        self,
        scale: Scale = Scale.SMALL,
        threads: Optional[int] = None,
        seed: int = 0,
    ) -> list:
        kwargs = {"scale": scale, "seed": seed}
        if self.multithreaded:
            kwargs["threads"] = threads if threads is not None else 4
        return self.reference(**kwargs)


def scaled(base: int, scale: Scale) -> int:
    """A kernel's problem size at ``scale``."""
    return base * SCALE_FACTOR[scale]


def partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous (start, stop)
    slices, sizes differing by at most one."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(n, parts)
    slices = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices
