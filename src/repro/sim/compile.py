"""Compiled workloads: build a program once, simulate it many times.

A sweep attempt historically rebuilt everything from scratch --
``GraphBuilder`` re-emitted the dataflow graph, the engine re-decoded
every instruction into its flat hot-path arrays, and the reference
interpreter re-computed the expected outputs -- once *per attempt*,
including budget-escalation retries of the very same cell.  This
module hoists all of that out of the hot path:

* :func:`compile_graph` freezes a :class:`DataflowGraph` into a
  :class:`CompiledGraph`: immutable, flat per-instruction tuples
  (opcode, dispatch-kind code, arity, latency, destination lists,
  wave-advance k, FPU/alpha flags) that the engine indexes by
  ``inst_id`` instead of chasing ``Instruction``/``Opcode`` attribute
  chains through enum properties.
* :func:`compile_workload` bundles the instantiated graph with its
  compiled decode and (lazily) the reference outputs into a
  :class:`CompiledWorkload`.
* :func:`get_compiled` serves compiled workloads from a bounded
  per-process LRU cache keyed by the full build signature
  ``(workload, scale, threads, k, seed)`` -- changing the thread
  count (or any other knob) is a different key, so stale graphs can
  never be served.  Long-lived sweep workers warm this cache once per
  ``(workload, threads)`` and every subsequent attempt -- including
  forked attempt subprocesses, which inherit the warm cache through
  copy-on-write memory -- skips the rebuild entirely.

Compiled artifacts are shared across runs, so they must never be
mutated; everything the engine mutates per run (matching tables,
stats, reservation ledgers, the memory image -- ``MemoryHierarchy``
copies ``initial_memory``) lives outside the compiled object.  The
equivalence suite (``tests/sim/test_compile.py``) holds a fresh build
and a cache-served build to identical graphs *and* identical
simulation results for every workload in the registry.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..isa.graph import DataflowGraph
from ..isa.opcodes import Opcode
from ..isa.semantics import evaluator_for
from ..workloads.base import Scale

__all__ = [
    "K_ALU",
    "K_STORE",
    "K_MEMORY",
    "K_OUTPUT",
    "K_HALT",
    "K_STEER",
    "K_WAVE_ADVANCE",
    "K_SPAWN",
    "CompiledGraph",
    "CompiledWorkload",
    "cache_info",
    "clear_cache",
    "compile_graph",
    "compile_workload",
    "get_compiled",
]

#: Dispatch-kind codes: which of the engine's EXECUTE/OUTPUT paths an
#: opcode takes, precomputed so ``_on_dispatch`` branches on one small
#: int instead of a chain of enum identity tests and ``OpInfo``
#: property reads.
K_ALU = 0           # evaluate() then deliver to dests
K_STORE = 1         # decoupled store half-operation
K_MEMORY = 2        # LOAD / MEMORY_NOP: store-buffer request
K_OUTPUT = 3        # architectural output sink
K_HALT = 4          # THREAD_HALT: consume the token
K_STEER = 5         # predicate-routed delivery
K_WAVE_ADVANCE = 6  # wave increment with k-loop bounding
K_SPAWN = 7         # THREAD_SPAWN: retag into a new thread


def _kind_of(opcode: Opcode) -> int:
    if opcode is Opcode.STORE:
        return K_STORE
    if opcode.is_memory:
        return K_MEMORY
    if opcode is Opcode.OUTPUT:
        return K_OUTPUT
    if opcode is Opcode.THREAD_HALT:
        return K_HALT
    if opcode is Opcode.STEER:
        return K_STEER
    if opcode is Opcode.WAVE_ADVANCE:
        return K_WAVE_ADVANCE
    if opcode is Opcode.THREAD_SPAWN:
        return K_SPAWN
    return K_ALU


class CompiledGraph:
    """Immutable flat decode of one dataflow graph.

    Every attribute is a tuple indexed by ``inst_id``; the hardware
    analogue is the decoded instruction store.  Never mutated after
    construction -- one instance may feed any number of concurrent
    engine runs.
    """

    __slots__ = (
        "graph",
        "opcode",
        "kind",
        "arity",
        "latency",
        "uses_fpu",
        "alpha_equivalent",
        "match_arity",
        "dests",
        "false_dests",
        "immediate",
        "rows",
        "evaluators",
    )

    def __init__(self, graph: DataflowGraph) -> None:
        insts = graph.instructions
        self.graph = graph
        self.opcode = tuple(i.opcode for i in insts)
        self.kind = tuple(_kind_of(i.opcode) for i in insts)
        self.arity = tuple(i.opcode.arity for i in insts)
        self.latency = tuple(i.opcode.latency for i in insts)
        self.uses_fpu = tuple(i.opcode.uses_fpu for i in insts)
        self.alpha_equivalent = tuple(
            i.opcode.alpha_equivalent for i in insts
        )
        # What a token arrival needs, in one read: None for a STORE
        # (its operands bypass the matching table), else the arity.
        self.match_arity = tuple(
            None if i.opcode is Opcode.STORE else i.opcode.arity
            for i in insts
        )
        self.dests = tuple(i.dests for i in insts)
        self.false_dests = tuple(i.false_dests for i in insts)
        self.immediate = tuple(i.immediate for i in insts)
        # Packed dispatch rows: what every dispatch needs in one
        # indexed load + tuple unpack (kind, latency, uses_fpu,
        # alpha_equivalent); the rarer fields stay in their columns.
        self.rows = tuple(zip(
            self.kind, self.latency, self.uses_fpu, self.alpha_equivalent
        ))
        # One resolved EXECUTE callable per instruction, so the
        # opcode's semantics are looked up once per graph instead of
        # once per dynamic instruction (or once per run).
        self.evaluators = tuple(
            evaluator_for(i.opcode, i.immediate) for i in insts
        )

    def __len__(self) -> int:
        return len(self.opcode)


def compile_graph(graph: DataflowGraph) -> CompiledGraph:
    """Freeze ``graph`` into its flat hot-path decode."""
    return CompiledGraph(graph)


class CompiledWorkload:
    """One workload instantiation, compiled and ready to simulate.

    Bundles the graph, its flat decode, and the build signature; the
    reference outputs are computed on first use and memoised (an
    unchecked run never asks for them, so it never pays for them).
    Immutable apart from that memo -- instances are shared across attempts and
    across forked attempt subprocesses.
    """

    __slots__ = ("key", "graph", "decoded", "_workload", "_expected")

    def __init__(self, key: tuple, graph: DataflowGraph,
                 decoded: CompiledGraph, workload) -> None:
        self.key = key
        self.graph = graph
        self.decoded = decoded
        self._workload = workload
        self._expected: Optional[list] = None

    @property
    def name(self) -> str:
        return self.key[0]

    @property
    def threads(self) -> Optional[int]:
        return self.key[2]

    def expected_outputs(self) -> list:
        """The workload's pure-Python reference outputs (memoised)."""
        if self._expected is None:
            _, scale, threads, _, seed = self.key
            self._expected = self._workload.expected(
                scale=Scale(scale), threads=threads, seed=seed
            )
        return self._expected


def _key(name: str, scale: Scale | str, threads: Optional[int],
         k: Optional[int], seed: int) -> tuple:
    scale_value = scale.value if isinstance(scale, Scale) else scale
    return (name, scale_value, threads, k, seed)


def compile_workload(
    name: str,
    scale: Scale | str = Scale.SMALL,
    threads: Optional[int] = None,
    k: Optional[int] = None,
    seed: int = 0,
) -> CompiledWorkload:
    """Build and compile one registry workload (no caching)."""
    from ..workloads.registry import get

    workload = get(name)
    key = _key(name, scale, threads, k, seed)
    graph = workload.instantiate(
        scale=Scale(key[1]), threads=threads, k=k, seed=seed
    )
    return CompiledWorkload(key, graph, compile_graph(graph), workload)


# ----------------------------------------------------------------------
# Per-process cache
# ----------------------------------------------------------------------
#: Upper bound on cached workloads per process; a full sweep touches
#: each (workload, threads) pair of its suite, comfortably below this.
CACHE_CAPACITY = 64

_lock = threading.Lock()
_cache: dict[tuple, CompiledWorkload] = {}
_hits = 0
_misses = 0
_evictions = 0


def get_compiled(
    name: str,
    scale: Scale | str = Scale.SMALL,
    threads: Optional[int] = None,
    k: Optional[int] = None,
    seed: int = 0,
) -> CompiledWorkload:
    """:func:`compile_workload` through the per-process LRU cache.

    The key is the complete build signature, so a different thread
    count (or scale, k, seed) can never be served a stale graph.  The
    lock guards the map and its counters for a caller that shares the
    cache between threads; the expensive build runs outside it, so a
    racing duplicate build is possible but harmless (last writer wins,
    both results are equivalent).
    """
    global _hits, _misses, _evictions
    key = _key(name, scale, threads, k, seed)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            # Refresh LRU recency (dicts preserve insertion order).
            del _cache[key]
            _cache[key] = cached
            return cached
        _misses += 1
    compiled = compile_workload(
        name, scale=key[1], threads=threads, k=k, seed=seed
    )
    with _lock:
        _cache[key] = compiled
        while len(_cache) > CACHE_CAPACITY:
            _cache.pop(next(iter(_cache)))
            _evictions += 1
    return compiled


def cache_info() -> dict:
    """Hit/miss/eviction/size counters for the per-process compile
    cache.  An eviction streak in a sweep means the working set
    outgrew :data:`CACHE_CAPACITY` and cells are silently rebuilding
    graphs -- ``repro stats`` surfaces these counters for exactly that
    diagnosis."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "evictions": _evictions,
            "size": len(_cache),
            "capacity": CACHE_CAPACITY,
        }


def clear_cache() -> None:
    """Drop every cached workload and reset the counters (tests)."""
    global _hits, _misses, _evictions
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
        _evictions = 0
