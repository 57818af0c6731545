"""Depth-first snake placement.

WaveScalar performance depends critically on placing instructions that
communicate frequently close to each other (Section 1; the placement
model of [Mercaldi05]).  This module implements the placement policy the
paper's results rely on:

1. Order each thread's instructions by a depth-first traversal of its
   dataflow graph, so producer/consumer pairs are adjacent in the order.
2. Cut the order into chunks and lay the chunks out in a *snake* over
   the PEs of the thread's home cluster: consecutive chunks land in the
   same pod, then the same domain, then adjacent domains -- matching the
   machine's latency hierarchy.

The chunk size balances locality against parallelism: it is the
smallest size that lets the thread's code spread over all PEs of its
cluster share, capped by the PE's instruction-store capacity ``V``
(spilling over ``V`` would guarantee instruction-store thrashing for no
locality benefit).
"""

from __future__ import annotations

from collections import defaultdict

from ..core.config import WaveScalarConfig
from ..isa.graph import DataflowGraph
from .placement import Placement
from .threads import assign_threads_to_clusters


def dfs_order(graph: DataflowGraph, instruction_ids: list[int]) -> list[int]:
    """Depth-first order over the dataflow edges, entry-roots first.

    Iterative DFS restricted to ``instruction_ids``; unreachable
    instructions (none, in builder output) are appended at the end so
    the order is always a permutation of the input.
    """
    members = set(instruction_ids)
    successors: dict[int, list[int]] = defaultdict(list)
    indegree: dict[int, int] = {i: 0 for i in instruction_ids}
    for inst_id in instruction_ids:
        for dest in graph[inst_id].all_dests:
            if dest.inst in members:
                successors[inst_id].append(dest.inst)
                indegree[dest.inst] += 1

    roots = [i for i in instruction_ids if indegree[i] == 0]
    entry_insts = {t.inst for t in graph.entry_tokens}
    roots.sort(key=lambda i: (i not in entry_insts, i))
    if not roots:  # fully cyclic region (a loop); start at the minimum id
        roots = [min(instruction_ids)]

    order: list[int] = []
    seen: set[int] = set()
    for root in roots:
        if root in seen:
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            # Reversed so the first successor is visited next (true DFS).
            for succ in reversed(successors[node]):
                if succ not in seen:
                    stack.append(succ)
    for inst_id in instruction_ids:
        if inst_id not in seen:
            seen.add(inst_id)
            order.append(inst_id)
    return order


#: Smallest chunk the snake will place on one PE.  Placement sweeps
#: (see benchmarks/test_placement_ablation.py) show locality pays:
#: spreading a small program one instruction per PE loses ~13% AIPC to
#: operand latency, while chunks of ~16 keep producer/consumer pairs on
#: a pod without starving the matching table.
MIN_CHUNK = 16


def chunk_size_for(
    thread_size: int, pes_available: int, virtualization: int,
) -> int:
    """Chunk size balancing locality (big chunks) vs parallelism
    (spreading over all available PEs)."""
    if thread_size <= 0:
        return 1
    spread = -(-thread_size // pes_available)  # ceil division
    return min(virtualization, max(MIN_CHUNK, spread))


def place(graph: DataflowGraph, config: WaveScalarConfig) -> Placement:
    """Compute a placement of ``graph`` onto ``config``'s PEs."""
    owner = graph.thread_of_instruction()
    by_thread: dict[int, list[int]] = defaultdict(list)
    for inst_id, thread in owner.items():
        by_thread[thread].append(inst_id)

    thread_home = assign_threads_to_clusters(
        {t: len(ids) for t, ids in by_thread.items()}, config
    )

    pe_of: dict[int, int] = {}
    slot_of: dict[int, int] = {}
    assigned: dict[int, list[int]] = defaultdict(list)
    pes_per_cluster = config.pes_per_cluster
    # Rotating fill pointer per cluster so multiple threads sharing a
    # cluster occupy disjoint PEs where possible.
    fill_pointer: dict[int, int] = defaultdict(int)

    for thread in sorted(by_thread):
        ids = by_thread[thread]
        order = dfs_order(graph, sorted(ids))
        cluster = thread_home[thread]
        chunk = chunk_size_for(
            len(order), pes_per_cluster, config.virtualization
        )
        base_pe = cluster * pes_per_cluster
        start = fill_pointer[cluster]
        for index, inst_id in enumerate(order):
            pe_local = (start + index // chunk) % pes_per_cluster
            pe = base_pe + pe_local
            pe_of[inst_id] = pe
            slot_of[inst_id] = len(assigned[pe])
            assigned[pe].append(inst_id)
        fill_pointer[cluster] = (
            start + -(-len(order) // chunk)
        ) % pes_per_cluster

    return Placement(
        pe_of=pe_of,
        slot_of=slot_of,
        thread_home=thread_home,
        assigned=dict(assigned),
    )
