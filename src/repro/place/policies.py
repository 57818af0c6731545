"""Alternative placement policies.

The paper attributes much of WaveScalar's locality to instruction
placement ("instructions that communicate frequently are placed in
close proximity", Section 1; the placement model of [Mercaldi05]).
These policies quantify that claim by contrast with the default snake
placement:

* ``random`` -- instructions scattered uniformly over the thread's
  home cluster (locality only by luck),
* ``dense``  -- DFS order packed V-at-a-time into as few PEs as
  possible (maximum locality, minimum parallelism),
* ``whole_chip_random`` -- scattered over the entire processor,
  ignoring thread isolation (the anti-placement: maximum inter-cluster
  traffic),
* ``anneal`` -- profile-guided simulated annealing over a static
  wire-cost + load-balance objective (see :mod:`repro.place.anneal`;
  kept as a documented negative result -- it does not beat the snake).

The placement-ablation benchmark measures the AIPC and traffic cost of
each against the snake.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.config import WaveScalarConfig
from ..isa.graph import DataflowGraph
from .placement import Placement
from .snake import dfs_order, place as snake_place
from .threads import assign_threads_to_clusters

POLICIES = ("snake", "dense", "random", "whole_chip_random", "anneal")


def place_with_policy(
    graph: DataflowGraph,
    config: WaveScalarConfig,
    policy: str = "snake",
) -> Placement:
    """Place ``graph`` using a named policy (the randomised ones with
    seed 0)."""
    if policy == "snake":
        return snake_place(graph, config)
    if policy == "dense":
        return _place_dense(graph, config)
    if policy == "anneal":
        # Profile-guided simulated annealing (see repro.place.anneal);
        # the profile costs one functional-interpreter run.
        from ..lang.interp import interpret
        from .anneal import anneal_place

        profile = interpret(graph).fired_by_inst
        return anneal_place(graph, config, firing_counts=profile).placement
    if policy == "random":
        return _place_random(graph, config, 0, isolate_threads=True)
    if policy == "whole_chip_random":
        return _place_random(graph, config, 0, isolate_threads=False)
    raise ValueError(f"unknown placement policy {policy!r}; "
                     f"have {POLICIES}")


def _thread_partition(graph: DataflowGraph):
    owner = graph.thread_of_instruction()
    by_thread: dict[int, list[int]] = defaultdict(list)
    for inst_id, thread in owner.items():
        by_thread[thread].append(inst_id)
    return by_thread


def _build(pe_of: dict[int, int]) -> tuple[dict[int, int],
                                            dict[int, list[int]]]:
    assigned: dict[int, list[int]] = defaultdict(list)
    slot_of: dict[int, int] = {}
    for inst_id in sorted(pe_of):
        pe = pe_of[inst_id]
        slot_of[inst_id] = len(assigned[pe])
        assigned[pe].append(inst_id)
    return slot_of, dict(assigned)


def _place_dense(graph: DataflowGraph,
                 config: WaveScalarConfig) -> Placement:
    """Pack DFS order tightly into as few PEs as possible.

    The pack factor is capped at a quarter of the matching capacity:
    packing a full ``V`` instructions onto one PE starves its matching
    table so badly the machine crawls (exactly the thrashing the
    paper's matching-table equation exists to avoid), which would make
    the ablation unmeasurable rather than just slow.
    """
    pack = max(8, min(config.virtualization,
                      config.matching_entries // 4))
    by_thread = _thread_partition(graph)
    thread_home = assign_threads_to_clusters(
        {t: len(ids) for t, ids in by_thread.items()}, config
    )
    pe_of: dict[int, int] = {}
    next_pe: dict[int, int] = defaultdict(int)
    for thread in sorted(by_thread):
        cluster = thread_home[thread]
        order = dfs_order(graph, sorted(by_thread[thread]))
        base = cluster * config.pes_per_cluster
        start = next_pe[cluster]
        for index, inst_id in enumerate(order):
            pe_local = (start + index // pack) % config.pes_per_cluster
            pe_of[inst_id] = base + pe_local
        used = -(-len(order) // pack)
        next_pe[cluster] = (start + used) % config.pes_per_cluster
    slot_of, assigned = _build(pe_of)
    return Placement(pe_of=pe_of, slot_of=slot_of,
                     thread_home=thread_home, assigned=assigned)


def _place_random(
    graph: DataflowGraph,
    config: WaveScalarConfig,
    seed: int,
    isolate_threads: bool,
) -> Placement:
    rng = np.random.default_rng(seed)
    by_thread = _thread_partition(graph)
    thread_home = assign_threads_to_clusters(
        {t: len(ids) for t, ids in by_thread.items()}, config
    )
    pe_of: dict[int, int] = {}
    for thread in sorted(by_thread):
        ids = sorted(by_thread[thread])
        if isolate_threads:
            base = thread_home[thread] * config.pes_per_cluster
            choices = rng.integers(0, config.pes_per_cluster, len(ids))
            for inst_id, offset in zip(ids, choices):
                pe_of[inst_id] = base + int(offset)
        else:
            choices = rng.integers(0, config.total_pes, len(ids))
            for inst_id, pe in zip(ids, choices):
                pe_of[inst_id] = int(pe)
    slot_of, assigned = _build(pe_of)
    return Placement(pe_of=pe_of, slot_of=slot_of,
                     thread_home=thread_home, assigned=assigned)
