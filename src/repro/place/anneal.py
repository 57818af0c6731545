"""Profile-guided simulated-annealing placement.

The paper's placement cites a dedicated instruction-placement model and
scheduler ([Mercaldi05]; "Instruction scheduling for a tiled
architecture", in submission to PLDI'06).  This module provides an
optimising placer in that spirit: starting from the snake layout,
simulated annealing moves instructions between PEs to minimise a
profiled *static* objective

    cost = sum over edges  weight(edge) * latency(level(src, dst))
         + balance * sum over PEs  (profiled load of the PE)^2

where ``weight`` is the producer's dynamic firing count (measured once
on the functional interpreter), ``latency`` the Table 1 cost of the
interconnect level the edge would use, and the quadratic load term
penalises concentrating hot instructions on one dispatch port.  Thread
isolation is preserved: instructions move only within their thread's
home cluster.

**Measured finding (kept deliberately):** the annealer reliably cuts
the static objective by ~10% but does *not* beat the snake's measured
AIPC on our kernels -- wire-latency-plus-load objectives miss the
pipelining structure the DFS snake gets for free (dependence chains
land on pods in execution order).  The placement-ablation benchmark
records this, a concrete instance of the paper's warning that tiled
architectures need careful, empirically validated tuning.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.config import WaveScalarConfig
from ..isa.graph import DataflowGraph
from .metrics import classify_edge
from .placement import Placement
from .snake import place as snake_place

#: Interconnect-level costs used by the objective (Table 1 latencies).
LEVEL_COST = {"pod": 1.0, "domain": 5.0, "cluster": 9.0, "grid": 12.0}

#: Weight of the quadratic load-balance term.
BALANCE_WEIGHT = 0.02

#: Moves one annealing run tries.
MOVES = 20_000


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    placement: Placement
    initial_cost: float
    final_cost: float
    moves_tried: int
    moves_accepted: int

    @property
    def improvement(self) -> float:
        """Fractional objective reduction vs the snake starting point."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


def edge_weights(
    graph: DataflowGraph, firing_counts: dict[int, int] | None
) -> list[tuple[int, int, float]]:
    """(src, dst, weight) for every static edge; weight = producer's
    dynamic firing count (1.0 when no profile is supplied)."""
    edges = []
    for inst in graph.instructions:
        weight = float(
            firing_counts.get(inst.inst_id, 1) if firing_counts else 1
        )
        for dest in inst.all_dests:
            edges.append((inst.inst_id, dest.inst, weight))
    return edges


def placement_cost(
    edges: list[tuple[int, int, float]],
    pe_of: dict[int, int],
    config: WaveScalarConfig,
) -> float:
    """The communication half of the objective (no balance term)."""
    total = 0.0
    for src, dst, weight in edges:
        level = classify_edge(pe_of[src], pe_of[dst], config)
        total += weight * LEVEL_COST[level]
    return total


def anneal_place(
    graph: DataflowGraph,
    config: WaveScalarConfig,
    firing_counts: dict[int, int] | None = None,
) -> AnnealResult:
    """Optimise a placement of ``graph`` onto ``config``.

    ``firing_counts`` comes from
    :attr:`repro.lang.interp.InterpResult.fired_by_inst`; without it the
    objective treats every edge as equally hot (static annealing).
    Deterministic: the move sequence comes from one seed-0 generator.
    """
    base = snake_place(graph, config)
    pe_of = dict(base.pe_of)
    edges = edge_weights(graph, firing_counts)
    profile = firing_counts or {}

    touching: dict[int, list[tuple[int, int, float]]] = defaultdict(list)
    for edge in edges:
        src, dst, _ = edge
        touching[src].append(edge)
        if dst != src:
            touching[dst].append(edge)

    owner = graph.thread_of_instruction()
    home = base.thread_home
    pes_per_cluster = config.pes_per_cluster
    occupancy: dict[int, int] = defaultdict(int)
    load: dict[int, float] = defaultdict(float)
    for inst_id, pe in pe_of.items():
        occupancy[pe] += 1
        load[pe] += float(profile.get(inst_id, 1))

    def comm_cost(inst_id: int) -> float:
        seen: set[int] = set()
        total = 0.0
        for edge in touching[inst_id]:
            if id(edge) in seen:
                continue
            seen.add(id(edge))
            src, dst, weight = edge
            level = classify_edge(pe_of[src], pe_of[dst], config)
            total += weight * LEVEL_COST[level]
        return total

    initial_cost = placement_cost(edges, pe_of, config)
    initial_temperature = max(1.0, initial_cost / max(1, len(edges)))
    moves, balance_weight = MOVES, BALANCE_WEIGHT

    rng = np.random.default_rng(0)
    inst_ids = [i.inst_id for i in graph.instructions]
    accepted = 0
    for step in range(moves):
        temperature = initial_temperature * (1.0 - step / moves) + 1e-9
        inst_id = inst_ids[int(rng.integers(len(inst_ids)))]
        cluster = home[owner[inst_id]]
        new_pe = cluster * pes_per_cluster + int(
            rng.integers(pes_per_cluster)
        )
        old_pe = pe_of[inst_id]
        if new_pe == old_pe:
            continue
        if occupancy[new_pe] >= config.virtualization:
            continue
        weight = float(profile.get(inst_id, 1))
        before = comm_cost(inst_id) + balance_weight * (
            load[old_pe] ** 2 + load[new_pe] ** 2
        )
        pe_of[inst_id] = new_pe
        after = comm_cost(inst_id) + balance_weight * (
            (load[old_pe] - weight) ** 2 + (load[new_pe] + weight) ** 2
        )
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            load[old_pe] -= weight
            load[new_pe] += weight
            occupancy[old_pe] -= 1
            occupancy[new_pe] += 1
            accepted += 1
        else:
            pe_of[inst_id] = old_pe

    assigned: dict[int, list[int]] = defaultdict(list)
    slot_of: dict[int, int] = {}
    for inst_id in sorted(pe_of):
        pe = pe_of[inst_id]
        slot_of[inst_id] = len(assigned[pe])
        assigned[pe].append(inst_id)

    placement = Placement(
        pe_of=pe_of,
        slot_of=slot_of,
        thread_home=dict(home),
        assigned=dict(assigned),
    )
    return AnnealResult(
        placement=placement,
        initial_cost=initial_cost,
        final_cost=placement_cost(edges, pe_of, config),
        moves_tried=moves,
        moves_accepted=accepted,
    )
