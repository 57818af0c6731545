"""Tiling-geometry Pareto sweep for the tensor/GEMM family.

The paper's area-performance methodology applied to the dense-tensor
family this repo adds: for each dataflow analogue (output-, weight-,
input-stationary) and a spread of (tile_m, tile_n, tile_k) geometries,
measure static size, cycles, AIPC, and matching-table pressure on the
golden config.  All variants compute bit-identical checksums, so the
sweep isolates the *structural* cost of a tiling choice -- exactly
the trade-off knob the tensor suite exists to expose.

Results land as a readable table in
``benchmarks/results/tensor_tiling.txt``; EXPERIMENTS.md discusses the
regenerated numbers.
"""

from __future__ import annotations

from repro.core.config import WaveScalarConfig
from repro.sim.engine import simulate
from repro.sim.failures import CycleBudgetExhausted
from repro.workloads import Scale
from repro.workloads.tensor import gemm

#: (tile_m, tile_n, tile_k) geometries that divide the TINY 4x6x6
#: problem: from fully fine-grained to whole-matrix tiles.
GEOMETRIES = (
    (1, 1, 1),
    (2, 2, 2),
    (2, 3, 3),
    (4, 2, 2),
    (2, 6, 6),
    (4, 6, 6),
)
K_UNROLL = 3


def run_point(dataflow: str, tiles: tuple[int, int, int]) -> dict:
    tm, tn, tk = tiles
    graph = gemm.build(
        Scale.TINY, k=K_UNROLL, seed=0, dataflow=dataflow,
        tile_m=tm, tile_n=tn, tile_k=tk,
    )
    point = {
        "dataflow": dataflow,
        "tile_m": tm, "tile_n": tn, "tile_k": tk,
        "static_instructions": len(graph),
    }
    try:
        stats = simulate(graph, WaveScalarConfig(), max_cycles=500_000)
    except CycleBudgetExhausted:
        # Whole-matrix tiles put more simultaneously-live tokens in
        # flight than the golden config's matching table can hold.
        # The run does not thrash: within ~800 cycles it reaches a
        # deflection fixed point (``Engine.fixed_point``) -- every
        # live token bounces off a full set of older rows whose
        # partners sit behind three k-bound-stalled wave advances --
        # and the engine jumps to the budget.  That capacity deadlock
        # is a *finding* of the sweep, not a bug.
        point.update(finished=False, cycles=None, aipc=0.0,
                     memory_ops=None, matching_evictions=None)
        return point
    assert stats.output_values() == gemm.reference(Scale.TINY, seed=0)
    point.update(
        finished=True,
        cycles=stats.cycles,
        aipc=round(stats.aipc, 4),
        memory_ops=stats.memory_ops,
        matching_evictions=stats.matching_evictions,
    )
    return point


def pareto_frontier(points: list[dict]) -> list[dict]:
    """Minimize static size, maximize AIPC (finished points only)."""
    points = [p for p in points if p["finished"]]
    frontier = []
    for p in points:
        if not any(
            q["static_instructions"] <= p["static_instructions"]
            and q["aipc"] >= p["aipc"] and q is not p
            and (q["static_instructions"] < p["static_instructions"]
                 or q["aipc"] > p["aipc"])
            for q in points
        ):
            frontier.append(p)
    return frontier


def test_tensor_tiling_sweep(record, benchmark):
    def sweep():
        return [
            run_point(dataflow, tiles)
            for dataflow in gemm.DATAFLOWS
            for tiles in GEOMETRIES
        ]

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    frontier = pareto_frontier(points)

    header = (f"{'dataflow':<8} {'tiles':<10} {'static':>7} "
              f"{'cycles':>8} {'aipc':>7} {'memops':>7} {'evict':>6}")
    lines = [header, "-" * len(header)]
    frontier_keys = {
        (p["dataflow"], p["tile_m"], p["tile_n"], p["tile_k"])
        for p in frontier
    }
    for p in sorted(points, key=lambda p: -p["aipc"]):
        star = "*" if (p["dataflow"], p["tile_m"], p["tile_n"],
                       p["tile_k"]) in frontier_keys else " "
        tiles = f"{p['tile_m']}x{p['tile_n']}x{p['tile_k']:<6}"
        if not p["finished"]:
            lines.append(
                f"{p['dataflow']:<8} {tiles} "
                f"{p['static_instructions']:>7}      DNF (matching-"
                "table deadlock)"
            )
            continue
        lines.append(
            f"{p['dataflow']:<8} {tiles} "
            f"{p['static_instructions']:>7} {p['cycles']:>8} "
            f"{p['aipc']:>7.3f} {p['memory_ops']:>7} "
            f"{p['matching_evictions']:>5}{star}"
        )
    lines.append("(* = on the static-size/AIPC Pareto frontier; "
                 "DNF = deflection fixed point, no budget finishes)")
    record("tensor_tiling", "\n".join(lines))

    # Structural sanity the EXPERIMENTS.md narrative relies on.
    assert len(points) == len(gemm.DATAFLOWS) * len(GEOMETRIES)
    assert frontier, "Pareto frontier cannot be empty"
    # Most geometries complete on the golden config; the capacity
    # cliff only swallows the token-heaviest whole-matrix variants.
    finished = [p for p in points if p["finished"]]
    assert len(finished) >= 14
    for p in points:
        if not p["finished"]:
            assert p["tile_n"] * p["tile_k"] >= 36, (
                "only whole-matrix tiles may hit the matching cliff"
            )
    # Tile geometry is a real knob: static size must vary with it.
    for dataflow in gemm.DATAFLOWS:
        sizes = {p["static_instructions"] for p in points
                 if p["dataflow"] == dataflow}
        assert len(sizes) > 1, f"{dataflow}: tiling changed nothing"
    # Coarser tiles unroll more: whole-matrix tiles are the largest
    # static program within every dataflow.
    for dataflow in gemm.DATAFLOWS:
        by_tiles = {
            (p["tile_m"], p["tile_n"], p["tile_k"]): p
            for p in points if p["dataflow"] == dataflow
        }
        assert by_tiles[(4, 6, 6)]["static_instructions"] == max(
            p["static_instructions"] for p in by_tiles.values()
        )
