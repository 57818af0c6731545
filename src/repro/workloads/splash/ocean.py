"""``ocean`` stand-in: red-black-style grid relaxation.

Splash2's Ocean solves eddy-current PDEs with stencil sweeps over
partitioned grids; neighbouring partitions share boundary rows.  Each
thread here applies a 4-point stencil to its strip of interior rows,
writing a second grid -- nearest-neighbour loads (including rows owned
by the adjacent thread), one store per point, FP adds/multiplies.
"""

from __future__ import annotations

from ...isa.graph import DataflowGraph
from ...lang.builder import GraphBuilder
from ..base import Scale, partition, scaled
from ..data import float_array
from ..kernel_utils import reduce_tree, reduce_values, spawn_workers

BASE_ROWS = 16  # interior rows
WIDTH = 8


def _inputs(seed: int, scale: Scale) -> tuple[list[float], int]:
    rows = scaled(BASE_ROWS, scale) + 2  # + boundary rows
    grid = float_array(seed, "ocean.g", rows * WIDTH)
    return grid, rows


def build(scale: Scale = Scale.SMALL, threads: int = 4,
          k: int | None = 4, seed: int = 0) -> DataflowGraph:
    grid, rows = _inputs(seed, scale)
    interior = rows - 2
    if threads > interior:
        raise ValueError(f"ocean: {threads} threads exceed {interior} rows")
    b = GraphBuilder("ocean")
    g_b = b.data("grid", grid)
    o_b = b.alloc("out", rows * WIDTH)
    t = b.entry(0)
    parts = partition(interior, threads)

    def worker(tid: int, seed_node):
        start, stop = parts[tid]
        lp = b.loop(
            [b.const(start + 1, seed_node), b.const(0.0, seed_node)],
            invariants=[b.const(stop + 1, seed_node),
                        b.const(g_b, seed_node), b.const(o_b, seed_node)],
            k=k,
            label=f"ocean.t{tid}",
        )
        r, acc = lp.state
        stop_c, g_base, o_base = lp.invariants

        row = b.mul(r, b.const(WIDTH, r))
        up = b.sub(row, b.const(WIDTH, row))
        down = b.add(row, b.const(WIDTH, row))
        acc2 = acc
        quarter = b.const(0.25, r)
        for c in range(1, WIDTH - 1):
            n_ = b.load(b.add(g_base, b.add(up, b.const(c, row))))
            s_ = b.load(b.add(g_base, b.add(down, b.const(c, row))))
            w_ = b.load(b.add(g_base, b.add(row, b.const(c - 1, row))))
            e_ = b.load(b.add(g_base, b.add(row, b.const(c + 1, row))))
            new = b.fmul(quarter, b.fadd(b.fadd(n_, s_), b.fadd(w_, e_)))
            b.store(b.add(o_base, b.add(row, b.const(c, row))), new)
            acc2 = b.fadd(acc2, new)

        r2 = b.add(r, b.const(1, r))
        lp.next_iteration(b.lt(r2, stop_c), [r2, acc2])
        exits = lp.end()
        return exits[1]

    results = spawn_workers(b, t, threads, worker)
    b.output(reduce_tree(b, results, b.fadd), label="residual")
    return b.finalize()


def reference(scale: Scale = Scale.SMALL, threads: int = 4,
              seed: int = 0) -> list:
    grid, rows = _inputs(seed, scale)
    interior = rows - 2
    parts = partition(interior, threads)
    partials = []
    for start, stop in parts:
        acc = 0.0
        for r in range(start + 1, stop + 1):
            row = r * WIDTH
            for c in range(1, WIDTH - 1):
                new = 0.25 * (
                    (grid[row - WIDTH + c] + grid[row + WIDTH + c])
                    + (grid[row + c - 1] + grid[row + c + 1])
                )
                acc = acc + new
        partials.append(acc)
    return [reduce_values(partials, lambda x, y: x + y)]
