"""Small 3x3 valid convolution, weight-stationary by construction.

The nine filter taps load exactly once, before the loop, and ride as
loop invariants -- the dataflow analogue of pinning weights in a PE
register file.  :data:`TILE_W` is how many output columns each
iteration produces (the unroll factor of the column walk): per-iteration
instruction count traded against trip count on the same arithmetic.
"""

from __future__ import annotations

from ...isa.graph import DataflowGraph
from ...lang.builder import GraphBuilder
from ..base import Scale, scaled
from ..data import float_array
from .gemm import _checksum_loop

#: Input rows (scaled); input columns are fixed.  Valid 3x3 conv
#: shrinks each dimension by two.
BASE_H = 4
W = 6
#: Output columns per loop iteration; it must divide the output width.
TILE_W = 2


def _dims(scale: Scale) -> tuple[int, int, int, int]:
    h = scaled(BASE_H, scale)
    return h, W, h - 2, W - 2


def _inputs(seed: int, scale: Scale):
    h, w, h_out, w_out = _dims(scale)
    image = float_array(seed, "conv.in", h * w)
    taps = float_array(seed, "conv.w", 9)
    return image, taps, h, w, h_out, w_out


def build(scale: Scale = Scale.SMALL, k: int | None = 3,
          seed: int = 0) -> DataflowGraph:
    image, taps, h, w, h_out, w_out = _inputs(seed, scale)
    tile_w = TILE_W
    if tile_w < 1 or w_out % tile_w:
        raise ValueError(
            f"conv: tile_w={tile_w} must be >= 1 and divide {w_out}"
        )
    col_tiles = w_out // tile_w
    trip = h_out * col_tiles

    b = GraphBuilder("conv3x3")
    in_base = b.data("image", image)
    w_base = b.data("taps", taps)
    out_base = b.alloc("out", h_out * w_out)
    t = b.entry(0)

    # Weight-stationary: all nine taps load once, pre-loop.
    weights = [b.load(b.const(w_base + i, t)) for i in range(9)]

    lp = b.loop(
        [b.const(0, t)],
        invariants=[
            b.const(trip, t), b.const(in_base, t), b.const(out_base, t),
        ] + weights,
        k=k,
        label="pixels",
    )
    idx = lp.state[0]
    limit, i_b, o_b = lp.invariants[:3]
    wv = lp.invariants[3:]

    row = b.div(idx, b.const(col_tiles, idx))
    col0 = b.mul(b.mod(idx, b.const(col_tiles, idx)),
                 b.const(tile_w, idx))
    for p in range(tile_w):
        acc = b.const(0.0, idx)
        for dr in range(3):
            in_row = b.add(row, b.const(dr, row))
            row_off = b.mul(in_row, b.const(w, in_row))
            for dc in range(3):
                addr = b.add(i_b, b.add(row_off,
                                        b.add(col0, b.const(p + dc, col0))))
                acc = b.fadd(acc, b.fmul(b.load(addr), wv[dr * 3 + dc]))
        out_addr = b.add(o_b, b.add(b.mul(row, b.const(w_out, row)),
                                    b.add(col0, b.const(p, col0))))
        b.store(out_addr, acc)

    idx2 = b.add(idx, b.const(1, idx))
    lp.next_iteration(b.lt(idx2, limit), [idx2])
    exits = lp.end()

    total = _checksum_loop(b, exits[0], out_base, h_out * w_out, k)
    b.output(total, label="checksum")
    return b.finalize()


def reference(scale: Scale = Scale.SMALL, seed: int = 0) -> list:
    image, taps, h, w, h_out, w_out = _inputs(seed, scale)
    checksum = 0.0
    for r in range(h_out):
        for c in range(w_out):
            acc = 0.0
            for dr in range(3):
                for dc in range(3):
                    acc = acc + image[(r + dr) * w + c + dc] * taps[dr * 3 + dc]
            checksum = checksum + acc
    return [checksum]
