"""``fft`` stand-in: parallel radix-2 butterfly stage.

Splash2's FFT performs per-processor butterfly passes over a shared
signal array with a transpose between stages.  Each thread here
applies one radix-2 stage (twiddle multiply, add/subtract, write-back)
to its contiguous segment -- strided FP loads, two stores per
butterfly, embarrassingly parallel across threads, which is what makes
the original scale with cluster count in the paper's Table 5.
"""

from __future__ import annotations

from ...isa.graph import DataflowGraph
from ...lang.builder import GraphBuilder
from ..base import Scale, partition, scaled
from ..data import float_array
from ..kernel_utils import reduce_tree, reduce_values, spawn_workers

BASE_N = 64  # total butterflies (half-points); n signal points = 2x
#: Words per signal point (complex double + padding in the original).
STRIDE = 8


def _inputs(seed: int, scale: Scale) -> tuple[list[float], list[float], int]:
    half = scaled(BASE_N, scale)
    signal = float_array(seed, "fft.sig", 2 * half)
    twiddle = float_array(seed, "fft.tw", half, -1.0, 1.0)
    return signal, twiddle, half


def build(scale: Scale = Scale.SMALL, threads: int = 4,
          k: int | None = 4, seed: int = 0) -> DataflowGraph:
    signal, twiddle, half = _inputs(seed, scale)
    if threads > half:
        raise ValueError(f"fft: {threads} threads exceed {half} butterflies")
    b = GraphBuilder("fft")
    sig_b = b.data("signal", signal, stride=STRIDE)
    tw_b = b.data("twiddle", twiddle)
    t = b.entry(0)
    parts = partition(half, threads)

    def worker(tid: int, seed_node):
        start, stop = parts[tid]
        lp = b.loop(
            [b.const(start, seed_node), b.const(0.0, seed_node)],
            invariants=[
                b.const(stop, seed_node),
                b.const(sig_b, seed_node),
                b.const(tw_b, seed_node),
                b.const(half, seed_node),
            ],
            k=k,
            label=f"fft.t{tid}",
        )
        j, acc = lp.state
        stop_c, sig_base, tw_base, half_c = lp.invariants
        off = b.mul(j, b.const(STRIDE, j))
        off_hi = b.mul(b.add(j, half_c), b.const(STRIDE, j))
        a = b.load(b.add(sig_base, off))
        bb = b.load(b.add(sig_base, off_hi))
        w = b.load(b.add(tw_base, j))
        wb = b.fmul(w, bb)
        hi = b.fadd(a, wb)
        lo = b.fsub(a, wb)
        b.store(b.add(sig_base, off), hi)
        b.store(b.add(sig_base, off_hi), lo)
        acc2 = b.fadd(acc, hi)
        j2 = b.add(j, b.const(1, j))
        lp.next_iteration(b.lt(j2, stop_c), [j2, acc2])
        exits = lp.end()
        return exits[1]

    results = spawn_workers(b, t, threads, worker)
    b.output(reduce_tree(b, results, b.fadd), label="checksum")
    return b.finalize()


def reference(scale: Scale = Scale.SMALL, threads: int = 4,
              seed: int = 0) -> list:
    signal, twiddle, half = _inputs(seed, scale)
    parts = partition(half, threads)
    partials = []
    for start, stop in parts:
        acc = 0.0
        for j in range(start, stop):
            a, bb, w = signal[j], signal[j + half], twiddle[j]
            acc = acc + (a + w * bb)
        partials.append(acc)
    return [reduce_values(partials, lambda x, y: x + y)]
