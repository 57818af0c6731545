"""Shared construction patterns for workload kernels."""

from __future__ import annotations

from typing import Callable, Sequence

from ..lang.builder import GraphBuilder, Node


def pairwise_reduce(items: Sequence, op: Callable) -> object:
    """THE pairwise (balanced-tree) combination order.

    Both the graph-side reduction (:func:`reduce_tree`) and the
    pure-Python reference mirror (:func:`reduce_values`) delegate here,
    so the simulator and reference floating-point results cannot
    silently drift apart: any change to the order changes both sides
    at once, and the kernel mirror tests catch a change to either.
    """
    if not items:
        raise ValueError("nothing to reduce")
    level = list(items)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(op(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def reduce_tree(
    b: GraphBuilder, nodes: Sequence[Node], op: Callable[[Node, Node], Node]
) -> Node:
    """Combine ``nodes`` pairwise with ``op`` (balanced tree).

    Used by Splash2 masters to join per-thread partial results with
    log-depth rather than a serial chain.
    """
    return pairwise_reduce(nodes, op)


def reduce_values(values: Sequence, op: Callable) -> object:
    """Pure-Python mirror of :func:`reduce_tree`'s combination order.

    Reference implementations of multithreaded kernels must combine
    per-thread results in exactly this order so floating-point results
    match the simulator bit-for-bit.
    """
    return pairwise_reduce(values, op)


def spawn_workers(
    b: GraphBuilder,
    trigger: Node,
    n_threads: int,
    worker: Callable[[int, Node], Node],
) -> list[Node]:
    """Spawn ``n_threads`` worker threads and return their master-side
    results.

    ``worker(thread_index, seed_node)`` builds one thread's body (the
    builder is already switched into the thread) and returns the
    thread's result node.  Threads get ids 1..n (0 is the master).
    """
    results = []
    for t in range(n_threads):
        (seed,) = b.spawn_thread(t + 1, [b.const(t, trigger)])
        result = worker(t, seed)
        results.append(b.end_thread(result))
    return results
