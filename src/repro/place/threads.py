"""Thread-to-cluster assignment.

The paper attributes WaveScalar's communication locality partly to "the
WaveScalar instruction placement algorithms [which] isolate individual
Splash threads into different portions of the die" (Section 4.3).  This
module implements that isolation: each thread is given a home cluster,
balancing load (instruction count) across clusters, with the master
thread pinned to cluster 0.
"""

from __future__ import annotations

from ..core.config import WaveScalarConfig


def assign_threads_to_clusters(
    thread_sizes: dict[int, int], config: WaveScalarConfig
) -> dict[int, int]:
    """Map each thread to a home cluster.

    Greedy balanced assignment: threads are placed largest-first onto
    the currently least-loaded cluster.  Thread 0 (the master) always
    lives in cluster 0 so program entry tokens start there.
    """
    load = [0] * config.clusters
    home: dict[int, int] = {}

    if 0 in thread_sizes:
        home[0] = 0
        load[0] += thread_sizes[0]

    rest = sorted(
        (t for t in thread_sizes if t != 0),
        key=lambda t: (-thread_sizes[t], t),
    )
    for thread in rest:
        cluster = min(range(config.clusters), key=lambda c: (load[c], c))
        home[thread] = cluster
        load[cluster] += thread_sizes[thread]
    return home
