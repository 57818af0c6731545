"""The hierarchical interconnect model.

Implements the four network levels of Section 3.4 as a latency +
bandwidth model:

* **intra-pod** -- producer and consumer share a bypass network:
  1 cycle, no contention (dedicated wires).
* **intra-domain** -- each PE owns a dedicated broadcast result bus:
  one result per cycle per PE (the PE-side serialisation), 5 cycles of
  wire/pipeline latency.
* **intra-cluster** -- through the sending domain's NET pseudo-PE, over
  the complete point-to-point network, into the receiving domain's NET
  pseudo-PE, which can inject one operand per cycle into its domain:
  9 cycles base latency.
* **inter-cluster** -- dimension-order routed over the 2D mesh of
  cluster switches; each port moves ``mesh_bandwidth`` operands per
  cycle per virtual channel direction; latency is 9 + hop count.

Bandwidth is modelled with per-resource reservation ledgers: a message
reserves the earliest cycle with a free slot on every serialised
resource on its path, which yields queueing delay under contention
without simulating individual buffer slots.  Queue *depth* is not
modelled: nothing caps how far ahead of the current cycle a
reservation may land, and no sender stalls on a full queue.  The
config's ``mesh_queue_entries`` (8) and ``output_queue_entries`` (4)
record Table 1 and are read by no simulator code.

A ledger keeps every reservation of the run (one dict entry per busy
cycle, never retired), so a reservation costs the same at the start
of a run and at the end.

The engine does not call :meth:`Interconnect.route` per token.  The
level between two PEs is fixed once the instructions are placed, so
the engine asks :meth:`Interconnect.level_between` once per producer
and consumer pair, when it fills its route table, and then makes the
reservations inline.  Those are the PE result bus and the NET inject;
a grid message goes through ``_route_grid``.  ``route`` itself serves
``tests/sim/test_network.py`` and the benchmark's tracer
(``bench/tracing.py`` wraps it).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.config import WaveScalarConfig
from ..stats import SimStats


class BandwidthLedger:
    """Tracks slot reservations for a resource serving N ops/cycle."""

    __slots__ = ("per_cycle", "_used")

    def __init__(self, per_cycle: int) -> None:
        self.per_cycle = per_cycle
        self._used: dict[int, int] = {}

    def reserve(self, cycle: int) -> int:
        """Reserve the earliest slot at or after ``cycle``; returns the
        cycle actually granted.  The cost does not depend on how many
        reservations the ledger already holds."""
        t = cycle
        used = self._used
        get = used.get
        count = get(t, 0)
        per_cycle = self.per_cycle
        while count >= per_cycle:
            t += 1
            count = get(t, 0)
        used[t] = count + 1
        return t


@dataclass(frozen=True, slots=True)
class Route:
    """The cost of sending one message."""

    level: str
    latency: int
    hops: int
    queue_wait: int


class Interconnect:
    """Latency/bandwidth model of the full hierarchy.

    Routing decomposes into a *static* part -- the level between two
    PEs, the dimension-order link sequence between two clusters, the
    base latencies -- and a *dynamic* part, the bandwidth-ledger
    reservations.  The static part is pure topology math, identical
    for every message between the same endpoints, so it is memoised
    per ``(src, dst)`` pair.  The level memo is a build-time helper:
    the engine reads it once per pair while filling its route table,
    and its per-token path holds only the reservations that depend on
    ``cycle``.  The mesh-path memo still serves every grid message.
    """

    def __init__(self, config: WaveScalarConfig, stats: SimStats) -> None:
        self.config = config
        self.stats = stats
        p = config
        # One result bus per PE (1 result/cycle onto the domain bus).
        self._pe_bus = [
            BandwidthLedger(1) for _ in range(p.total_pes)
        ]
        # One NET pseudo-PE per domain: 1 operand/cycle injected into
        # the domain from outside.
        n_domains = p.clusters * p.domains_per_cluster
        self._net_in = [
            BandwidthLedger(p.net_pe_bandwidth) for _ in range(n_domains)
        ]
        # Mesh links: per (cluster, direction) with `mesh_bandwidth`
        # ops/cycle.  Directions: 0=E 1=W 2=N 3=S.
        self._mesh_links: dict[tuple[int, int], BandwidthLedger] = {}
        # Static-topology memos (pure functions of the endpoints).
        self._total_pes = p.total_pes
        self._pes_per_domain = p.pes_per_domain
        self._pes_per_cluster = p.pes_per_cluster
        self._pods_enabled = p.pods_enabled
        self._pod_route = Route("pod", p.pod_latency, 0, 0)
        self._level_cache: dict[int, str] = {}
        self._mesh_paths: \
            dict[int, tuple[tuple[BandwidthLedger, ...], int]] = {}

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def pod_of(self, pe: int) -> int:
        return pe // 2

    def domain_of(self, pe: int) -> int:
        return pe // self._pes_per_domain

    def cluster_of(self, pe: int) -> int:
        return pe // self._pes_per_cluster

    def level_between(self, src_pe: int, dst_pe: int) -> str:
        key = src_pe * self._total_pes + dst_pe
        level = self._level_cache.get(key)
        if level is None:
            level = self._classify(src_pe, dst_pe)
            self._level_cache[key] = level
        return level

    def _classify(self, src_pe: int, dst_pe: int) -> str:
        if self._pods_enabled and self.pod_of(src_pe) == self.pod_of(
            dst_pe
        ):
            return "pod"
        if src_pe == dst_pe:
            return "pod"
        if self.domain_of(src_pe) == self.domain_of(dst_pe):
            return "domain"
        if self.cluster_of(src_pe) == self.cluster_of(dst_pe):
            return "cluster"
        return "grid"

    def _mesh_link(self, cluster: int, direction: int) -> BandwidthLedger:
        key = (cluster, direction)
        ledger = self._mesh_links.get(key)
        if ledger is None:
            ledger = BandwidthLedger(self.config.mesh_bandwidth)
            self._mesh_links[key] = ledger
        return ledger

    def _mesh_path(
        self, src_cluster: int, dst_cluster: int
    ) -> tuple[tuple[BandwidthLedger, ...], int]:
        """The dimension-order (X then Y) link sequence between two
        clusters -- static topology, computed once per pair."""
        key = src_cluster * self.config.clusters + dst_cluster
        cached = self._mesh_paths.get(key)
        if cached is not None:
            return cached
        cfg = self.config
        x0, y0 = cfg.cluster_xy(src_cluster)
        x1, y1 = cfg.cluster_xy(dst_cluster)
        cols, _ = cfg.grid_shape
        links: list[BandwidthLedger] = []
        cx, cy = x0, y0
        while cx != x1:
            direction = 0 if x1 > cx else 1
            links.append(self._mesh_link(cy * cols + cx, direction))
            cx += 1 if x1 > cx else -1
        while cy != y1:
            direction = 3 if y1 > cy else 2
            links.append(self._mesh_link(cy * cols + cx, direction))
            cy += 1 if y1 > cy else -1
        cached = (tuple(links), len(links))
        self._mesh_paths[key] = cached
        return cached

    def _route_mesh(self, src_cluster: int, dst_cluster: int,
                    cycle: int) -> tuple[int, int, int]:
        """Reserve each link of the (memoised) dimension-order path;
        returns (ready_cycle, hops, queue_wait)."""
        links, hops = self._mesh_path(src_cluster, dst_cluster)
        t = cycle
        wait = 0
        for link in links:
            granted = link.reserve(t)
            wait += granted - t
            t = granted + 1  # one cycle per hop
        return t, hops, wait

    # ------------------------------------------------------------------
    # The main entry point
    # ------------------------------------------------------------------
    def route(
        self, src_pe: int, dst_pe: int, cycle: int, kind: str
    ) -> Route:
        """Reserve the path for one message leaving ``src_pe`` at
        ``cycle``; returns level/latency/hops.

        The caller delivers the message at ``cycle + route.latency``.
        The engine inlines this per token; its callers are
        ``tests/sim/test_network.py`` and ``bench/tracing.py``, which
        wraps it.
        """
        cfg = self.config
        level = self.level_between(src_pe, dst_pe)

        if level == "pod":
            route = self._pod_route
            self.stats.record_message(kind, "pod", route.latency)
            return route

        # All other levels leave the PE on its result bus.
        bus_granted = self._pe_bus[src_pe].reserve(cycle)
        wait = bus_granted - cycle

        if level == "domain":
            latency = wait + cfg.domain_latency
            self.stats.record_message(kind, "domain", latency)
            return Route("domain", latency, 0, wait)

        if level == "cluster":
            # Through sender's NET pseudo-PE, point-to-point link, into
            # the receiver domain's NET pseudo-PE (1 op/cycle inject).
            inject = self._net_in[self.domain_of(dst_pe)].reserve(
                bus_granted + cfg.cluster_latency - 1
            )
            latency = inject + 1 - cycle
            self.stats.record_message(kind, "cluster", latency)
            return Route("cluster", latency, 0, wait)

        # Inter-cluster: bus, NET, mesh, NET, domain inject.
        src_cluster = self.cluster_of(src_pe)
        return self._route_grid(src_pe, dst_pe, src_cluster, cycle,
                                bus_granted, kind)

    def _route_grid(self, src_pe: int, dst_pe: int, src_cluster: int,
                    cycle: int, bus_granted: int, kind: str) -> Route:
        cfg = self.config
        bus_wait = bus_granted - cycle
        dst_cluster = self.cluster_of(dst_pe)
        mesh_entry = bus_granted + 4  # reach the cluster switch
        mesh_exit, hops, mesh_wait = self._route_mesh(
            src_cluster, dst_cluster, mesh_entry
        )
        inject = self._net_in[self.domain_of(dst_pe)].reserve(
            mesh_exit + cfg.intercluster_base - 5
        )
        latency = inject + 1 - cycle
        self.stats.record_message(kind, "grid", latency, hops)
        self.stats.mesh_queue_wait_sum += mesh_wait
        self.stats.mesh_messages += 1
        return Route("grid", latency, hops, bus_wait + mesh_wait)

    # ------------------------------------------------------------------
    # Cluster-to-cluster memory/coherence messages (store buffer and L1
    # traffic use the switch port dedicated to them -- Section 3.4.3).
    # ------------------------------------------------------------------
    def route_clusters(self, src: int, dst: int, cycle: int) -> int:
        """Latency of one memory-system message between two clusters,
        including mesh queueing.  Recorded as memory traffic."""
        cfg = self.config
        if src == dst:
            self.stats.record_message("memory", "cluster", 1)
            return 1
        mesh_entry = cycle + 4
        mesh_exit, hops, mesh_wait = self._route_mesh(src, dst, mesh_entry)
        latency = (mesh_exit - cycle) + (cfg.intercluster_base - 5)
        self.stats.record_message("memory", "grid", latency, hops)
        self.stats.mesh_queue_wait_sum += mesh_wait
        self.stats.mesh_messages += 1
        return latency
