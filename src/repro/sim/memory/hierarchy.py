"""The data-memory hierarchy (Section 3.3.2).

Per cluster: a 4-way set-associative L1 with 128-byte lines (3-cycle
hit, 4 accesses/cycle).  Chip-wide: a directory-based MESI protocol
keeps the L1s coherent, with the directory colocated with the banks of
an address-interleaved L2 (20-30 cycle hits depending on distance).
Main memory costs 200 cycles.  All coherence traffic crosses the
inter-cluster mesh and is accounted as memory traffic (Figure 8).

Transactions are modelled atomically at computed completion times with
per-line serialisation standing in for MSHR transient states: two
requests to the same line are processed back-to-back in arrival order,
each seeing the directory state the previous one left behind.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ...area.floorplan import Floorplan
from ...core.config import WaveScalarConfig
from ..network.topology import BandwidthLedger as _PortLedger
from ..network.topology import Interconnect
from ..stats import SimStats

#: MESI stable states tracked per L1 line.
MODIFIED, EXCLUSIVE, SHARED = "M", "E", "S"


class CacheArray:
    """A set-associative, LRU cache array tracking line presence."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = max(1, sets)
        self.ways = max(1, ways)
        # Sets materialise on first touch: a sweep cell touches a tiny
        # fraction of a megabyte-class L2's sets, so eagerly building
        # one OrderedDict per set dominated engine construction.
        self._data: dict[int, OrderedDict[int, str]] = {}

    def _set_of(self, line: int) -> OrderedDict[int, str]:
        index = line % self.sets
        ways = self._data.get(index)
        if ways is None:
            ways = self._data[index] = OrderedDict()
        return ways

    def lookup(self, line: int) -> str | None:
        ways = self._set_of(line)
        state = ways.get(line)
        if state is not None:
            ways.move_to_end(line)
        return state

    def insert(self, line: int, state: str) -> tuple[int, str] | None:
        """Insert/refresh ``line``; returns the evicted (line, state)
        if a victim was displaced."""
        ways = self._set_of(line)
        victim = None
        if line not in ways and len(ways) >= self.ways:
            victim = ways.popitem(last=False)
        ways[line] = state
        ways.move_to_end(line)
        return victim

    def set_state(self, line: int, state: str) -> None:
        ways = self._set_of(line)
        if line in ways:
            ways[line] = state

    def remove(self, line: int) -> str | None:
        return self._set_of(line).pop(line, None)

    def __contains__(self, line: int) -> bool:
        return line in self._set_of(line)


@dataclass(slots=True)
class DirectoryEntry:
    """Directory knowledge about one line's L1 copies."""

    owner: int | None = None  # cluster holding M/E
    sharers: set[int] = field(default_factory=set)


class MemoryHierarchy:
    """Coherent two-level cache hierarchy over the cluster grid."""

    def __init__(
        self,
        config: WaveScalarConfig,
        network: Interconnect,
        stats: SimStats,
        backing: dict[int, int | float] | None = None,
    ) -> None:
        self.config = config
        self.network = network
        self.stats = stats
        self.data: dict[int, int | float] = dict(backing or {})
        self.l1 = [
            CacheArray(config.l1_sets, config.l1_associativity)
            for _ in range(config.clusters)
        ]
        self._l1_ports = [
            _PortLedger(config.l1_ports) for _ in range(config.clusters)
        ]
        if config.l2_mb > 0:
            l2_ways = 8
            self.l2: CacheArray | None = CacheArray(
                max(1, config.l2_lines // l2_ways), l2_ways
            )
            self.n_banks = max(4, config.clusters)
        else:
            self.l2 = None
            self.n_banks = max(4, config.clusters)
        self.directory: dict[int, DirectoryEntry] = {}
        self._line_busy: dict[int, int] = {}
        # Config scalars every access reads, hoisted once.
        self._line_words = config.line_words
        self._l1_hit_latency = config.l1_hit_latency
        # Physical geometry: L2 banks sit on the perimeter of the
        # cluster array; their access latency is distance-dependent
        # (Section 3.3.2's 20-30 cycle band), a pure function of
        # (cluster, bank) that each miss would otherwise recompute.
        self.floorplan = Floorplan(config)
        self._l2_latencies: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def line_of(self, word_addr: int) -> int:
        return int(word_addr) // self.config.line_words

    def bank_home(self, line: int) -> int:
        """Cluster adjacent to the L2 bank/directory slice for ``line``."""
        return (line % self.n_banks) % self.config.clusters

    # ------------------------------------------------------------------
    # Data access (functional): the store buffer performs reads/writes
    # at issue time; the hierarchy provides the timing.
    # ------------------------------------------------------------------
    def read_word(self, word_addr: int) -> int | float:
        return self.data.get(int(word_addr), 0)

    def write_word(self, word_addr: int, value: int | float) -> None:
        self.data[int(word_addr)] = value

    # ------------------------------------------------------------------
    # Timed access
    # ------------------------------------------------------------------
    def access(
        self, cluster: int, word_addr: int, is_store: bool, cycle: int
    ) -> int:
        """Perform one L1 access from ``cluster`` starting at ``cycle``;
        returns the completion cycle.  Updates caches, directory and
        traffic statistics."""
        line = int(word_addr) // self._line_words
        start = self._l1_ports[cluster].reserve(cycle)
        busy = self._line_busy.get(line, 0)
        if busy > start:
            start = busy

        # CacheArray.lookup, inlined: an untouched set holds nothing,
        # and the miss path below materialises it on its insert.
        l1 = self.l1[cluster]
        ways = l1._data.get(line % l1.sets)
        state = None
        if ways is not None:
            state = ways.get(line)
            if state is not None:
                ways.move_to_end(line)
                if not is_store or state in (MODIFIED, EXCLUSIVE):
                    # L1 hit with sufficient permission.
                    self.stats.l1_hits += 1
                    if is_store and state == EXCLUSIVE:
                        ways[line] = MODIFIED
                    done = start + self._l1_hit_latency
                    self._line_busy[line] = done
                    return done

        # Miss (or store upgrade).  Consult the directory.
        self.stats.l1_misses += 1
        done = self._miss(cluster, line, is_store, start, upgrade=state
                          is not None)
        self._line_busy[line] = done
        return done

    # ------------------------------------------------------------------
    def _miss(
        self, cluster: int, line: int, is_store: bool, start: int,
        upgrade: bool,
    ) -> int:
        cfg = self.config
        home = self.bank_home(line)
        entry = self.directory.get(line)
        if entry is None:
            entry = self.directory[line] = DirectoryEntry()
        t = start + cfg.l1_hit_latency  # detect the miss

        # Request travels to the directory at the line's home bank.
        t = self._coherence_hop(cluster, home, t)

        if entry.owner is not None and entry.owner != cluster:
            # Another cluster holds M/E: forward, owner writes back and
            # downgrades (to S on a load, to I on a store).
            owner = entry.owner
            t = self._coherence_hop(home, owner, t)
            t += cfg.l1_hit_latency  # owner L1 probe
            self.stats.coherence_messages += 1
            if is_store:
                self.l1[owner].remove(line)
                self.stats.invalidations += 1
                entry.owner = None
                entry.sharers.discard(owner)
            else:
                self.l1[owner].set_state(line, SHARED)
                entry.owner = None
                entry.sharers.add(owner)
            if self.l2 is not None:
                self.l2.insert(line, MODIFIED)
            # Data forwarded owner -> requester.
            t = self._coherence_hop(owner, cluster, t)
        else:
            if is_store and entry.sharers - {cluster}:
                # Invalidate all other sharers (overlapped; charge one
                # round trip to the farthest sharer).
                worst = 0
                for sharer in sorted(entry.sharers - {cluster}):
                    self.l1[sharer].remove(line)
                    self.stats.invalidations += 1
                    self.stats.coherence_messages += 1
                    hop = self._coherence_latency(home, sharer)
                    worst = max(worst, 2 * hop)
                entry.sharers = {cluster} if cluster in entry.sharers \
                    else set()
                t += worst
            # Fetch the data: L2 (if present and holding) else DRAM.
            if self.l2 is not None and self.l2.lookup(line) is not None:
                self.stats.l2_hits += 1
                t += self._l2_latency(cluster, line)
            else:
                self.stats.l2_misses += 1
                if self.l2 is not None:
                    t += self._l2_latency(cluster, line)
                    victim = self.l2.insert(line, SHARED)
                    if victim is not None:
                        pass  # L2 writeback to DRAM, off the critical path
                t += cfg.dram_latency
            # Data reply home -> requester.
            t = self._coherence_hop(home, cluster, t)

        # Install in the requester's L1.
        new_state = MODIFIED if is_store else (
            EXCLUSIVE if not entry.sharers and entry.owner is None else SHARED
        )
        victim = self.l1[cluster].insert(line, new_state)
        if victim is not None:
            self._evict(cluster, *victim)
        if new_state in (MODIFIED, EXCLUSIVE):
            entry.owner = cluster
            entry.sharers.discard(cluster)
        else:
            entry.sharers.add(cluster)
        if upgrade and new_state == MODIFIED:
            # The stale S copy is subsumed by the refreshed M line.
            entry.sharers.discard(cluster)
        return t

    def _evict(self, cluster: int, line: int, state: str) -> None:
        """Handle an L1 victim: update directory, write back if dirty."""
        entry = self.directory.get(line)
        if entry is not None:
            if entry.owner == cluster:
                entry.owner = None
            entry.sharers.discard(cluster)
        if state == MODIFIED:
            # Writeback to L2/DRAM: traffic only, off the critical path.
            home = self.bank_home(line)
            if cluster != home:
                self.stats.coherence_messages += 1
            if self.l2 is not None:
                self.l2.insert(line, MODIFIED)

    # ------------------------------------------------------------------
    def _coherence_latency(self, a: int, b: int) -> int:
        if a == b:
            return 1
        return self.config.intercluster_base + self.config.cluster_distance(
            a, b
        )

    def _coherence_hop(self, a: int, b: int, cycle: int) -> int:
        """One coherence message a -> b departing at ``cycle``."""
        if a == b:
            return cycle + 1
        route = self.network.route_clusters(a, b, cycle)
        self.stats.coherence_messages += 1
        return cycle + route

    def _l2_latency(self, cluster: int, line: int) -> int:
        """Distance-dependent bank access (floorplan geometry),
        memoised per (cluster, bank)."""
        n_banks = self.floorplan.n_banks
        bank = line % n_banks
        key = cluster * n_banks + bank
        latency = self._l2_latencies.get(key)
        if latency is None:
            latency = self._l2_latencies[key] = \
                self.floorplan.l2_latency(cluster, bank)
        return latency
