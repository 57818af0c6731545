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

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial

from ...area.floorplan import Floorplan
from ...core.config import WaveScalarConfig
from ..network.topology import BandwidthLedger as _PortLedger
from ..network.topology import Interconnect
from ..stats import SimStats

#: MESI stable states tracked per L1 line.
MODIFIED, EXCLUSIVE, SHARED = "M", "E", "S"

#: L2 associativity, the same at every L2 size.
L2_WAYS = 8


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

    def lines(self) -> set[int]:
        """Every line the array holds."""
        return {line for ways in self._data.values() for line in ways}


def l2_sets(config: WaveScalarConfig) -> int:
    """Sets of the L2 a :class:`MemoryHierarchy` builds for ``config``
    (``l2_mb > 0``)."""
    return max(1, config.l2_lines // L2_WAYS)


def fit_sets(counts: dict[int, int], sets: int, ways: int) -> int:
    """The fewest sets, halving from ``sets``, at which no set holds
    more than ``ways`` lines, given ``counts``: how many lines fall in
    each set of ``sets`` (an index absent holds none).  Set ``i`` of
    ``sets // 2`` holds the lines of sets ``i`` and ``i + sets // 2``,
    so each halving folds the counts; it stops at an odd set count or
    at the first count that would overflow.  ``sets`` itself is
    returned without a look: the caller vouches that it fits."""
    while sets % 2 == 0:
        half = sets // 2
        folded: dict[int, int] = {}
        for index, count in counts.items():
            folded[index % half] = folded.get(index % half, 0) + count
        if max(folded.values(), default=0) > ways:
            break
        counts, sets = folded, half
    return sets


def certifies(
    certifier: WaveScalarConfig, sibling: WaveScalarConfig,
    l1_fit_sets: int, l2_fit_sets: int,
) -> bool:
    """Whether a run on ``certifier`` whose footprint fits
    ``l1_fit_sets`` L1 sets and ``l2_fit_sets`` L2 sets
    (:meth:`MemoryHierarchy.fit`; 0 for a level that evicted) is,
    cycle for cycle, the run on ``sibling``: every ``SimStats`` field
    equal, so the sibling's cell need not be simulated.

    The configs must be equal in every field but ``l1_kb`` and
    ``l2_mb``.  Then a level whose size differs, in either direction,
    must satisfy:

    * L2 (``l2_mb``): both sizes nonzero, and the sibling's L2 set
      count a multiple of ``l2_fit_sets``;
    * L1 (``l1_kb``): the sibling's L1 set count a multiple of
      ``l1_fit_sets``, and -- when the sibling has an L2 -- every
      (cluster, bank) L2 latency equal under both floorplans.

    A fit of 0 refuses every sibling that differs at that level.

    Proof.  This is the simplest form of the LRU inclusion property
    (Mattson et al., IBM Systems Journal, 1970): a set that never
    evicts holds every line ever put in it and not since removed.

    *The fit.*  A fit ``f`` of a run says: an array of ``m * f`` sets,
    for any ``m >= 1``, evicts nothing in that run.  The certifier's
    own set count ``S`` is such a fit when its run evicted nothing.
    *Nesting:* the lines of one set of the larger array (``line %
    (m * S) == i``) all fall in one set of the smaller (``line % S ==
    i % S``), so with as many ways a larger set never holds more than
    a smaller one ever did.  Halving goes below ``S`` only while the
    lines the level ever held -- every line an L1 inserted, which
    outlive invalidation in the count, and every line resident in the
    L2 at the end, which are all it ever held when nothing was evicted
    -- put no more than ``ways`` in any set of ``f``; by the same
    nesting they put no more in any set of a multiple of ``f``, and an
    array whose every set is ever offered at most ``ways`` lines never
    displaces a victim.  The fit is a fact about the run, not the
    config: a reused record carries its certifier's, and certifies
    as that run would.

    *One level.*  Suppose both runs have made the same accesses at
    the same cycles so far, so each array of the level has seen the
    same inserts, removes and state changes -- a prefix of the
    certifier's run.  Both set counts are multiples of the fit, so
    neither array has displaced a victim, and each holds exactly the
    lines inserted into it and not removed since, in the same states.
    LRU order -- all they differ in -- is read only to choose a
    victim, which never happens.  So every lookup answers the same.
    What makes the premise hold in this module:

    * the L2 has :data:`L2_WAYS` ways at every size, L1s
      ``l1_associativity`` (a field both configs share);
    * only ``lookup(...) is not None`` is read from the L2, never a
      line's state, and an L2 line leaves only by eviction;
    * with ``l2_mb == 0`` there is no L2 array and no L2 latency, so
      that size cannot pair with a nonzero one;
    * :meth:`MemoryHierarchy._l2_latency` reads the floorplan, never
      ``l2_mb``; the floorplan reads ``l1_kb`` through the cluster
      area (``cluster_side``), which is why the L1 rule compares the
      latencies;
    * nothing else the simulator reads -- placement, network, engine,
      store buffer -- depends on ``l1_kb`` or ``l2_mb``.

    So the next access costs the same cycles in both runs, and by
    induction the runs are equal.  Neither run evicts at a level that
    differs; every other count is the same run's.  When both sizes
    differ, the config with the certifier's L1 and the sibling's L2
    sits between them: the L2 rule makes its run the certifier's (so
    its L1 fit is the certifier's too), and the L1 rule takes it to
    the sibling, its floorplan being the certifier's.
    """
    if replace(certifier, l1_kb=sibling.l1_kb,
               l2_mb=sibling.l2_mb) != sibling:
        return False
    if certifier.l2_mb != sibling.l2_mb and (
            certifier.l2_mb == 0 or sibling.l2_mb == 0
            or not _holds(l2_fit_sets, l2_sets(sibling))):
        return False
    if certifier.l1_kb != sibling.l1_kb and (
            not _holds(l1_fit_sets, sibling.l1_sets)
            or sibling.l2_mb and not _l2_latencies_agree(certifier,
                                                         sibling)):
        return False
    return True


def _set_counts(lines, sets: int) -> dict[int, int]:
    """How many of ``lines`` fall in each set of ``sets``."""
    counts: dict[int, int] = {}
    for line in lines:
        counts[line % sets] = counts.get(line % sets, 0) + 1
    return counts


def upward_fit(config: WaveScalarConfig, l1_evictions: int,
               l2_evictions: int) -> tuple[int, int]:
    """The fit a run on ``config`` certifies from its eviction counts
    alone: a level's own set count if it evicted nothing, else 0.
    Under :func:`certifies` it reaches only siblings whose caches are
    larger (multiples of the run's own set counts)."""
    return (
        0 if l1_evictions else config.l1_sets,
        0 if l2_evictions or config.l2_mb == 0 else l2_sets(config),
    )


def _holds(fit: int, sets: int) -> bool:
    """Whether an array of ``sets`` sets evicts nothing in a run of
    fit ``fit``."""
    return fit > 0 and sets % fit == 0


@cache
def _l2_latencies_agree(a: WaveScalarConfig, b: WaveScalarConfig) -> bool:
    """Whether every (cluster, bank) L2 latency is the same under the
    floorplans of ``a`` and ``b`` (same cluster count), per pair."""
    plan_a, plan_b = Floorplan(a), Floorplan(b)
    return all(
        plan_a.l2_latency(cluster, bank) == plan_b.l2_latency(cluster, bank)
        for cluster in range(a.clusters)
        for bank in range(plan_a.n_banks)
    )


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
        # A cluster's L1 and its port ledger come into being with its
        # first access (a hit stays one dict lookup): most cells touch
        # memory from one or two clusters of sixteen, and an untouched
        # L1 holds nothing.
        self.l1: defaultdict[int, CacheArray] = defaultdict(
            partial(CacheArray, config.l1_sets, config.l1_associativity)
        )
        #: Per cluster, the lines invalidation took out of its L1: with
        #: the lines it holds, every line it ever held unless it
        #: evicted (:meth:`fit`).
        self._l1_removed: defaultdict[int, set[int]] = defaultdict(set)
        self._l1_ports: defaultdict[int, _PortLedger] = defaultdict(
            partial(_PortLedger, config.l1_ports)
        )
        if config.l2_mb > 0:
            self.l2: CacheArray | None = CacheArray(
                l2_sets(config), L2_WAYS
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
        self._l2_latencies: dict[int, int] = {}

    @cached_property
    def floorplan(self) -> Floorplan:
        """Physical geometry: L2 banks sit on the perimeter of the
        cluster array; their access latency is distance-dependent
        (Section 3.3.2's 20-30 cycle band), a pure function of
        (cluster, bank) that :meth:`_l2_latency` memoises.  Built on
        the first L2 access, which a cell without misses never
        makes."""
        return Floorplan(self.config)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def line_of(self, word_addr: int) -> int:
        return int(word_addr) // self.config.line_words

    def warm_l2(self, words) -> None:
        """Pre-load the lines of ``words`` into the L2 (if there is
        one), in order, as SHARED.  Inserting the line that was just
        inserted again, in the same state, leaves the array as it was,
        so a run of words on one line inserts that line once."""
        l2 = self.l2
        if l2 is None:
            return
        line_words = self._line_words
        last = None
        evictions = 0
        for word in words:
            line = int(word) // line_words
            if line != last:
                if l2.insert(line, SHARED) is not None:
                    evictions += 1
                last = line
        self.stats.l2_evictions += evictions

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
                self._l1_remove(owner, line)
                self.stats.invalidations += 1
                entry.owner = None
                entry.sharers.discard(owner)
            else:
                self.l1[owner].set_state(line, SHARED)
                entry.owner = None
                entry.sharers.add(owner)
            self._l2_insert(line, MODIFIED)
            # Data forwarded owner -> requester.
            t = self._coherence_hop(owner, cluster, t)
        else:
            if is_store and entry.sharers - {cluster}:
                # Invalidate all other sharers (overlapped; charge one
                # round trip to the farthest sharer).
                worst = 0
                for sharer in sorted(entry.sharers - {cluster}):
                    self._l1_remove(sharer, line)
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
                    # A victim's writeback to DRAM is off the critical
                    # path.
                    self._l2_insert(line, SHARED)
                t += cfg.dram_latency
            # Data reply home -> requester.
            t = self._coherence_hop(home, cluster, t)

        # Install in the requester's L1.
        new_state = MODIFIED if is_store else (
            EXCLUSIVE if not entry.sharers and entry.owner is None else SHARED
        )
        victim = self.l1[cluster].insert(line, new_state)
        if victim is not None:
            self.stats.l1_evictions += 1
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

    def _l1_remove(self, cluster: int, line: int) -> None:
        """Invalidate ``line`` in ``cluster``'s L1, keeping it among
        the lines that L1 held."""
        if self.l1[cluster].remove(line) is not None:
            self._l1_removed[cluster].add(line)

    def fit(self) -> tuple[int, int]:
        """The run's footprint fit so far, ``(l1_fit_sets,
        l2_fit_sets)``: per level, the fewest sets, halving from the
        array's own count, at which no set would hold more than its
        ways of the lines the level ever held (:func:`fit_sets`); 0
        for a level that evicted or has no array.  For an L1 that is
        each cluster's held and invalidated lines, and the largest
        fit of any cluster; for the L2, the lines it holds, since an
        L2 line leaves only by eviction.  :func:`certifies` reads
        it."""
        cfg = self.config
        l1_fit = l2_fit = 0
        if not self.stats.l1_evictions:
            sets, ways = cfg.l1_sets, cfg.l1_associativity
            l1_fit = max((
                fit_sets(_set_counts(array.lines()
                                     | self._l1_removed.get(cluster, set()),
                                     sets), sets, ways)
                for cluster, array in self.l1.items()
            ), default=fit_sets({}, sets, ways))
        if self.l2 is not None and not self.stats.l2_evictions:
            l2_fit = fit_sets(
                {index: len(ways) for index, ways in self.l2._data.items()},
                self.l2.sets, L2_WAYS,
            )
        return l1_fit, l2_fit

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
            self._l2_insert(line, MODIFIED)

    def _l2_insert(self, line: int, state: str) -> None:
        """Insert ``line`` into the L2, if there is one, counting the
        victim it displaces."""
        if self.l2 is not None and self.l2.insert(line, state) is not None:
            self.stats.l2_evictions += 1

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
        n_banks = self.n_banks  # the floorplan's too: max(4, clusters)
        bank = line % n_banks
        key = cluster * n_banks + bank
        latency = self._l2_latencies.get(key)
        if latency is None:
            latency = self._l2_latencies[key] = \
                self.floorplan.l2_latency(cluster, bank)
        return latency
