"""Simulation statistics.

Collects everything the paper's evaluation reports: AIPC, network
traffic by hierarchy level and kind (operand vs memory, Figure 8),
matching-table and instruction-store miss rates (Section 4.2), cache
behaviour, store-buffer activity, and message latencies (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Interconnect hierarchy levels, innermost first.
LEVELS = ("pod", "domain", "cluster", "grid")

#: Message kinds distinguished in Figure 8.
KINDS = ("operand", "memory")


@dataclass
class SimStats:
    """Mutable counters filled in by the engine during simulation."""

    cycles: int = 0
    dynamic_instructions: int = 0
    alpha_instructions: int = 0
    events_processed: int = 0  # engine calendar events this run

    # Traffic: messages[kind][level] counts one entry per message.
    messages: dict[str, dict[str, int]] = field(
        default_factory=lambda: {k: {lv: 0 for lv in LEVELS} for k in KINDS}
    )
    message_latency_sum: int = 0
    message_count: int = 0
    message_hops_sum: int = 0
    mesh_queue_wait_sum: int = 0
    mesh_messages: int = 0

    # Matching table.
    matching_inserts: int = 0
    matching_misses: int = 0  # no row available: token overflows
    matching_evictions: int = 0

    # Instruction store.
    istore_hits: int = 0
    istore_misses: int = 0

    # PE activity.
    dispatches: int = 0
    speculative_hits: int = 0
    input_rejects: int = 0  # bank-conflict retries

    # Store buffer.
    memory_ops: int = 0
    loads: int = 0
    stores: int = 0
    psq_captures: int = 0
    psq_stalls: int = 0
    sb_window_stalls: int = 0  # requests beyond the 4-wave window
    waves_retired: int = 0

    # Caches.
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l1_evictions: int = 0  # lines an L1 insert displaced (capacity)
    l2_evictions: int = 0  # lines an L2 insert displaced, warm-up included
    coherence_messages: int = 0
    invalidations: int = 0

    # Outputs observed (inst id -> values) for architectural checks.
    outputs: dict[int, list] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording helpers (kept tiny; they are on the hot path)
    # ------------------------------------------------------------------
    def record_message(
        self, kind: str, level: str, latency: int, hops: int = 0
    ) -> None:
        # try/except keeps the well-formed path allocation- and
        # branch-free; the KeyError rewrite only runs on caller bugs.
        try:
            self.messages[kind][level] += 1
        except KeyError:
            if kind not in self.messages:
                raise ValueError(
                    f"unknown message kind {kind!r}; expected one of "
                    f"{KINDS}"
                ) from None
            raise ValueError(
                f"unknown hierarchy level {level!r}; expected one of "
                f"{LEVELS}"
            ) from None
        self.message_latency_sum += latency
        self.message_count += 1
        self.message_hops_sum += hops

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def aipc(self) -> float:
        """Alpha-equivalent instructions per cycle (the paper's metric)."""
        return self.alpha_instructions / self.cycles if self.cycles else 0.0

    @property
    def ipc(self) -> float:
        return self.dynamic_instructions / self.cycles if self.cycles else 0.0

    def traffic_fractions(self) -> dict[str, float]:
        """Fraction of all messages at each hierarchy level (Figure 8)."""
        total = sum(sum(per.values()) for per in self.messages.values())
        if total == 0:
            return {lv: 0.0 for lv in LEVELS}
        return {
            lv: sum(self.messages[k][lv] for k in KINDS) / total
            for lv in LEVELS
        }

    def within_cluster_fraction(self) -> float:
        fr = self.traffic_fractions()
        return fr["pod"] + fr["domain"] + fr["cluster"]

    @property
    def average_message_latency(self) -> float:
        if not self.message_count:
            return 0.0
        return self.message_latency_sum / self.message_count

    @property
    def average_message_hops(self) -> float:
        if not self.message_count:
            return 0.0
        return self.message_hops_sum / self.message_count

    @property
    def matching_miss_rate(self) -> float:
        if not self.matching_inserts:
            return 0.0
        return self.matching_misses / self.matching_inserts

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    def output_values(self) -> list:
        result = []
        for inst_id in sorted(self.outputs):
            result.extend(self.outputs[inst_id])
        return result

    def summary(self) -> str:
        fr = self.traffic_fractions()
        return (
            f"cycles={self.cycles} alpha={self.alpha_instructions} "
            f"AIPC={self.aipc:.3f} "
            f"traffic[pod/dom/clu/grid]="
            f"{fr['pod']:.0%}/{fr['domain']:.0%}/"
            f"{fr['cluster']:.0%}/{fr['grid']:.0%} "
            f"mt-miss={self.matching_miss_rate:.1%} "
            f"L1-miss={self.l1_miss_rate:.1%}"
        )
