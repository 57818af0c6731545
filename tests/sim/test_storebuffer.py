"""Unit tests for the wave-ordered store buffer.

These drive a StoreBuffer directly with synthetic graphs, asserting
program-order issue, ripple resolution across branches, wave
sequencing, store decoupling and partial-store-queue capture.
"""

from repro.core.config import WaveScalarConfig
from repro.isa import (
    DataflowGraph,
    Instruction,
    Opcode,
    WaveAnnotation,
)
from repro.isa.waves import UNKNOWN, WAVE_END, WAVE_START
from repro.sim.memory.hierarchy import MemoryHierarchy
from repro.sim.network.topology import Interconnect
from repro.sim.stats import SimStats
from repro.sim.storebuffer.storebuffer import StoreBuffer


def make_graph(ops):
    """ops: list of (opcode, prev, this, next)."""
    instructions = []
    for i, (opcode, prev, this, nxt) in enumerate(ops):
        instructions.append(
            Instruction(
                inst_id=i,
                opcode=opcode,
                wave_annotation=WaveAnnotation(prev=prev, this=this, next=nxt)
                if opcode.is_memory
                else None,
            )
        )
    return DataflowGraph(instructions=instructions)


class Harness:
    def __init__(self, graph, config=None):
        self.config = config or WaveScalarConfig()
        self.stats = SimStats()
        network = Interconnect(self.config, self.stats)
        self.memory = MemoryHierarchy(self.config, network, self.stats)
        self.completed = []
        self.retired = []
        self.sb = StoreBuffer(
            cluster=0,
            config=self.config,
            graph=graph,
            memory=self.memory,
            stats=self.stats,
            complete_callback=lambda op, v, c: self.completed.append(
                (op.inst_id, v, c)
            ),
            retire_callback=lambda t, w, c: self.retired.append((t, w)),
        )

    def completed_ids(self):
        return [c[0] for c in self.completed]


def test_in_order_chain_issues_in_order():
    graph = make_graph([
        (Opcode.LOAD, WAVE_START, 0, 1),
        (Opcode.LOAD, 0, 1, 2),
        (Opcode.MEMORY_NOP, 1, 2, WAVE_END),
    ])
    h = Harness(graph)
    # Arrive out of order: 2, 0, 1.
    h.sb.submit_address(2, 0, 0, 0, cycle=0)
    assert h.completed == []
    h.sb.submit_address(0, 0, 0, 100, cycle=1)
    assert h.completed_ids() == [0]
    h.sb.submit_address(1, 0, 0, 101, cycle=2)
    assert h.completed_ids() == [0, 1, 2]
    assert h.retired == [(0, 0)]


def test_ripple_resolves_unknown_prev():
    """Post-branch op with prev='?' issues via the taken arm's next."""
    graph = make_graph([
        (Opcode.LOAD, WAVE_START, 0, UNKNOWN),   # pre-branch (next '?')
        (Opcode.LOAD, 0, 1, 3),                  # taken arm
        (Opcode.LOAD, 0, 2, 3),                  # untaken arm (never fires)
        (Opcode.MEMORY_NOP, UNKNOWN, 3, WAVE_END),  # join
    ])
    h = Harness(graph)
    h.sb.submit_address(3, 0, 0, 0, cycle=0)
    h.sb.submit_address(0, 0, 0, 10, cycle=1)
    assert h.completed_ids() == [0]  # join can't issue yet
    h.sb.submit_address(1, 0, 0, 11, cycle=2)  # arm op ripples to join
    assert h.completed_ids() == [0, 1, 3]
    assert h.retired == [(0, 0)]


def test_waves_issue_strictly_in_order():
    graph = make_graph([
        (Opcode.MEMORY_NOP, WAVE_START, 0, WAVE_END),
    ])
    h = Harness(graph)
    h.sb.submit_address(0, 0, 2, 0, cycle=0)  # wave 2 arrives first
    h.sb.submit_address(0, 0, 1, 0, cycle=1)
    assert h.completed == []
    h.sb.submit_address(0, 0, 0, 0, cycle=2)
    # All three waves drain in order once wave 0 appears.
    assert [w for (_, w) in h.retired] == [0, 1, 2]


def test_threads_order_independently():
    graph = make_graph([
        (Opcode.MEMORY_NOP, WAVE_START, 0, WAVE_END),
    ])
    h = Harness(graph)
    h.sb.submit_address(0, 7, 0, 0, cycle=0)
    h.sb.submit_address(0, 3, 0, 0, cycle=1)
    assert sorted(h.retired) == [(3, 0), (7, 0)]


def test_store_decoupling_data_first():
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, WAVE_END),
    ])
    h = Harness(graph)
    h.sb.submit_data(0, 0, 0, 99, cycle=0)
    assert h.completed == []
    h.sb.submit_address(0, 0, 0, 16, cycle=1)
    assert h.completed_ids() == [0]
    assert h.memory.read_word(16) == 99


def test_store_decoupling_address_first_parks_in_psq():
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, 1),
        (Opcode.LOAD, 0, 1, WAVE_END),  # same-address load behind it
    ])
    h = Harness(graph)
    h.sb.submit_address(0, 0, 0, 32, cycle=0)  # store addr, no data
    h.sb.submit_address(1, 0, 0, 32, cycle=1)  # load to same address
    # The load was captured behind the parked store, not issued.
    assert h.completed == []
    assert h.stats.psq_captures == 1
    h.sb.submit_data(0, 0, 0, 7, cycle=2)
    assert h.completed_ids() == [0, 1]
    # The captured load observed the store's value.
    assert h.completed[1][1] == 7


def test_load_to_other_address_proceeds_past_parked_store():
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, 1),
        (Opcode.LOAD, 0, 1, WAVE_END),
    ])
    h = Harness(graph)
    h.memory.write_word(64, 5)
    h.sb.submit_address(0, 0, 0, 32, cycle=0)  # parked store @32
    h.sb.submit_address(1, 0, 0, 64, cycle=1)  # unrelated load @64
    assert h.completed_ids() == [1]
    assert h.completed[0][1] == 5
    h.sb.submit_data(0, 0, 0, 9, cycle=2)
    assert h.completed_ids() == [1, 0]


def test_psq_exhaustion_stalls_until_data():
    config = WaveScalarConfig(partial_store_queues=1)
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, 1),
        (Opcode.STORE, 0, 1, 2),
        (Opcode.MEMORY_NOP, 1, 2, WAVE_END),
    ])
    h = Harness(graph, config)
    h.sb.submit_address(0, 0, 0, 16, cycle=0)  # takes the only PSQ
    h.sb.submit_address(1, 0, 0, 48, cycle=1)  # needs a PSQ: stall
    h.sb.submit_address(2, 0, 0, 0, cycle=2)
    assert h.completed == []
    assert h.stats.psq_stalls >= 1
    h.sb.submit_data(0, 0, 0, 1, cycle=3)  # frees the PSQ
    # Store 1 now parks (decoupled); the NOP behind it completes
    # without waiting for store 1's data -- that is the point of
    # store decoupling.
    assert h.completed_ids() == [0, 2]
    assert h.retired == [(0, 0)]
    h.sb.submit_data(1, 0, 0, 2, cycle=4)
    assert h.completed_ids() == [0, 2, 1]
    assert h.memory.read_word(48) == 2


def test_memory_nop_ignores_psq_even_on_value_collision():
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, 1),
        (Opcode.MEMORY_NOP, 0, 1, WAVE_END),
    ])
    h = Harness(graph)
    h.sb.submit_address(0, 0, 0, 5, cycle=0)  # parked store @5
    # MEMORY_NOP whose trigger value happens to equal the address.
    h.sb.submit_address(1, 0, 0, 5, cycle=1)
    assert h.completed_ids() == [1]  # issued straight through
    assert h.stats.psq_captures == 0


def test_repark_preserves_per_address_order():
    """A captured store still missing data re-parks; operations
    captured behind it must drain *after* it, not leapfrog (this was a
    real bug found by the radix workload at 16 threads)."""
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, 1),   # store A (parked)
        (Opcode.LOAD, 0, 1, 2),             # load, captured
        (Opcode.STORE, 1, 2, 3),            # store B, captured, no data
        (Opcode.LOAD, 2, 3, WAVE_END),      # load, captured behind B
    ])
    h = Harness(graph)
    addr = 16
    h.sb.submit_address(0, 0, 0, addr, cycle=0)
    h.sb.submit_address(1, 0, 0, addr, cycle=1)
    h.sb.submit_address(2, 0, 0, addr, cycle=2)
    h.sb.submit_address(3, 0, 0, addr, cycle=3)
    assert h.completed == []
    h.sb.submit_data(0, 0, 0, 10, cycle=4)  # store A commits
    # Load 1 sees 10; store B re-parks with load 3 behind it.
    assert h.completed_ids() == [0, 1]
    assert h.completed[1][1] == 10
    h.sb.submit_data(2, 0, 0, 20, cycle=5)  # store B commits
    assert h.completed_ids() == [0, 1, 2, 3]
    assert h.completed[3][1] == 20  # the trailing load saw B's value
    assert h.memory.read_word(addr) == 20


def test_wave_window_defers_far_future_waves():
    """Only `storebuffer_waves` wave contexts are live at once; ops for
    waves beyond the window wait until it slides (Section 3.3.1: "Each
    store buffer can handle four wave-ordered memory sequences at
    once")."""
    config = WaveScalarConfig(storebuffer_waves=2)
    graph = make_graph([
        (Opcode.MEMORY_NOP, WAVE_START, 0, WAVE_END),
    ])
    h = Harness(graph, config)
    # Waves 3 and 2 arrive first: both beyond the [0, 2) window.
    h.sb.submit_address(0, 0, 3, 0, cycle=0)
    h.sb.submit_address(0, 0, 2, 0, cycle=1)
    assert h.completed == []
    assert h.stats.sb_window_stalls == 2
    h.sb.submit_address(0, 0, 1, 0, cycle=2)  # fits ([0,2))
    assert h.completed == []  # still ordered behind wave 0
    h.sb.submit_address(0, 0, 0, 0, cycle=3)
    # Window slides as each wave completes; all four drain in order.
    assert [w for (_, w) in h.retired] == [0, 1, 2, 3]


def test_wave_window_data_half_also_deferred():
    config = WaveScalarConfig(storebuffer_waves=1)
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, WAVE_END),
    ])
    h = Harness(graph, config)
    h.sb.submit_data(0, 0, 1, 42, cycle=0)   # wave 1: deferred
    h.sb.submit_address(0, 0, 1, 8, cycle=1)  # wave 1: deferred
    assert h.stats.sb_window_stalls == 2
    h.sb.submit_address(0, 0, 0, 16, cycle=2)
    h.sb.submit_data(0, 0, 0, 7, cycle=3)   # wave 0 completes
    assert h.memory.read_word(16) == 7
    assert h.memory.read_word(8) == 42      # deferred wave replayed
    assert [w for (_, w) in h.retired] == [0, 1]


def test_duplicate_wave_arrival_is_merged_not_duplicated():
    graph = make_graph([
        (Opcode.STORE, WAVE_START, 0, WAVE_END),
    ])
    h = Harness(graph)
    h.sb.submit_address(0, 0, 0, 8, cycle=0)
    h.sb.submit_data(0, 0, 0, 3, cycle=1)
    assert h.completed_ids() == [0]
    assert h.retired == [(0, 0)]
    assert h.memory.read_word(8) == 3
