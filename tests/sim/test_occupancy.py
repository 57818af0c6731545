"""Engine construction follows the program, not the machine.

A 512-PE engine running gzip at tiny scale occupies six PEs.  Only
those get a matching table, an instruction store, a dispatch port and
a result bus of their own; every idle PE shares one empty table and
store that no run writes.  What a caller reads of the per-PE state --
failure diagnostics, the quiescence check, the runtime sanitizer's
audit -- must not see the difference: the values pinned below were
read off the engine that still built all 512.
"""

import pytest

from repro.analysis import RuntimeSanitizer
from repro.area.floorplan import Floorplan
from repro.sim.engine import Engine
from repro.sim.failures import CycleBudgetExhausted, TrueDeadlock
from repro.sim.memory.hierarchy import CacheArray
from repro.sim.pe.istore import InstructionStore
from repro.sim.pe.matching import MatchingTable
from repro.sim.storebuffer.storebuffer import StoreBuffer
from repro.sim.trace import Trace

from .verdicts import C16, cell, idle_state_written

OCCUPIED = [0, 1, 2, 3, 4, 5]


@pytest.fixture(scope="module")
def gzip_c16():
    return cell("gzip", C16)


def _count_constructions(monkeypatch, cls) -> list:
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_per_pe_state_is_built_for_occupied_pes_only(gzip_c16, monkeypatch):
    graph, config, placement = gzip_c16
    assert config.total_pes == 512
    assert sorted(placement.assigned) == OCCUPIED
    tables = _count_constructions(monkeypatch, MatchingTable)
    stores = _count_constructions(monkeypatch, InstructionStore)
    engine = Engine(graph, config, placement)
    # One of each per occupied PE, plus the idle PEs' shared one.
    assert len(tables) == len(stores) == len(OCCUPIED) + 1
    assert len(engine.matching) == len(engine.istores) == 512
    assert len({id(t) for t in engine.matching}) == len(OCCUPIED) + 1
    assert sorted(engine._dispatch) == OCCUPIED
    engine.run()
    assert sorted(engine.network._pe_bus) == OCCUPIED
    assert idle_state_written(engine) == []


def test_finished_run_reads_as_before(gzip_c16):
    engine = Engine(*gzip_c16)
    engine.sanitizer = RuntimeSanitizer()
    stats = engine.run()
    assert (stats.cycles, stats.events_processed) == (4980, 12385)
    assert engine.failure_diagnostics().to_dict() == {
        "cycles": 4980, "events_processed": 12385, "events_pending": 0,
        "tokens_in_flight": 0,
        "queue_depths": {"matching_rows": 0, "ifetch_queued": 0,
                         "kbound_stalls": 0, "event_calendar": 0},
        "max_cycles": 20_000_000, "max_events": 200_000_000,
    }
    engine._check_quiescent()
    assert [(d.rule, d.message)
            for d in engine.sanitizer.report().diagnostics] == [
        ("S005", "token ledger: 1 entry + 5443 delivered, 5444 consumed; "
                 "peak matching occupancy 10 rows"),
    ]
    assert idle_state_written(engine) == []


def test_cut_run_reads_as_before(gzip_c16):
    """Cut at 300 cycles, four PEs hold partial rows: the diagnostics
    and the quiescence check name exactly those."""
    engine = Engine(*gzip_c16, max_cycles=300)
    with pytest.raises(CycleBudgetExhausted) as raised:
        engine.run()
    diagnostics = {
        "cycles": 389, "events_processed": 665, "events_pending": 11,
        "tokens_in_flight": 10,
        "queue_depths": {"matching_rows": 10, "ifetch_queued": 0,
                         "kbound_stalls": 0, "event_calendar": 11},
        "max_cycles": 300, "max_events": 200_000_000,
    }
    assert raised.value.diagnostics.to_dict() == diagnostics
    assert engine.failure_diagnostics().to_dict() == diagnostics
    with pytest.raises(TrueDeadlock) as stuck:
        engine._check_quiescent()
    assert str(stuck.value) == (
        "gzip: deadlocked with buffered work:\n"
        "  pe0: 2 partial rows: (0, 5, 26)(ports [0]), "
        "(0, 5, 50)(ports [1])\n"
        "  pe1: 2 partial rows: (0, 5, 27)(ports [0]), "
        "(0, 5, 53)(ports [1])\n"
        "  pe2: 4 partial rows: (0, 5, 29)(ports [0]), "
        "(0, 5, 47)(ports [1]), (0, 6, 43)(ports [1]), "
        "(0, 5, 28)(ports [0])\n"
        "  pe3: 2 partial rows: (0, 6, 56)(ports [0]), "
        "(0, 6, 59)(ports [0])"
    )
    assert idle_state_written(engine) == []


@pytest.mark.parametrize("name", ["gzip", "fft"])
def test_net_inject_ledgers_follow_the_traffic(name):
    """A domain's NET-inject ledger exists only once a cluster- or
    grid-level operand has entered that domain: none for gzip, whose
    six PEs share domain 0, and one per receiving domain for fft,
    whose 16 threads spread over several clusters."""
    engine = Engine(*cell(name, C16))
    engine.trace = Trace(limit=10_000_000)
    engine.run()
    pes_per_domain = engine.config.pes_per_domain
    received = set()
    for event in engine.trace.events:
        if event.kind == "output":
            level, _, target = event.detail.split()[:3]
            if level in ("cluster", "grid"):
                received.add(int(target[len("pe"):]) // pes_per_domain)
    assert set(engine.network._net_in) == received
    assert bool(received) == (name == "fft")


def test_memory_state_is_built_where_memory_is_used(gzip_c16, monkeypatch):
    """gzip's one thread is homed on cluster 0: of sixteen clusters,
    only cluster 0 gets a store buffer, and only the clusters a run
    accesses get an L1 -- the L2 alone exists before the run.  The
    floorplan waits for the first L2 access."""
    graph, config, placement = gzip_c16
    assert set(placement.thread_home.values()) <= {0}
    buffers = _count_constructions(monkeypatch, StoreBuffer)
    arrays = _count_constructions(monkeypatch, CacheArray)
    plans = _count_constructions(monkeypatch, Floorplan)
    engine = Engine(graph, config, placement)
    assert [sb.cluster for sb in buffers] == [0]
    assert list(engine.storebuffers) == [0]
    assert arrays == [engine.memory.l2] and plans == []
    stats = engine.run()
    assert stats.l1_hits + stats.l1_misses > 0
    assert sorted(engine.memory.l1) == [0]
    assert sorted(engine.memory._l1_ports) == [0]
    assert len(arrays) == 2 and len(plans) == (stats.l1_misses > 0)


def test_every_thread_home_has_its_store_buffer():
    """fft's sixteen threads spread over the clusters: each home
    cluster (and cluster 0) has a store buffer, and every one of them
    is what the quiescence check and the sanitizer walk."""
    engine = Engine(*cell("fft", C16, threads=16))
    homes = set(engine.placement.thread_home.values())
    assert len(homes) > 1
    assert sorted(engine.storebuffers) == sorted(homes | {0})
    engine.sanitizer = RuntimeSanitizer()
    engine.run()
    assert engine.stats.memory_ops > 0
    engine._check_quiescent()
    assert not engine.sanitizer.report().has_errors
