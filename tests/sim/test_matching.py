"""Unit and property tests for the matching table, and the proof that
``Engine._drain``'s inlined probe is this table's ``insert``."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.failures import SimulationDeadlock
from repro.sim.pe.matching import MatchingTable
from repro.sim.trace import Trace

from .verdicts import GOLDEN, STARVED, STARVED_BUDGETS, cell


def table(entries=16, assoc=2, banks=4, k=4) -> MatchingTable:
    return MatchingTable(entries, assoc, banks, k)


def test_single_operand_fires_immediately():
    t = table()
    r = t.insert((0, 0, 5), 0, 42, slot=0, arity=1, cycle=0)
    assert r.accepted and r.fired is not None
    assert r.fired.ports == {0: 42}
    assert len(t) == 0


def test_two_operand_rendezvous():
    t = table()
    r1 = t.insert((0, 0, 5), 0, 1, slot=0, arity=2, cycle=0)
    assert r1.fired is None and len(t) == 1
    r2 = t.insert((0, 0, 5), 1, 2, slot=0, arity=2, cycle=1)
    assert r2.fired is not None
    assert r2.fired.ports == {0: 1, 1: 2}
    assert len(t) == 0


def test_different_waves_do_not_match():
    t = table()
    t.insert((0, 0, 5), 0, 1, slot=0, arity=2, cycle=0)
    r = t.insert((0, 1, 5), 1, 2, slot=0, arity=2, cycle=1)
    assert r.fired is None
    assert len(t) == 2


def test_bank_conflict_rejects_same_cycle():
    t = table(entries=16, banks=4)
    # Two tokens hashing to the same bank in the same cycle: the second
    # is rejected (INPUT-stage retry).
    r1 = t.insert((0, 0, 1), 0, 1, slot=0, arity=2, cycle=5)
    r2 = t.insert((0, 4, 2), 0, 1, slot=0, arity=2, cycle=5)
    assert r1.accepted
    # slot 0 wave 0 -> set 0; slot 0 wave 4 -> set 0 again (k=4).
    assert not r2.accepted
    r3 = t.insert((0, 4, 2), 0, 1, slot=0, arity=2, cycle=6)
    assert r3.accepted


def test_distinct_banks_accept_same_cycle():
    # k=1 -> set index == slot, so slots 0..3 map to banks 0..3.
    t = table(entries=16, banks=4, k=1)
    results = [
        t.insert((0, 0, i), 0, 1, slot=i, arity=2, cycle=3)
        for i in range(4)
    ]
    assert all(r.accepted for r in results)


def test_eviction_prefers_youngest_wave():
    t = table(entries=4, assoc=2, banks=1, k=1)
    # All tokens hash to set determined by slot; same slot -> same set.
    t.insert((0, 2, 1), 0, 1, slot=0, arity=2, cycle=0)
    t.insert((0, 1, 1), 0, 1, slot=0, arity=2, cycle=1)
    r = t.insert((0, 0, 1), 0, 1, slot=0, arity=2, cycle=2)
    assert r.miss and r.evicted is not None and not r.deflected
    # Victim is the youngest wave (wave 2), keeping older waves stable.
    assert r.evicted.key == (0, 2, 1)
    assert len(t) == 2


def test_youngest_incoming_token_is_deflected():
    t = table(entries=4, assoc=2, banks=1, k=1)
    t.insert((0, 0, 1), 0, 1, slot=0, arity=2, cycle=0)
    t.insert((0, 1, 1), 0, 1, slot=0, arity=2, cycle=1)
    r = t.insert((0, 2, 1), 0, 1, slot=0, arity=2, cycle=2)
    assert r.miss and r.deflected and r.evicted is None
    # Resident rows untouched: the young token itself overflows.
    assert len(t) == 2
    assert t.lookup((0, 0, 1)) is not None
    assert t.lookup((0, 1, 1)) is not None


def test_tuned_hash_avoids_conflicts_within_k_waves():
    """With M = V*k the hash I*k + (w mod k) is conflict-free."""
    v, k = 8, 4
    t = MatchingTable(entries=v * k * 2, associativity=2, banks=4, hash_k=k)
    seen = set()
    for slot in range(v):
        for wave in range(k):
            seen.add(t.set_index(slot, wave))
    assert len(seen) == v * k


def test_occupancy():
    t = table(entries=16)
    assert t.occupancy() == 0.0
    t.insert((0, 0, 1), 0, 1, slot=0, arity=2, cycle=0)
    assert t.occupancy() == 1 / 16


def test_shared_results_carry_no_row_state():
    """The allocation-free fast-path results must be flag-clean."""
    t = table()
    r1 = t.insert((0, 0, 5), 0, 1, slot=0, arity=2, cycle=0)
    assert r1.accepted and not r1.miss and not r1.deflected
    assert r1.fired is None and r1.evicted is None
    # Same set, same cycle -> bank conflict: the shared rejection.
    r2 = t.insert((0, 4, 6), 0, 1, slot=0, arity=2, cycle=0)
    assert not r2.accepted
    assert r2.fired is None and r2.evicted is None
    assert not r2.miss and not r2.deflected


#: One config per regime of the hash: 32 sets in groups of k=4 wave
#: slots (tuned), and 2 sets, fewer than one group (fallback).
HASH_REGIMES = {
    "tuned": GOLDEN,
    "fallback": replace(STARVED, matching_entries=4),
}


def test_inlined_insert_hash_matches_set_index():
    """``Engine._drain`` picks a token's set as its instruction's
    ``_d_set_base`` plus its wave (mod k when tuned, mod sets in the
    fallback); that must be the set :meth:`MatchingTable.set_index`
    names, for every instruction of a placed graph and every wave."""
    for regime, config in HASH_REGIMES.items():
        engine = Engine(*cell("fft", config))
        t0 = engine.matching[0]
        k, sets = t0.hash_k, t0.sets
        assert (t0._groups >= 1) == (regime == "tuned")
        for inst_id, base in enumerate(engine._d_set_base):
            table = engine.matching[engine._pe_of[inst_id]]
            slot = engine._d_slot[inst_id]
            for wave in range(2 * k):
                inlined = base + wave % k if regime == "tuned" \
                    else (base + wave) % sets
                assert inlined == table.set_index(slot, wave), \
                    (regime, inst_id, wave)


class _Replay(Trace):
    """Replays one engine's matching events through fresh live tables.

    Every ``reject`` and ``input`` event is one probe of the engine's
    inlined insert; each goes, in order, through its PE's own
    :meth:`MatchingTable.insert`, whose outcome must be the engine's:
    rejected (``reject``), deflected (the next event is the token's
    ``overflow``), fired (the next event is its ``match``) or stored
    (neither).  The engine posts no event for an eviction, so those
    are tallied here for the caller to hold to ``SimStats``."""

    def __init__(self, engine):
        super().__init__(limit=0)
        self.slot = engine._d_slot
        self.arity = engine._d_match
        self.tables = [
            MatchingTable(t.entries, t.associativity, t.banks, t.hash_k)
            for t in engine.matching
        ]
        self.expect = None
        self.outcomes = dict.fromkeys(
            ("reject", "store", "fire", "evict", "deflect"), 0)

    def emit(self, cycle, kind, pe, inst, thread, wave, detail=""):
        event = (cycle, kind, pe, inst, thread, wave)
        if self.expect is not None:
            assert event == self.expect, (event, self.expect)
            self.expect = None
            return
        assert kind not in ("match", "overflow"), event
        if kind not in ("reject", "input"):
            return
        port = int(detail.split()[1]) if kind == "input" else 0
        result = self.tables[pe].insert(
            (thread, wave, inst), port, detail, slot=self.slot[inst],
            arity=self.arity[inst], cycle=cycle,
        )
        assert result.accepted == (kind == "input"), event
        outcomes = self.outcomes
        if not result.accepted:
            outcomes["reject"] += 1
        elif result.deflected:
            outcomes["deflect"] += 1
            self.expect = (cycle, "overflow", pe, inst, thread, wave)
        else:
            outcomes["evict"] += result.evicted is not None
            if result.fired is None:
                outcomes["store"] += 1
            else:
                outcomes["fire"] += 1
                self.expect = (cycle, "match", pe, inst, thread, wave)


@pytest.mark.parametrize("name", ("art", "djpeg"))
def test_engine_trace_replays_through_the_live_insert(name):
    """The engine's inlined probe is :meth:`MatchingTable.insert`: its
    trace, streamed through the live table, agrees at every operand.
    One starved cell (art finishes, djpeg exhausts its budget) takes
    every branch -- bank reject, store, fire, eviction, deflection."""
    engine = Engine(*cell(name, STARVED),
                    **STARVED_BUDGETS["200k-cycles"])
    replay = engine.trace = _Replay(engine)
    try:
        engine.run()
    except SimulationDeadlock:
        pass
    assert replay.expect is None
    outcomes, stats = replay.outcomes, engine.stats
    assert all(outcomes.values()), outcomes
    assert outcomes["reject"] == stats.input_rejects
    assert outcomes["evict"] == stats.matching_evictions
    assert outcomes["evict"] + outcomes["deflect"] == stats.matching_misses
    assert outcomes["store"] + outcomes["fire"] + outcomes["deflect"] \
        == stats.matching_inserts


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.lists(
        st.tuples(
            st.integers(0, 3),   # thread
            st.integers(0, 7),   # wave
            st.integers(0, 9),   # inst
            st.integers(0, 1),   # port
        ),
        min_size=1,
        max_size=60,
        unique=True,  # duplicate operands are a program error upstream
    )
)
def test_no_token_lost_or_duplicated(tokens):
    """Conservation: every inserted operand either sits in the table,
    fired in a completed row, or was evicted -- exactly once."""
    t = MatchingTable(entries=8, associativity=2, banks=4, hash_k=2)
    inserted = 0
    fired = 0
    evicted = 0
    cycle = 0
    pending = list(tokens)
    guard = 0
    while pending and guard < 10_000:
        guard += 1
        thread, wave, inst, port = pending.pop(0)
        r = t.insert(
            (thread, wave, inst), port, 1, slot=inst, arity=2, cycle=cycle
        )
        cycle += 1
        if not r.accepted:
            pending.append((thread, wave, inst, port))
            continue
        if r.deflected:
            evicted += 1  # the token itself went to overflow
            inserted += 1
            continue
        inserted += 1
        if r.fired is not None:
            fired += len(r.fired.ports)
        if r.evicted is not None:
            evicted += len(r.evicted.ports)
    remaining = sum(len(row.ports) for row in t.pending_rows())
    assert inserted == fired + evicted + remaining
