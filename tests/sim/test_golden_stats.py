"""Golden-stats regression: the hot-path engine changes no result.

The seed engine (frozen verbatim in ``repro.sim._legacy``) is the
oracle: for every workload in the registry the overhauled engine must
produce a bit-identical :class:`~repro.sim.stats.SimStats` -- every
counter, latency histogram, message tally, and the AIPC derived from
them -- on the golden config and on a starved one that drives the
eviction, deflection, bank-conflict and budget-exhaustion paths (there
a cell that does not finish must fail with the seed engine's class,
message and diagnostics).  The seed engine calls the live
:meth:`MatchingTable.insert` for every operand, so each comparison
also checks the engine's inlined copy of that probe against it.  The
sweep harness on top must likewise be invisible: the same campaign at
``jobs=1`` and ``jobs=4`` (and with the compile cache warm or cold)
yields identical ledger records.
"""

from dataclasses import asdict

import pytest

from repro.core import WaveScalarConfig
from repro.harness import CellSpec, RunSupervisor, sweep_cells
from repro.place.snake import place
from repro.sim._legacy.engine import Engine as LegacyEngine
from repro.sim.engine import Engine
from repro.sim.failures import SimulationDeadlock
from repro.sim.pe.matching import MatchingTable
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

from .test_fixed_point_jump import _observed

CONFIG = WaveScalarConfig(
    clusters=4, virtualization=64, matching_entries=64, l2_mb=1
)
#: The starved geometry of ``tests/sim/test_batched_backend.py``: at
#: this budget 13 of the 19 workloads end in ``CycleBudgetExhausted``.
STARVED = WaveScalarConfig(
    clusters=1, virtualization=16, matching_entries=16,
    matching_banks=2, matching_associativity=2, l2_mb=0,
)
STARVED_MAX_CYCLES = 200_000
#: Sixteen clusters (C16xD4xP8): memory traffic over the mesh and
#: coherence among 16 L1s; the multithreaded workloads, one thread per
#: cluster, add grid-level operand delivery.
C16 = WaveScalarConfig(
    clusters=16, domains_per_cluster=4, pes_per_domain=8,
    virtualization=64, matching_entries=64, l2_mb=1,
)


def _stats_pair(name: str):
    workload = get(name)
    threads = 4 if workload.multithreaded else None
    graph = workload.instantiate(scale=Scale.TINY, threads=threads, seed=0)
    placement = place(graph, CONFIG)
    new = Engine(graph, CONFIG, placement).run()
    old = LegacyEngine(graph, CONFIG, placement).run()
    return new, old


@pytest.mark.parametrize("name", all_names())
def test_stats_bit_identical_to_seed_engine(name):
    new, old = _stats_pair(name)
    assert asdict(new) == asdict(old)


def _verdict(engine):
    """``("ok", stats)`` or ``("fail", class, message, diagnostics)``:
    everything one engine run lets a caller observe."""
    try:
        return ("ok", asdict(engine.run()))
    except SimulationDeadlock as exc:
        return ("fail", type(exc).__name__, str(exc),
                exc.diagnostics.to_dict())


@pytest.mark.parametrize("name", all_names())
def test_starved_verdict_identical_to_seed_engine(name):
    workload = get(name)
    threads = 4 if workload.multithreaded else None
    graph = workload.instantiate(scale=Scale.TINY, threads=threads, seed=0)
    placement = place(graph, STARVED)
    new, old = (
        _verdict(cls(graph, STARVED, placement,
                     max_cycles=STARVED_MAX_CYCLES))
        for cls in (Engine, LegacyEngine)
    )
    assert new == old


@pytest.mark.parametrize("name", ("art", "djpeg"))
def test_seed_engine_runs_every_branch_of_the_live_insert(
    name, monkeypatch
):
    """The oracle is not vacuous: the seed engine's tables are the live
    :class:`MatchingTable` that ``Engine._drain`` inlines, and one
    starved cell (art finishes, djpeg exhausts its budget) takes every
    branch of its ``insert`` -- bank reject, fire, eviction and
    deflection -- so the comparisons above check each of them."""
    outcomes = dict.fromkeys(("reject", "fire", "evict", "deflect"), 0)
    live_insert = MatchingTable.insert

    def tallied(self, *args, **kwargs):
        result = live_insert(self, *args, **kwargs)
        outcomes["reject"] += not result.accepted
        outcomes["fire"] += result.fired is not None
        outcomes["evict"] += result.evicted is not None
        outcomes["deflect"] += result.deflected
        return result

    monkeypatch.setattr(MatchingTable, "insert", tallied)
    workload = get(name)
    threads = 4 if workload.multithreaded else None
    graph = workload.instantiate(scale=Scale.TINY, threads=threads, seed=0)
    seed = LegacyEngine(graph, STARVED, place(graph, STARVED),
                        max_cycles=STARVED_MAX_CYCLES)
    assert type(seed.matching[0]) is MatchingTable
    _verdict(seed)
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("name", (
    "ammp", "art", "equake", "gzip", "mcf", "twolf",  # spec
    "fft", "lu", "ocean", "radix", "raytrace", "water",  # splash, threaded
))
def test_sixteen_cluster_stats_identical_to_seed_engine(name):
    workload = get(name)
    threads = 16 if workload.multithreaded else None
    graph = workload.instantiate(scale=Scale.TINY, threads=threads, seed=0)
    placement = place(graph, C16)
    new = Engine(graph, C16, placement).run()
    old = LegacyEngine(graph, C16, placement).run()
    assert asdict(new) == asdict(old)
    assert new.messages["memory"]["grid"] > 0
    if threads:
        assert new.messages["operand"]["grid"] > 0


def test_aipc_identical_to_seed_engine():
    new, old = _stats_pair("fft")
    assert new.aipc == old.aipc
    assert new.ipc == old.ipc


#: A cell that finishes, cut by event budgets.  lu on one cluster with
#: 16 instructions per PE and 64 matching rows: 9,244 events, 733
#: instruction-store misses (so IFETCH replays) and 2,023 bank
#: rejects, with multi-token ``EV_TOKEN_BATCH`` entries throughout --
#: unlike a deflection fixed point, whose calendar holds single tokens
#: only.  A budget can fall inside a batch, on a bucket's first entry,
#: or on the fetch event in front of a replay.
BUDGET_CONFIG = WaveScalarConfig(
    clusters=1, virtualization=16, matching_entries=64, l2_mb=0
)
BUDGET_CELL_EVENTS = 9_244


@pytest.mark.parametrize("stride", [
    pytest.param(97, id="every-97th"),
    pytest.param(7, id="every-7th", marks=pytest.mark.slow),
])
def test_every_event_budget_of_a_finishing_cell_matches_seed_engine(stride):
    graph = get("lu").instantiate(scale=Scale.TINY, threads=4, seed=0)
    cell = (graph, BUDGET_CONFIG, place(graph, BUDGET_CONFIG))
    finished = _observed(Engine(*cell))
    assert finished["verdict"][1]["events_processed"] == BUDGET_CELL_EVENTS
    for max_events in range(1, BUDGET_CELL_EVENTS, stride):
        new = _observed(Engine(*cell, max_events=max_events))
        old = _observed(LegacyEngine(*cell, max_events=max_events))
        assert new == old, max_events
        assert new["verdict"][1] == "EventBudgetExhausted", max_events


def _sweep_records(jobs: int, tmp_path, tag: str) -> dict:
    specs = [
        CellSpec(config=CONFIG, workload="mcf", scale=Scale.TINY.value),
        CellSpec(config=CONFIG, workload="gzip", scale=Scale.TINY.value),
        CellSpec(
            config=CONFIG, workload="fft", scale=Scale.TINY.value,
            threads=4,
        ),
        CellSpec(
            config=CONFIG, workload="fft", scale=Scale.TINY.value,
            threads=8,
        ),
    ]
    records, report = sweep_cells(
        specs,
        ledger_path=tmp_path / f"ledger-{tag}.jsonl",
        supervisor=RunSupervisor(),
        jobs=jobs,
    )
    assert report.failed == 0
    return records


def _deterministic_view(records: dict) -> dict:
    """Ledger records minus the wall-clock observability fields."""
    view = {}
    for cell_hash, record in records.items():
        metrics = dict(record.get("metrics") or {})
        metrics.pop("wall_s", None)
        metrics.pop("events_per_s", None)
        view[cell_hash] = {
            "status": record["status"],
            "aipc": record["aipc"],
            "ipc": record["ipc"],
            "cycles": record["cycles"],
            "dynamic_instructions": record["dynamic_instructions"],
            "alpha_instructions": record["alpha_instructions"],
            "metrics": metrics,
        }
    return view


def test_sweep_identical_across_jobs(tmp_path):
    serial = _sweep_records(1, tmp_path, "serial")
    parallel = _sweep_records(4, tmp_path, "parallel")
    assert _deterministic_view(serial) == _deterministic_view(parallel)
