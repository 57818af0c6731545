"""Golden-stats regression: the hot-path engine changes no result.

The seed engine (frozen verbatim in ``repro.sim._legacy``) is the
oracle: for every workload in the registry the overhauled engine must
produce a bit-identical :class:`~repro.sim.stats.SimStats` -- every
counter, latency histogram, message tally, and the AIPC derived from
them -- on the golden config and on a starved one that drives the
eviction, deflection, bank-conflict and budget-exhaustion paths (there
a cell that does not finish must fail with the seed engine's class,
message and diagnostics).  The sweep harness on top must likewise be
invisible: the same campaign at ``jobs=1`` and ``jobs=4`` (and with
the compile cache warm or cold) yields identical ledger records.
"""

from dataclasses import asdict

import pytest

from repro.core import WaveScalarConfig
from repro.harness import CellSpec, RunSupervisor, sweep_cells
from repro.place.snake import place
from repro.sim._legacy.engine import Engine as LegacyEngine
from repro.sim.engine import Engine
from repro.sim.failures import SimulationDeadlock
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

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
