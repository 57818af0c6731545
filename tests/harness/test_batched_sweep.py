"""The batched backend through the harness: grouping, crash
recovery, and ledger bit-identity against the plain backend.

The contract under test: apart from wall-clock fields and the
``backend`` annotation, a batched sweep's ledger records are
byte-for-byte the plain sweep's -- for any ``jobs`` value, and with a
crashed batch replayed under the full per-cell retry policy.
"""

import pytest

from repro.core import WaveScalarConfig
from repro.design.space import viable_designs
from repro.harness import CellSpec, Lane, RunSupervisor
from repro.harness import supervisor as supervisor_mod
from repro.harness.scheduler import execute_lanes
from repro.harness.sweep import design_space_sweep, sweep_cells
from repro.sim.compile import clear_cache
from repro.workloads.base import Scale

GOOD = WaveScalarConfig(clusters=2, virtualization=64,
                        matching_entries=64, l2_mb=1)
SMALL = WaveScalarConfig(clusters=1, virtualization=64,
                         matching_entries=64, l2_mb=1)
#: Starved enough that several workloads fail -- failure records must
#: be identical across backends too.
FAILING = WaveScalarConfig(clusters=1, virtualization=16,
                           matching_entries=16, matching_banks=2,
                           matching_associativity=2, l2_mb=0)

#: Fields whose values legitimately differ between backends or runs:
#: wall clock, ledger sequencing, and the backend annotation itself.
_VOLATILE_RECORD_KEYS = frozenset(
    {"wall_s", "ts", "seq", "crc", "version", "backend"}
)
_VOLATILE_METRIC_KEYS = frozenset({"wall_s", "events_per_s"})


def _stripped(record: dict) -> dict:
    out = {k: v for k, v in record.items()
           if k not in _VOLATILE_RECORD_KEYS}
    metrics = out.get("metrics")
    if isinstance(metrics, dict):
        out["metrics"] = {
            k: v for k, v in metrics.items()
            if k not in _VOLATILE_METRIC_KEYS
            and not k.startswith("compile_cache_")
        }
    return out


def _stripped_map(records: dict[str, dict]) -> dict[str, dict]:
    return {h: _stripped(r) for h, r in records.items()}


def _specs() -> list[CellSpec]:
    grid = []
    for config in (GOOD, SMALL, FAILING):
        for name in ("fft", "gzip", "mcf"):
            grid.append(CellSpec(
                config=config, workload=name, scale="tiny",
                max_cycles=200_000, max_events=2_000_000,
            ))
    return grid


# ----------------------------------------------------------------------
# Bit-identity: inline, then across jobs with process isolation
# ----------------------------------------------------------------------
def test_inline_batched_sweep_matches_plain():
    specs = _specs()
    clear_cache()
    plain, plain_report = sweep_cells(
        specs, supervisor=RunSupervisor(isolation="inline",
                                        max_retries=1),
    )
    clear_cache()
    batched, batched_report = sweep_cells(
        specs, supervisor=RunSupervisor(isolation="inline",
                                        max_retries=1,
                                        backend="batched",
                                        batch_width=4),
    )
    assert _stripped_map(batched) == _stripped_map(plain)
    assert batched_report.completed == plain_report.completed
    assert len(batched_report.failures) == len(plain_report.failures)
    # Every executed record is annotated with the requested backend.
    assert all(r.get("backend") == "batched" for r in batched.values())
    block = batched_report.metrics["batched"]
    assert block["batch_width"] == 4
    assert block["batched_cells"] > 0


@pytest.mark.slow
def test_process_batched_sweep_identical_across_jobs(tmp_path):
    specs = [
        CellSpec(config=config, workload=name, scale="tiny",
                 max_cycles=200_000, max_events=2_000_000)
        for config in (GOOD, SMALL)
        for name in ("fft", "djpeg")
    ]

    def run(jobs: int, tag: str) -> dict[str, dict]:
        records, _ = sweep_cells(
            specs, ledger_path=tmp_path / f"{tag}.jsonl", jobs=jobs,
            supervisor=RunSupervisor(backend="batched", batch_width=4),
        )
        return records

    serial = run(1, "serial")
    parallel = run(4, "parallel")
    assert _stripped_map(parallel) == _stripped_map(serial)


# ----------------------------------------------------------------------
# Batch-level crash: the whole group replays per cell under full policy
# ----------------------------------------------------------------------
def test_batch_crash_replays_cells_under_plain_policy(monkeypatch):
    specs = [
        CellSpec(config=config, workload="gzip", scale="tiny",
                 max_cycles=200_000)
        for config in (GOOD, SMALL)
    ]
    plain = [RunSupervisor(isolation="inline").run(s) for s in specs]

    def explode(batch):
        raise RuntimeError("batch engine detonated")

    monkeypatch.setattr(supervisor_mod, "execute_batch", explode)
    supervisor = RunSupervisor(isolation="inline", backend="batched",
                               batch_width=2)
    results = supervisor.run_batch(list(specs))
    assert [r.status for r in results] == ["ok", "ok"]
    for got, want in zip(results, plain):
        assert got.backend == "batched"
        assert got.aipc == pytest.approx(want.aipc)
        assert got.outcome["cycles"] == want.outcome["cycles"]
        # The wasted batch attempt is not charged to the cell.
        assert got.attempts == want.attempts


# ----------------------------------------------------------------------
# Composition guards
# ----------------------------------------------------------------------
def test_chaos_does_not_compose_with_batched():
    with pytest.raises(ValueError, match="chaos"):
        RunSupervisor(backend="batched", chaos=object())
    lanes = [Lane(key=(0,), specs=[
        CellSpec(config=GOOD, workload="fft", scale="tiny")
    ])]
    with pytest.raises(ValueError, match="chaos"):
        execute_lanes(
            lanes,
            supervisor=RunSupervisor(backend="batched", batch_width=2),
            chaos=object(),
        )


def test_batch_width_must_be_positive():
    with pytest.raises(ValueError):
        RunSupervisor(backend="batched", batch_width=0)


def test_prune_composes_with_batched(tmp_path):
    designs = viable_designs()[:3]
    names = ["gzip", "mcf"]

    def sweep(tag: str, **kwargs):
        return design_space_sweep(
            designs, names, scale=Scale.TINY,
            ledger_path=tmp_path / f"{tag}.jsonl", prune=True,
            isolation="inline", max_retries=1, max_cycles=200_000,
            **kwargs,
        )

    plain_points, _ = sweep("plain")
    batched_points, report = sweep("batched", backend="batched",
                                   batch_width=4)

    def view(points):
        return [(p.label, p.area, round(p.performance, 9))
                for p in points]

    assert view(batched_points) == view(plain_points)
    assert report.metrics["batched"]["backend"] == "batched"
