"""Exact reuse: a cell certified by a sibling's run is that run.

The oracle re-simulates every reused cell of a campaign over the
benchmark study's four-cluster designs with ``simulate_cell`` and holds
its whole ``SimStats`` to the certifier's.  Planted defects in the
rule -- one that ignores L1 evictions, one that skips the floorplan
latency check -- must make the oracle find a difference; a rule that
ignores L2 evictions is caught on a synthetic access stream, since no
registry cell evicts an L2 line.
"""

import dataclasses

import pytest

import repro.harness.scheduler as scheduler
import repro.sim.memory.hierarchy as hierarchy
from repro.core import WaveScalarConfig
from repro.design import viable_designs
from repro.harness import CellSpec, Ledger, RunSupervisor, sweep_cells
from repro.harness.supervisor import simulate_cell
from repro.harness.sweep import design_space_sweep
from repro.sim.memory.hierarchy import MemoryHierarchy, certifies
from repro.sim.network.topology import Interconnect
from repro.sim.stats import SimStats
from repro.workloads import Scale

STUDY = viable_designs()[::4]  # the benchmark study's designs
C4 = [design for design in STUDY if design.config.clusters == 4]


def by_name(describe: str):
    (design,) = [d for d in C4 if d.config.describe() == describe]
    return design


V64_8K_1M = by_name("C4xD4xP8 V64 M64 L1:8KB L2:1MB")
V64_8K_2M = by_name("C4xD4xP8 V64 M64 L1:8KB L2:2MB")
V64_16K_2M = by_name("C4xD4xP8 V64 M64 L1:16KB L2:2MB")
V128_8K_1M = by_name("C4xD4xP8 V128 M128 L1:8KB L2:1MB")
V128_32K_1M = by_name("C4xD4xP8 V128 M128 L1:32KB L2:1MB")


def reused_mismatches(designs, names) -> tuple[int, list[str]]:
    """Run an inline campaign and re-simulate every reused cell: the
    count of reused cells, and those whose ``SimStats`` differ from
    their certifier's (read back from the record it copied)."""
    ledger_records = {}

    def note(spec, record):
        ledger_records[spec.cell_hash()] = (spec, record)

    design_space_sweep(
        designs, names, Scale.TINY, isolation="inline",
        max_cycles=1_000_000, max_retries=1, progress=note,
    )
    stats_of = {}
    reused, wrong = 0, []
    for cell, (spec, record) in ledger_records.items():
        source = record.get("reused_from")
        if source is None:
            continue
        reused += 1
        certifier = ledger_records[source][0]
        if source not in stats_of:
            stats_of[source] = dataclasses.asdict(
                simulate_cell(certifier).stats)
        if dataclasses.asdict(simulate_cell(spec).stats) \
                != stats_of[source]:
            wrong.append(spec.describe())
    return reused, wrong


def test_every_reused_cell_simulates_to_its_certifiers_stats():
    reused, wrong = reused_mismatches(
        C4, ("gzip", "mcf", "twolf", "ammp", "art", "equake"))
    assert reused >= 12  # the L2 rule alone certifies 12 of these
    assert wrong == []


def _ignore_l1_evictions(certifier, sibling, l1_evictions, l2_evictions):
    return certifies(certifier, sibling, 0, l2_evictions)


@pytest.mark.parametrize("defect, designs, name", [
    # mcf takes 12,449 cycles at 8 KB and 9,533 at 32 KB.
    ("ignores l1_evictions", (V128_8K_1M, V128_32K_1M), "mcf"),
    # gzip takes 4,925 cycles at 8 KB and 4,928 at 16 KB: the larger
    # cluster moves the L2 banks.
    ("skips the latency check", (V64_8K_2M, V64_16K_2M), "gzip"),
])
def test_the_oracle_catches_a_planted_defect(monkeypatch, defect,
                                             designs, name):
    assert reused_mismatches(designs, (name,)) == (0, [])
    if defect == "ignores l1_evictions":
        monkeypatch.setattr(scheduler, "certifies", _ignore_l1_evictions)
    else:
        monkeypatch.setattr(hierarchy, "_l2_latencies_agree",
                            lambda a, b: True)
    reused, wrong = reused_mismatches(designs, (name,))
    assert reused == 1 and len(wrong) == 1


def test_l2_rule_refuses_a_run_that_evicted_an_l2_line():
    """Nine lines in one set of a 1 MB L2 (eight ways): the ninth
    evicts the first, which a 2 MB L2 (twice the sets) still holds, so
    the last access completes at another cycle -- and the rule, given
    the 1 MB run's count, refuses."""
    small = V64_8K_1M.config
    large = dataclasses.replace(small, l2_mb=2)
    sets = hierarchy.l2_sets(small)
    stream = [k * sets for k in range(9)] + [0]
    done, evictions = [], []
    for config in (small, large):
        stats = SimStats()
        memory = MemoryHierarchy(config, Interconnect(config, stats), stats)
        cycle = 0
        for line in stream:
            cycle = memory.access(0, line * config.line_words, False, cycle)
        done.append(cycle)
        evictions.append((stats.l1_evictions, stats.l2_evictions))
    assert done[0] != done[1]
    # The ninth line evicts line 0; line 0 again evicts line 1.
    assert evictions[0][1] == 2 and evictions[1][1] == 0
    assert not certifies(small, large, *evictions[0])
    # A rule that ignored the count would certify the pair.
    assert certifies(small, large, evictions[0][0], 0)


@pytest.mark.parametrize("certifier, sibling, ok", [
    # The L2 rule: sizes nest, both nonzero.
    (dict(l2_mb=1), dict(l2_mb=2), True),
    (dict(l2_mb=0), dict(l2_mb=1), False),
    (dict(l2_mb=2), dict(l2_mb=3), False),  # 2,048 sets in 3,072
    (dict(l2_mb=2), dict(l2_mb=1), False),  # the certifier must be smaller
    # V/M move the placement.
    (dict(l2_mb=1), dict(l2_mb=2, virtualization=64), False),
    # The L1 rule: sets nest, no L2 to reach.
    (dict(l1_kb=8), dict(l1_kb=32), True),
    (dict(l1_kb=16), dict(l1_kb=24), False),
])
def test_the_rule_on_config_pairs(certifier, sibling, ok):
    base = WaveScalarConfig(clusters=4, virtualization=128,
                            matching_entries=128)
    assert certifies(dataclasses.replace(base, **certifier),
                     dataclasses.replace(base, **sibling), 0, 0) is ok


def test_a_sibling_parks_behind_its_certifier_in_flight(tmp_path):
    """At ``jobs=2`` both cells could be dispatched at once; the
    sibling waits for its certifier instead and is not simulated."""
    specs = [CellSpec(config=design.config, workload="gzip", scale="tiny")
             for design in (V64_8K_1M, V64_8K_2M)]
    records, report = sweep_cells(
        specs, ledger_path=tmp_path / "runs.jsonl", jobs=2,
        supervisor=RunSupervisor(isolation="process"),
    )
    assert (report.completed, report.reused) == (1, 1)
    first, second = (records[spec.cell_hash()] for spec in specs)
    assert second["reused_from"] == first["hash"]
    assert second["attempts"] == first["attempts"]
    assert second["cycles"] == first["cycles"]
    assert second["area_mm2"] > first["area_mm2"]


def test_a_ledger_without_counts_certifies_nothing(tmp_path):
    """Records of a ledger written before runs counted evictions carry
    no certificate: resumed, their siblings are simulated."""
    specs = [CellSpec(config=design.config, workload="gzip", scale="tiny")
             for design in (V64_8K_1M, V64_8K_2M)]
    old = tmp_path / "old.jsonl"
    sweep_cells(specs[:1], ledger_path=tmp_path / "new.jsonl",
                supervisor=RunSupervisor(isolation="inline"))
    ledger = Ledger(old)
    for record in Ledger(tmp_path / "new.jsonl").load().values():
        record = {k: v for k, v in record.items() if k not in ("seq", "crc")}
        record["metrics"] = {
            k: v for k, v in record["metrics"].items()
            if k not in ("l1_evictions", "l2_evictions")
        }
        ledger.append(record)
    _, report = sweep_cells(specs, ledger_path=old, resume=True,
                            supervisor=RunSupervisor(isolation="inline"))
    assert (report.skipped, report.completed, report.reused) == (1, 1, 0)
