"""Exact reuse: a cell certified by a sibling's run is that run.

The oracle re-simulates every reused cell of a campaign over the
benchmark study's four-cluster designs, in both design orders, with
``simulate_cell`` and holds its whole ``SimStats`` to the
certifier's.  Planted defects in the rule -- one that ignores L1
evictions, one that skips the floorplan latency check, one that
certifies a smaller sibling without reading the fit -- must make the
oracle find a difference; a rule that ignores L2 evictions is caught
on a synthetic access stream, since no registry cell evicts an L2
line.
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
from repro.sim.memory.hierarchy import (
    MemoryHierarchy,
    certifies,
    fit_sets,
    upward_fit,
)
from repro.sim.network.topology import Interconnect
from repro.sim.stats import SimStats
from repro.workloads import Scale

STUDY = viable_designs()[::4]  # the benchmark study's designs
C4 = [design for design in STUDY if design.config.clusters == 4]
SPEC = ("gzip", "mcf", "twolf", "ammp", "art", "equake")


def by_name(describe: str):
    (design,) = [d for d in C4 if d.config.describe() == describe]
    return design


V64_8K_1M = by_name("C4xD4xP8 V64 M64 L1:8KB L2:1MB")
V64_8K_2M = by_name("C4xD4xP8 V64 M64 L1:8KB L2:2MB")
V64_16K_2M = by_name("C4xD4xP8 V64 M64 L1:16KB L2:2MB")
V128_8K_1M = by_name("C4xD4xP8 V128 M128 L1:8KB L2:1MB")
V128_32K_1M = by_name("C4xD4xP8 V128 M128 L1:32KB L2:1MB")


def reused_mismatches(designs, names) -> tuple[int, int, list[str]]:
    """Run an inline campaign and re-simulate every reused cell: the
    count of reused cells, how many of them a certifier with a larger
    cache certified, and those whose ``SimStats`` differ from their
    certifier's (read back from the record it copied)."""
    ledger_records = {}

    def note(spec, record):
        ledger_records[spec.cell_hash()] = (spec, record)

    design_space_sweep(
        designs, names, Scale.TINY, isolation="inline",
        max_cycles=1_000_000, max_retries=1, progress=note,
    )
    stats_of = {}
    reused, downward, wrong = 0, 0, []
    for cell, (spec, record) in ledger_records.items():
        source = record.get("reused_from")
        if source is None:
            continue
        reused += 1
        certifier = ledger_records[source][0]
        downward += (certifier.config.l1_kb > spec.config.l1_kb
                     or certifier.config.l2_mb > spec.config.l2_mb)
        if source not in stats_of:
            stats_of[source] = dataclasses.asdict(
                simulate_cell(certifier).stats)
        if dataclasses.asdict(simulate_cell(spec).stats) \
                != stats_of[source]:
            wrong.append(spec.describe())
    return reused, downward, wrong


def test_every_reused_cell_simulates_to_its_certifiers_stats():
    """In both design orders; in reverse, larger caches come first,
    and most certifiers are larger than the cells they certify."""
    for designs in (C4, C4[::-1]):
        reused, downward, wrong = reused_mismatches(designs, SPEC)
        assert reused >= 12  # the L2 rule alone certifies 12 of these
        assert wrong == []
    assert downward >= reused // 2


def test_reuse_does_not_depend_on_the_design_order():
    """The benchmark study reuses as many cells whichever end of the
    design list runs first: a run certifies smaller siblings as well
    as larger ones."""
    reused = []
    for designs in (STUDY, STUDY[::-1]):
        _, report = design_space_sweep(
            designs, SPEC, Scale.TINY, isolation="inline",
            max_cycles=1_000_000, max_retries=1,
        )
        reused.append(report.reused)
    assert reused[0] == reused[1] > 0


def _ignore_l1_evictions(certifier, sibling, l1_fit_sets, l2_fit_sets):
    return certifies(certifier, sibling,
                     upward_fit(certifier, 0, 0)[0], l2_fit_sets)


def _ignore_the_fit_downward(certifier, sibling, l1_fit_sets,
                             l2_fit_sets):
    """Reads the fit only for a larger sibling; a smaller one is
    taken to fit."""
    if sibling.l1_kb < certifier.l1_kb:
        l1_fit_sets = sibling.l1_sets
    if sibling.l2_mb < certifier.l2_mb:
        l2_fit_sets = hierarchy.l2_sets(sibling)
    return certifies(certifier, sibling, l1_fit_sets, l2_fit_sets)


@pytest.mark.parametrize("defect, designs, name", [
    # mcf takes 12,449 cycles at 8 KB and 9,533 at 32 KB.
    ("ignores l1_evictions", (V128_8K_1M, V128_32K_1M), "mcf"),
    # gzip takes 4,925 cycles at 8 KB and 4,928 at 16 KB: the larger
    # cluster moves the L2 banks.
    ("skips the latency check", (V64_8K_2M, V64_16K_2M), "gzip"),
    # mcf at 32 KB evicts nothing, but its lines need 64 sets: an
    # 8 KB L1 (16 sets) evicts them.
    ("ignores the fit downward", (V128_32K_1M, V128_8K_1M), "mcf"),
])
def test_the_oracle_catches_a_planted_defect(monkeypatch, defect,
                                             designs, name):
    assert reused_mismatches(designs, (name,)) == (0, 0, [])
    if defect == "ignores l1_evictions":
        monkeypatch.setattr(scheduler, "certifies", _ignore_l1_evictions)
    elif defect == "ignores the fit downward":
        monkeypatch.setattr(scheduler, "certifies",
                            _ignore_the_fit_downward)
    else:
        monkeypatch.setattr(hierarchy, "_l2_latencies_agree",
                            lambda a, b: True)
    reused, _, wrong = reused_mismatches(designs, (name,))
    assert reused == 1 and len(wrong) == 1


def _replay(config, stream) -> tuple[int, MemoryHierarchy]:
    """``(cycle, hierarchy)`` after ``(cluster, line, is_store)``
    accesses one after the other, each starting when the last
    completed."""
    stats = SimStats()
    memory = MemoryHierarchy(config, Interconnect(config, stats), stats)
    cycle = 0
    for cluster, line, is_store in stream:
        cycle = memory.access(cluster, line * config.line_words, is_store,
                              cycle)
    return cycle, memory


def test_l2_rule_refuses_a_run_that_evicted_an_l2_line():
    """Nine lines in one set of a 1 MB L2 (eight ways): the ninth
    evicts the first, which a 2 MB L2 (twice the sets) still holds, so
    the last access completes at another cycle -- and the rule, given
    the 1 MB run's fit, refuses."""
    small = V64_8K_1M.config
    large = dataclasses.replace(small, l2_mb=2)
    sets = hierarchy.l2_sets(small)
    stream = [(0, k * sets, False) for k in range(9)] + [(0, 0, False)]
    (done_small, memory), (done_large, _) = (
        _replay(config, stream) for config in (small, large))
    assert done_small != done_large
    # The ninth line evicts line 0; line 0 again evicts line 1.
    assert memory.stats.l2_evictions == 2
    l1_fit, l2_fit = memory.fit()
    assert l2_fit == 0
    assert not certifies(small, large, l1_fit, l2_fit)
    # A rule that ignored the fit would certify the pair.
    assert certifies(small, large, l1_fit, sets)


def test_the_fit_counts_every_line_an_l1_held():
    """Cluster 0 reads lines 0, 2, 4, 6 and 8 of a 16-set L1 (four
    ways), then cluster 1 stores to line 8, invalidating cluster 0's
    copy.  Cluster 0 held five lines: their sets first overflow at
    two sets (all five in set 0), so the fit is 4 -- not 1, which the
    four lines it still holds would give.  An L1 of 4 sets replays the
    run cycle for cycle and one of 2 sets does not."""
    base = WaveScalarConfig(clusters=4, virtualization=128,
                            matching_entries=128, l1_kb=8)
    stream = [(0, line, False) for line in (0, 2, 4, 6, 8)]
    stream += [(1, 8, True)] + [(0, line, False) for line in (0, 2, 4, 6)]
    done, memory = _replay(base, stream)
    assert memory.stats.invalidations == 1
    assert memory.l1[0].lines() == {0, 2, 4, 6}
    assert memory.fit() == (4, 0)
    four, two = (dataclasses.replace(base, l1_kb=kb) for kb in (2, 1))
    assert (four.l1_sets, two.l1_sets) == (4, 2)
    assert certifies(base, four, *memory.fit())
    assert not certifies(base, two, *memory.fit())
    assert _replay(four, stream)[0] == done
    assert _replay(two, stream)[0] != done
    # An L1 that evicted certifies no other L1 size.
    _, evicting = _replay(two, stream)
    assert evicting.stats.l1_evictions > 0 and evicting.fit()[0] == 0


@pytest.mark.parametrize("counts, sets, fit", [
    ({}, 16, 1),
    ({0: 1, 1: 1, 2: 1, 3: 1}, 16, 1),
    ({0: 2, 4: 3}, 16, 8),  # five lines in set 0 of 4
    ({0: 2, 8: 3}, 16, 16),  # five lines in set 0 of 8
    ({0: 5}, 16, 16),  # the array's own count is taken as given
    ({0: 1, 4: 4}, 12, 3),  # 12 -> 6 -> 3, and 3 is odd
])
def test_fit_sets_halves_while_every_set_fits(counts, sets, fit):
    assert fit_sets(counts, sets, 4) == fit


@pytest.mark.parametrize("certifier, sibling, ok", [
    # The L2 rule: sizes nest, both nonzero.
    (dict(l2_mb=1), dict(l2_mb=2), True),
    (dict(l2_mb=0), dict(l2_mb=1), False),
    (dict(l2_mb=2), dict(l2_mb=3), False),  # 2,048 sets in 3,072
    (dict(l2_mb=2), dict(l2_mb=1), False),  # no fit below its own sets
    # V/M move the placement.
    (dict(l2_mb=1), dict(l2_mb=2, virtualization=64), False),
    # The L1 rule: sets nest, no L2 to reach.
    (dict(l1_kb=8), dict(l1_kb=32), True),
    (dict(l1_kb=16), dict(l1_kb=24), False),
])
def test_the_rule_on_config_pairs(certifier, sibling, ok):
    """Under the fit a run has from evicting nothing -- its own set
    counts (a record that predates fits certifies with this)."""
    base = WaveScalarConfig(clusters=4, virtualization=128,
                            matching_entries=128)
    certifier = dataclasses.replace(base, **certifier)
    assert certifies(certifier, dataclasses.replace(base, **sibling),
                     *upward_fit(certifier, 0, 0)) is ok


@pytest.mark.parametrize("certifier, sibling, fit, ok", [
    # The L2 rule: a multiple of the fit, both sizes nonzero.
    (dict(l2_mb=2), dict(l2_mb=1), (16, 2048), False),  # too few sets
    (dict(l2_mb=2), dict(l2_mb=1), (16, 2), True),
    (dict(l2_mb=4), dict(l2_mb=1), (16, 2), True),
    (dict(l2_mb=0), dict(l2_mb=1), (16, 0), False),
    (dict(l2_mb=1), dict(l2_mb=0), (16, 2), False),
    (dict(l2_mb=2), dict(l2_mb=3), (16, 2048), False),  # 3,072 sets
    (dict(l2_mb=2), dict(l2_mb=3), (16, 1024), True),
    (dict(l2_mb=1), dict(l2_mb=2), (16, 0), False),  # evicted
    # V/M move the placement.
    (dict(l2_mb=1), dict(l2_mb=2, virtualization=64), (16, 2), False),
    # The L1 rule, no L2 to reach.
    (dict(l1_kb=8), dict(l1_kb=32), (16, 0), True),
    (dict(l1_kb=16), dict(l1_kb=24), (32, 0), False),  # 48 sets
    (dict(l1_kb=16), dict(l1_kb=24), (16, 0), True),
    (dict(l1_kb=32), dict(l1_kb=8), (64, 0), False),
    (dict(l1_kb=32), dict(l1_kb=8), (4, 0), True),
    (dict(l1_kb=32), dict(l1_kb=8), (0, 0), False),  # evicted
])
def test_the_rule_with_a_fit_on_config_pairs(certifier, sibling, fit,
                                             ok):
    base = WaveScalarConfig(clusters=4, virtualization=128,
                            matching_entries=128)
    assert certifies(dataclasses.replace(base, **certifier),
                     dataclasses.replace(base, **sibling), *fit) is ok


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


def _resume_from_old_record(tmp_path, certifier: CellSpec,
                            sibling: CellSpec, dropped: tuple):
    """Run ``certifier`` alone, rewrite its record without the
    ``dropped`` metrics, and resume a campaign of both cells from
    that ledger: the campaign's report."""
    old = tmp_path / "old.jsonl"
    sweep_cells([certifier], ledger_path=tmp_path / "new.jsonl",
                supervisor=RunSupervisor(isolation="inline"))
    ledger = Ledger(old)
    for record in Ledger(tmp_path / "new.jsonl").load().values():
        record = {k: v for k, v in record.items() if k not in ("seq", "crc")}
        record["metrics"] = {
            k: v for k, v in record["metrics"].items() if k not in dropped
        }
        ledger.append(record)
    _, report = sweep_cells([certifier, sibling], ledger_path=old,
                            resume=True,
                            supervisor=RunSupervisor(isolation="inline"))
    return report


def test_a_ledger_without_counts_certifies_nothing(tmp_path):
    """Records of a ledger written before runs counted evictions carry
    no certificate: resumed, their siblings are simulated."""
    small, large = (CellSpec(config=design.config, workload="gzip",
                             scale="tiny")
                    for design in (V64_8K_1M, V64_8K_2M))
    report = _resume_from_old_record(
        tmp_path, small, large,
        ("l1_evictions", "l2_evictions", "l1_fit_sets", "l2_fit_sets"))
    assert (report.skipped, report.completed, report.reused) == (1, 1, 0)


@pytest.mark.parametrize("certifier, reused", [
    (V64_8K_1M, 1),  # upward: the eviction counts suffice
    (V64_8K_2M, 0),  # downward needs the fit gzip's record lacks
])
def test_a_record_with_counts_but_no_fits_certifies_upward_only(
        tmp_path, certifier, reused):
    """A record written before runs reported their fit certifies its
    siblings with larger caches, as eviction counts always did, and
    no smaller one -- though gzip's fit, had it been recorded, would
    certify the 1 MB cell from the 2 MB run."""
    other = V64_8K_2M if certifier is V64_8K_1M else V64_8K_1M
    first, second = (CellSpec(config=design.config, workload="gzip",
                              scale="tiny")
                     for design in (certifier, other))
    report = _resume_from_old_record(tmp_path, first, second,
                                     ("l1_fit_sets", "l2_fit_sets"))
    assert (report.skipped, report.completed, report.reused) \
        == (1, 1 - reused, reused)
    fresh = sweep_cells([first, second],
                        supervisor=RunSupervisor(isolation="inline"))[1]
    assert (fresh.completed, fresh.reused) == (1, 1)
