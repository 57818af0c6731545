"""Conservation identities of a finished run's ``SimStats``.

Two counts are each kept twice, by different code, and must agree on
every run that ends ``ok``:

* every load or store the store buffer issues is one L1 access, a hit
  or a miss: ``l1_hits + l1_misses == loads + stores``;
* every message is counted once in total and once by kind and level:
  ``message_count == sum of messages[kind][level]``.

They hold on every ``ok`` verdict in ``verdicts.json`` and on live
runs, so they survive a re-record: a change that breaks one broke the
bookkeeping, not the model.  Two near-identities are not identities
(DESIGN.md section 5f, "Conservation identities"): ``memory_ops``
also counts MEMORY_NOP requests, and ``dispatches`` counts a STORE's
data half as a second dispatch.
"""

import json

import pytest

from repro.sim.engine import Engine
from repro.sim.memory.hierarchy import MemoryHierarchy

from .verdicts import FIXTURE, GOLDEN, cell

LIVE = ["gzip", "fft", "mcf"]


def violations(stats: dict) -> list:
    """The identities ``stats`` (a ``SimStats`` as a dict) breaks."""
    broken = []
    accesses = stats["l1_hits"] + stats["l1_misses"]
    if accesses != stats["loads"] + stats["stores"]:
        broken.append(
            f"l1_hits + l1_misses = {accesses}, loads + stores = "
            f"{stats['loads'] + stats['stores']}"
        )
    by_level = sum(
        count for per in stats["messages"].values()
        for count in per.values()
    )
    if stats["message_count"] != by_level:
        broken.append(
            f"message_count = {stats['message_count']}, "
            f"messages sum to {by_level}"
        )
    return broken


def live_stats(name: str) -> dict:
    engine = Engine(*cell(name, GOLDEN))
    engine.run()
    return vars(engine.stats)


def test_every_recorded_ok_verdict_conserves():
    entries = json.loads(FIXTURE.read_text())
    ok = {
        case: seen["verdict"][1] for case, seen in entries.items()
        if isinstance(seen, dict) and seen["verdict"][0] == "ok"
    }
    assert len(ok) >= 40  # the golden set and more
    assert {case: violations(stats) for case, stats in ok.items()
            if violations(stats)} == {}
    # The memory counters are not all zero: the identity has teeth.
    assert sum(stats["loads"] + stats["stores"] for stats in ok.values())


@pytest.mark.parametrize("name", LIVE)
def test_live_runs_conserve(name):
    stats = live_stats(name)
    assert stats["loads"] + stats["stores"] > 0
    assert violations(stats) == []


def test_a_dropped_miss_count_is_caught(monkeypatch):
    """A planted defect: the first L1 miss goes uncounted."""
    miss = MemoryHierarchy._miss
    dropped = []

    def forgetful(self, *args, **kwargs):
        if not dropped:
            dropped.append(True)
            self.stats.l1_misses -= 1
        return miss(self, *args, **kwargs)

    monkeypatch.setattr(MemoryHierarchy, "_miss", forgetful)
    (broken,) = violations(live_stats("gzip"))
    assert broken.startswith("l1_hits + l1_misses = ")
