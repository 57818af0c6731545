"""The crash-recovery oracle.

A campaign disturbed by a real failure and healed by the production
recovery paths (resume, ``repair``/``compact``, the circuit breaker,
the watchdog) must say what an undisturbed serial run of the same
cells says: the same cells, the same verdicts, and the same
deterministic counters from :func:`~repro.obs.metrics.aggregate_records`.
Cells whose cause leaves a named outcome of its own -- a poisoned
cell, a stall the watchdog killed -- are named in ``expect`` and
checked against that outcome instead.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.harness import Ledger
from repro.obs.metrics import RECOVERY_COUNTERS, aggregate_records


def verdict(record: dict) -> tuple:
    return (record.get("status"), record.get("aipc"),
            record.get("failure_class"), record.get("attempts"),
            record.get("retries"))


def counters(records: Iterable[dict]) -> dict[str, int]:
    """The deterministic counters of ``records``, minus the recovery
    counters that describe the disturbance rather than the result."""
    return {
        name: value
        for name, value in aggregate_records(records).counters.items()
        if name not in RECOVERY_COUNTERS
    }


def divergence(baseline: dict[str, dict], healed: dict[str, dict],
               expect: Optional[dict[str, tuple]] = None) -> list[str]:
    """Every way ``healed`` differs from ``baseline`` (empty when it
    heals).  ``expect`` maps a cell hash to the ``(status,
    failure_class)`` its disturbance must end in."""
    expect = expect or {}
    problems = []
    lost = sorted(set(baseline) - set(healed))
    extra = sorted(set(healed) - set(baseline) - set(expect))
    if lost:
        problems.append(f"{len(lost)} cell(s) lost: {lost[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected cell(s): {extra[:3]}")
    for cell, outcome in sorted(expect.items()):
        got = healed.get(cell, {})
        if (got.get("status"), got.get("failure_class")) != outcome:
            problems.append(f"{cell}: expected {outcome}, got "
                            f"{(got.get('status'), got.get('failure_class'))}")
    shared = sorted((set(baseline) & set(healed)) - set(expect))
    divergent = [cell for cell in shared
                 if verdict(baseline[cell]) != verdict(healed[cell])]
    if divergent:
        problems.append(f"{len(divergent)} divergent verdict(s): "
                        f"{divergent[:3]}")
    want = counters(baseline[cell] for cell in shared)
    got = counters(healed[cell] for cell in shared)
    if want != got:
        problems.append("divergent counters: " + ", ".join(sorted(
            name for name in set(want) | set(got)
            if want.get(name) != got.get(name))))
    return problems


def assert_healed(baseline: dict[str, dict], path,
                  expect: Optional[dict[str, tuple]] = None) -> dict:
    """Compact the ledger at ``path``, check that every line verifies
    and that no cell is counted twice, and hold what it says to the
    baseline (see :func:`divergence`).  Returns the healed records."""
    ledger = Ledger(path)
    ledger.compact()
    audit = ledger.verify()
    assert audit.clean and audit.superseded == 0, audit.summary()
    healed = ledger.load()
    problems = divergence(baseline, healed, expect)
    assert not problems, "\n".join(problems)
    return healed
