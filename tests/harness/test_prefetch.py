"""The skip loop's prefetch: while the surrogate refits, the cell the
next round most likely measures already simulates in the idle
isolation child (``RunSupervisor.prefetch``).

It may only ever cost time: the ledger of a process-isolated sweep,
which prefetches, must equal the inline sweep's, which cannot; a
prefetched verdict reaches the ledger only when the loop asks for that
cell; and the supervisor still keeps one child running one attempt.
"""

import json
import multiprocessing

import pytest

from repro.core import WaveScalarConfig
from repro.design import viable_designs
from repro.harness import (
    CellSpec,
    Lane,
    Ledger,
    RunSupervisor,
    design_space_sweep,
    execute_lanes,
)
from repro.harness.supervisor import Dispatch
from repro.workloads import Scale

from .test_scheduler import refuse  # a run/run_batch that raises
from .test_scheduler import stripped  # minus wall clock, seq, cache counters

NAMES = ("gzip", "mcf", "twolf")
POLICIES = {
    "surrogate": dict(surrogate=True),
    "surrogate+prune": dict(surrogate=True, prune=True),
}
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def make_spec(**kwargs) -> CellSpec:
    defaults = dict(config=WaveScalarConfig(clusters=1, l2_mb=1),
                    workload="mcf", scale="tiny")
    defaults.update(kwargs)
    return CellSpec(**defaults)


def sweep(path, isolation: str, policy: str):
    """Five designs x three workloads, and the most isolation children
    alive at any progress callback."""
    children = []
    _, report = design_space_sweep(
        viable_designs()[::4][:5], NAMES, Scale.TINY,
        ledger_path=path, isolation=isolation, max_cycles=200_000,
        max_retries=1,
        progress=lambda spec, record: children.append(
            len(multiprocessing.active_children())),
        **POLICIES[policy],
    )
    with open(path) as fh:
        ledger = [stripped(json.loads(line)) for line in fh]
    return ledger, report.metrics["surrogate"], max(children)


@pytest.fixture(scope="module", params=sorted(POLICIES))
def policy(request):
    return request.param


@pytest.fixture(scope="module")
def sweeps(policy, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(policy.replace("+", "_"))
    return (sweep(tmp / "inline.jsonl", "inline", policy),
            sweep(tmp / "process.jsonl", "process", policy))


def test_process_ledger_equals_the_inline_ledger(sweeps):
    (inline, inline_block, _), (forked, block, _) = sweeps
    assert inline_block["prefetched"] == 0  # inline never prefetches
    assert block["prefetched"] > 0
    assert block["prefetch_hits"] > 0
    assert block["prefetch_hits"] + block["prefetch_reused"] \
        <= block["prefetched"]
    assert block["model_hash"] == inline_block["model_hash"] != "prior"
    # Record for record and in order: the prefetch changed no verdict,
    # added none, and moved none.
    assert forked == inline


def test_at_most_one_isolation_child_at_any_callback(sweeps):
    (_, _, inline_children), (_, _, children) = sweeps
    assert inline_children == 0
    assert children == 1


PREFETCH_COUNTS = ("model_hash", "prefetched", "prefetch_hits",
                   "prefetch_reused")


def test_the_skip_loop_never_enters_run_or_run_batch(
        sweeps, policy, tmp_path, monkeypatch):
    """A prefetch is a dispatch the driver is handed, not a side
    channel that only ``run`` reads: with ``run`` and ``run_batch``
    refusing, the process sweep still writes the same ledger and
    counts the same prefetches."""
    _, (want, want_block, _) = sweeps
    monkeypatch.setattr(RunSupervisor, "run", refuse)
    monkeypatch.setattr(RunSupervisor, "run_batch", refuse)
    ledger, block, _ = sweep(tmp_path / "refused.jsonl", "process", policy)
    assert ledger == want
    assert {key: block[key] for key in PREFETCH_COUNTS} == \
        {key: want_block[key] for key in PREFETCH_COUNTS}


@needs_fork
def test_start_is_handed_the_prefetched_dispatch(monkeypatch):
    sent, made = [], []
    send, init = RunSupervisor._send, Dispatch.__init__

    def counted(self, child_main, args):
        sent.append(args)
        return send(self, child_main, args)

    def recorded(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(RunSupervisor, "_send", counted)
    monkeypatch.setattr(Dispatch, "__init__", recorded)
    spec = make_spec()
    supervisor = RunSupervisor(isolation="process", timeout_s=60)
    try:
        supervisor.prefetch(spec)
        (prefetched,) = made
        assert supervisor.start([spec]) is prefetched
        assert prefetched.wait()[0].ok
        assert (supervisor.prefetched, supervisor.prefetch_hits) == (1, 1)
    finally:
        supervisor.close()
    assert len(made) == len(sent) == 1


@needs_fork
def test_prefetch_then_run_is_a_run_and_sends_one_attempt(monkeypatch):
    sent = []
    send = RunSupervisor._send

    def counted(self, child_main, args):
        sent.append(args)
        return send(self, child_main, args)

    monkeypatch.setattr(RunSupervisor, "_send", counted)
    spec = make_spec()
    fresh = RunSupervisor(isolation="process", timeout_s=60)
    try:
        want = fresh.run(spec)
    finally:
        fresh.close()
    del sent[:]
    supervisor = RunSupervisor(isolation="process", timeout_s=60)
    try:
        supervisor.prefetch(spec)
        got = supervisor.run(spec)
        assert len(sent) == 1
        assert (supervisor.prefetched, supervisor.prefetch_hits,
                supervisor.prefetch_reused) == (1, 1, 0)
        # A guess the caller did not take first is kept for later; a
        # verdict is served once, so the second run(spec) simulates.
        other = make_spec(workload="gzip")
        supervisor.prefetch(other)
        assert supervisor.run(spec).ok and len(sent) == 3
        assert supervisor.run(other).ok and len(sent) == 3
        assert supervisor.prefetch_reused == 1
    finally:
        supervisor.close()

    def verdict(result):
        fields = dict(vars(result), wall_s=None)
        fields["outcome"] = stripped(result.outcome)
        return fields

    assert got.ok
    assert verdict(got) == verdict(want)


@needs_fork
def test_a_prefetch_never_asked_for_never_reaches_the_ledger(tmp_path):
    guessed, asked = make_spec(workload="gzip"), make_spec()
    ledger = Ledger(tmp_path / "ledger.jsonl")
    supervisor = RunSupervisor(isolation="process", timeout_s=60)
    try:
        supervisor.prefetch(guessed)
        execute_lanes([Lane(key=(0,), specs=[asked])],
                      supervisor=supervisor, ledger=ledger)
    finally:
        supervisor.close()
    assert list(Ledger(tmp_path / "ledger.jsonl").load()) \
        == [asked.cell_hash()]


@needs_fork
def test_close_kills_a_prefetch_in_flight():
    supervisor = RunSupervisor(isolation="process", timeout_s=60)
    supervisor.prefetch(make_spec())
    (child,) = multiprocessing.active_children()
    supervisor.close()
    assert not child.is_alive()
    assert multiprocessing.active_children() == []
    assert supervisor.prefetched == 0  # counts are per campaign
    # Nothing of it is kept: the next run simulates afresh.
    assert supervisor.run(make_spec()).attempts == 1
    assert supervisor.prefetch_hits == 0
    supervisor.close()


def test_prefetch_is_a_no_op_inline():
    supervisor = RunSupervisor(isolation="inline")
    supervisor.prefetch(make_spec())
    assert supervisor.prefetched == 0
    assert supervisor._child is None
    assert multiprocessing.active_children() == []
    assert supervisor.run(make_spec()).ok
    assert (supervisor.prefetch_hits, supervisor.prefetch_reused) == (0, 0)
