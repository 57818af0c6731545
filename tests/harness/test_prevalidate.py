"""Sweep pre-validation: doomed configs are rejected before forking."""

from repro.core.config import WaveScalarConfig
from repro.harness.ledger import Ledger, summarize
from repro.harness.spec import CellSpec
from repro.harness.supervisor import CellResult
from repro.harness.sweep import static_rejection, sweep_cells

from .canned import CannedRunSupervisor

GOOD = WaveScalarConfig()
#: Legal object, unrealizable processor: a 256-entry matching table
#: breaks the 20 FO4 clock target (C002).
DOOMED = WaveScalarConfig(matching_entries=256)


class ForbiddenSupervisor(CannedRunSupervisor):
    """Fails the test if the sweep ever tries to simulate a cell."""

    def verdict(self, spec):
        raise AssertionError(
            f"supervisor forked for statically rejected cell "
            f"{spec.workload} on {spec.config.describe()}"
        )


def doomed_spec(**kw):
    defaults = dict(config=DOOMED, workload="gzip", scale="tiny")
    defaults.update(kw)
    return CellSpec(**defaults)


def test_static_rejection_flags_doomed_config():
    rejected = static_rejection(doomed_spec())
    assert rejected, "C002 should reject a 256-entry matching table"
    assert all(d.rule.startswith("C") for d in rejected)


def test_static_rejection_passes_good_config():
    assert static_rejection(doomed_spec(config=GOOD)) is None


def test_invalid_cell_never_reaches_supervisor(tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    records, report = sweep_cells(
        [doomed_spec()],
        ledger_path=ledger_path,
        supervisor=ForbiddenSupervisor(),
    )
    assert report.invalid == 1
    assert report.completed == report.failed == 0
    (record,) = records.values()
    assert record["status"] == "invalid"
    assert record["failure_class"] == "ConfigRuleViolation"
    assert record["attempts"] == 0
    assert record["diagnostics"]
    assert "invalid" in report.summary()


def test_invalid_record_round_trips_through_ledger(tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    sweep_cells(
        [doomed_spec()],
        ledger_path=ledger_path,
        supervisor=ForbiddenSupervisor(),
    )
    loaded = Ledger(ledger_path).load()
    assert summarize(loaded) == {"invalid": 1}
    (record,) = loaded.values()
    assert record["diagnostics"][0]["rule"].startswith("C")


def test_resume_skips_previously_rejected_cells(tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    spec = doomed_spec()
    sweep_cells(
        [spec], ledger_path=ledger_path,
        supervisor=ForbiddenSupervisor(),
    )
    _, second = sweep_cells(
        [spec], ledger_path=ledger_path, resume=True,
        supervisor=ForbiddenSupervisor(),
    )
    assert second.skipped == 1
    assert second.invalid == 0


def test_prevalidation_can_be_disabled(tmp_path):
    class Recorder(CannedRunSupervisor):
        def __init__(self):
            super().__init__()
            self.specs = []

        def verdict(self, spec):
            self.specs.append(spec)
            return CellResult(
                spec=spec, status="failed",
                failure_class="Simulated", failure_detail="",
            )

    supervisor = Recorder()
    _, report = sweep_cells(
        [doomed_spec()], supervisor=supervisor, prevalidate=False,
    )
    assert len(supervisor.specs) == 1
    assert report.invalid == 0
    assert report.failed == 1
