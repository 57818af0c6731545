"""Surrogate-guided sweep: frontier identity, predicted records,
resume semantics, and composition with prune / jobs / batched.

A canned supervisor returns AIPC values that decrease monotonically
with design area (all far below the static bounds), so the smallest
design dominates and the active loop has real skip opportunities --
without paying for simulation.  The composition tests at the bottom
run short real simulations, mirroring the prune/batched suites.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.design.pareto import pareto_front
from repro.design.space import viable_designs
from repro.harness.ledger import Ledger, summarize
from repro.harness.supervisor import CellResult, RunSupervisor
from repro.harness.sweep import design_space_sweep
from repro.workloads.base import Scale

from .canned import CannedRunSupervisor

FIXTURE = Path(__file__).with_name("surrogate_sweep_predicted.json")

NAMES = ["gzip", "mcf", "twolf"]
BASE_AIPC = {"gzip": 0.18, "mcf": 0.12, "twolf": 0.15}


class CannedSupervisor(CannedRunSupervisor):
    """AIPC decreases linearly with area, so the smallest design's
    clean aggregate dominates every later design once the model is
    confident.  Records every spec it was asked to simulate."""

    def __init__(self, areas: dict[str, float]):
        super().__init__()
        self.ran = []
        self._areas = areas
        self._lo = min(areas.values())
        self._hi = max(areas.values())

    def verdict(self, spec) -> CellResult:
        area = self._areas[spec.config.describe()]
        scale = (area - self._lo) / (self._hi - self._lo)
        aipc = BASE_AIPC[spec.workload] * (1.0 - 0.8 * scale)
        self.ran.append((spec.workload, spec.config.describe()))
        return CellResult(
            spec=spec, status="ok", attempts=1, retries=0,
            wall_s=0.001,
            outcome={"status": "ok", "aipc": round(aipc, 6),
                     "cycles": 1000, "alpha_instructions": 200},
        )


@pytest.fixture(scope="module")
def designs():
    return viable_designs()[:8]


@pytest.fixture()
def areas(designs):
    return {d.config.describe(): d.area_mm2 for d in designs}


def run_sweep(designs, areas, tmp_path, name, **kw):
    supervisor = CannedSupervisor(areas)
    points, report = design_space_sweep(
        designs, NAMES, scale=Scale.TINY,
        ledger_path=tmp_path / name, supervisor=supervisor, **kw,
    )
    return points, report, supervisor


def front_view(points):
    return [(p.label, p.area, round(p.performance, 9))
            for p in pareto_front(points)]


# ----------------------------------------------------------------------
# Core contract: fewer simulations, bit-identical frontier
# ----------------------------------------------------------------------
def test_surrogate_sweep_skips_cells(designs, areas, tmp_path):
    _, report, supervisor = run_sweep(
        designs, areas, tmp_path, "s.jsonl", surrogate=True
    )
    total = len(designs) * len(NAMES)
    assert report.predicted > 0
    assert report.completed + report.predicted == total
    assert report.total == total
    assert len(supervisor.ran) == report.completed
    assert "predicted" in report.summary()
    block = report.metrics["surrogate"]
    assert block["simulated_cells"] == report.completed
    assert block["predicted_cells"] == report.predicted
    assert block["refits"] >= 1
    assert block["train_rows"] == report.completed
    assert block["model_hash"]
    assert block["prior_skips"] is False


def test_frontier_is_bit_identical_to_exhaustive(designs, areas,
                                                 tmp_path):
    exhaustive, _, _ = run_sweep(designs, areas, tmp_path, "u.jsonl")
    surrogate, _, _ = run_sweep(
        designs, areas, tmp_path, "s.jsonl", surrogate=True
    )
    assert front_view(surrogate) == front_view(exhaustive)
    # Off-frontier points substitute the frozen upper interval, which
    # can only overstate -- never understate -- a skipped design.
    for pe, ps in zip(exhaustive, surrogate):
        assert ps.performance >= pe.performance - 1e-12


def test_predicted_ledger_record_shape(designs, areas, tmp_path):
    _, report, _ = run_sweep(
        designs, areas, tmp_path, "s.jsonl", surrogate=True
    )
    loaded = Ledger(tmp_path / "s.jsonl").load()
    counts = summarize(loaded)
    assert counts["predicted"] == report.predicted
    assert counts["ok"] == report.completed
    predicted = [r for r in loaded.values()
                 if r["status"] == "predicted"]
    for record in predicted:
        assert record["attempts"] == 0
        assert record["retries"] == 0
        assert record["wall_s"] == 0.0
        assert record["model_hash"]
        lo, hi = record["aipc_interval"]
        assert 0.0 <= lo <= record["aipc_predicted"] <= hi
        # Bound clipping: the stored interval never exceeds the sound
        # static ceiling it is aggregated against.
        assert hi <= record["aipc_bound"] + 1e-9
        assert record["spec"]["workload"] == record["workload"]


def pinned_view(designs, tmp_path) -> dict:
    """What the ledger and the report say the model decided: the
    ``predicted`` records' model-derived fields and the report's
    surrogate block.  Part of the determinism contract -- a resumed
    campaign replays these bytes."""
    areas = {d.config.describe(): d.area_mm2 for d in designs}
    _, report, _ = run_sweep(
        designs, areas, tmp_path, "pin.jsonl", surrogate=True
    )
    records = Ledger(tmp_path / "pin.jsonl").load().values()
    block = report.metrics["surrogate"]
    return {
        "predicted": sorted(
            (
                {key: r[key] for key in (
                    "hash", "aipc_predicted", "aipc_interval",
                    "model_hash",
                )}
                for r in records if r["status"] == "predicted"
            ),
            key=lambda r: r["hash"],
        ),
        "surrogate": {key: block[key] for key in (
            "refits", "train_rows", "model_hash",
            "simulated_cells", "predicted_cells",
        )},
    }


def test_predicted_records_match_fixture(designs, tmp_path):
    """Recorded before the forest's split search and tree walk were
    rewritten; re-record with
    ``PYTHONPATH=src python tests/harness/test_surrogate_sweep.py``."""
    want = json.loads(FIXTURE.read_text())
    got = pinned_view(designs, tmp_path)
    assert got["surrogate"] == want["surrogate"]
    assert got["predicted"] == want["predicted"]


# ----------------------------------------------------------------------
# Resume: surrogate on replays skips; surrogate off re-simulates them
# ----------------------------------------------------------------------
def test_resume_with_surrogate_replays_decisions(designs, areas,
                                                 tmp_path):
    first_points, _, _ = run_sweep(
        designs, areas, tmp_path, "s.jsonl", surrogate=True
    )
    points, report, supervisor = run_sweep(
        designs, areas, tmp_path, "s.jsonl", surrogate=True,
        resume=True,
    )
    assert supervisor.ran == []  # nothing re-simulated
    assert report.skipped == len(designs) * len(NAMES)
    assert report.completed == 0 and report.predicted == 0
    assert [(p.label, p.performance) for p in points] \
        == [(p.label, p.performance) for p in first_points]


def test_resume_without_surrogate_resimulates_predictions(
        designs, areas, tmp_path):
    _, first, _ = run_sweep(
        designs, areas, tmp_path, "s.jsonl", surrogate=True
    )
    points, report, supervisor = run_sweep(
        designs, areas, tmp_path, "s.jsonl", resume=True
    )
    # Every predicted cell is re-run; measured cells are resumed.
    assert report.completed == first.predicted
    assert len(supervisor.ran) == first.predicted
    assert report.skipped == first.completed
    assert summarize(Ledger(tmp_path / "s.jsonl").load()) \
        == {"ok": len(designs) * len(NAMES)}
    # With everything measured, aggregates equal the exhaustive run's.
    exhaustive, _, _ = run_sweep(designs, areas, tmp_path, "u.jsonl")
    assert [(p.label, p.performance) for p in points] \
        == [(p.label, p.performance) for p in exhaustive]


# ----------------------------------------------------------------------
# Composition: jobs is ignored deterministically; prune degenerates
# ----------------------------------------------------------------------
def test_jobs_value_does_not_change_surrogate_records(designs, areas,
                                                      tmp_path):
    def stripped(name, jobs):
        run_sweep(designs, areas, tmp_path, name,
                  surrogate=True, jobs=jobs)
        return {
            h: {k: v for k, v in r.items()
                if k not in ("wall_s", "ts", "seq", "crc", "version")}
            for h, r in Ledger(tmp_path / name).load().items()
        }

    assert stripped("j1.jsonl", 1) == stripped("j4.jsonl", 4)


def test_prune_composes_as_prior_skips(designs, areas, tmp_path):
    exhaustive, _, _ = run_sweep(designs, areas, tmp_path, "u.jsonl")
    points, report, supervisor = run_sweep(
        designs, areas, tmp_path, "sp.jsonl",
        surrogate=True, prune=True,
    )
    assert report.metrics["surrogate"]["prior_skips"] is True
    # Prior-based skips fire before the model fits, so strictly fewer
    # cells are simulated than surrogate-only cold start would need.
    assert len(supervisor.ran) < len(designs) * len(NAMES)
    assert front_view(points) == front_view(exhaustive)


@pytest.mark.parametrize("policy", [
    dict(prune=True), dict(surrogate=True), dict(surrogate=True,
                                                 prune=True),
], ids=["prune", "surrogate", "both"])
@pytest.mark.parametrize("n_designs", [8, 16])
def test_lane_scorings_per_round_scale_with_the_lane_count(
        monkeypatch, tmp_path, n_designs, policy):
    """The skip loop scores each lane about once per round (its
    design table), not once per pair of designs: the count per round
    stays a small multiple of designs x workloads as designs grow."""
    import repro.design.pareto as pareto
    import repro.harness.sweep as sweep

    calls = {"score": 0, "round": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sweep, "_lane_score",
                        counted("score", sweep._lane_score))
    # A round ends in one lane's measurement or, with nothing left
    # open, in the exact-verify pass over the frontier.
    monkeypatch.setattr(sweep, "execute_lanes",
                        counted("round", sweep.execute_lanes))
    monkeypatch.setattr(pareto, "pareto_front",
                        counted("round", pareto.pareto_front))
    designs = viable_designs()[:n_designs]
    areas = {d.config.describe(): d.area_mm2 for d in designs}
    run_sweep(designs, areas, tmp_path, "count.jsonl", **policy)
    lanes = n_designs * len(NAMES)
    assert calls["round"] > 1
    assert calls["score"] <= 2 * lanes * (calls["round"] + 1), calls


# ----------------------------------------------------------------------
# Real-simulation composition with the batched engine backend
# ----------------------------------------------------------------------
def test_surrogate_composes_with_batched_backend(tmp_path):
    designs = viable_designs()[:6]
    names = ["gzip", "mcf"]

    def sweep(tag: str, supervisor):
        return design_space_sweep(
            designs, names, scale=Scale.TINY,
            ledger_path=tmp_path / f"{tag}.jsonl", surrogate=True,
            supervisor=supervisor, max_cycles=200_000,
        )

    plain_points, _ = sweep("plain", RunSupervisor(
        isolation="inline", max_retries=1))
    batched_points, report = sweep("batched", RunSupervisor(
        isolation="inline", max_retries=1,
        backend="batched", batch_width=4))

    def view(points):
        return [(p.label, p.area, round(p.performance, 9))
                for p in points]

    assert view(batched_points) == view(plain_points)
    assert "surrogate" in report.metrics
    measured = [r for r in Ledger(tmp_path / "batched.jsonl")
                .load().values() if r["status"] == "ok"]
    assert measured
    assert all(r.get("backend") == "batched" for r in measured)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        FIXTURE.write_text(json.dumps(
            pinned_view(viable_designs()[:8], Path(scratch)),
            indent=1, sort_keys=True,
        ) + "\n")
