"""SurrogateModel's batch answer against its one-cell answer, and the
calibration report against ledger line order.

The skip loop asks the fitted model about every open cell in one
forest walk (``predict_cells``) and freezes those answers into
``predicted`` ledger records, so each must equal what
``predict_cell`` says about that cell alone, to the last bit."""

from repro.analysis.dataflow import bound_for_cell
from repro.design.space import viable_designs
from repro.harness.ledger import Ledger
from repro.harness.spec import CellSpec
from repro.surrogate.features import extract_training_set, training_rows
from repro.surrogate.search import SurrogateModel, calibration_report

NAMES = ("gzip", "mcf", "twolf", "ammp", "art", "equake")


def _cells():
    """102 real cells (every 4th viable design x six workloads) with
    their static bounds, and a synthetic AIPC per cell that the
    forest can learn only in part."""
    pairs, targets = [], []
    for index, design in enumerate(viable_designs()[::4]):
        for rank, name in enumerate(NAMES):
            spec = CellSpec(config=design.config, workload=name,
                            scale="tiny")
            pairs.append((spec, bound_for_cell(spec)))
            targets.append(round(
                0.05 * rank + 0.02 * design.config.clusters
                + 0.01 * ((index * 7 + rank * 3) % 5), 6
            ))
    return pairs, targets


def _hexes(prediction) -> tuple:
    return (prediction.aipc.hex(), prediction.lo.hex(),
            prediction.hi.hex(), prediction.model_hash)


def test_batch_predictions_equal_per_cell_predictions():
    pairs, targets = _cells()
    model = SurrogateModel(seed=0)
    # The prior answers the same way through either method.
    assert [_hexes(p) for p in model.predict_cells(pairs)] == [
        _hexes(model.predict_cell(*pair)) for pair in pairs
    ]
    # Train on five workloads' cells (every other design): those
    # groups get Mondrian margins, equake's cells use the global one.
    train = [
        (spec, {"status": "ok", "aipc": aipc})
        for i, ((spec, _), aipc) in enumerate(zip(pairs, targets))
        if spec.workload != "equake" and (i // len(NAMES)) % 2 == 0
    ]
    bounds = {spec.cell_hash(): bound for spec, bound in pairs}
    X, y, groups = training_rows(train, bounds=bounds)
    assert model.fit(X, y, groups=groups)
    margins = model._forest.group_margins
    assert "equake" not in margins and len(margins) >= 3
    batch = model.predict_cells(pairs)
    single = [model.predict_cell(*pair) for pair in pairs]
    assert [_hexes(p) for p in batch] == [_hexes(p) for p in single]


def test_calibration_report_ignores_ledger_line_order(tmp_path):
    """A ``jobs > 1`` campaign writes its records in completion order:
    the same record set in another line order is the same report."""
    pairs, targets = _cells()
    records = [
        {"hash": spec.cell_hash(), "status": "ok", "aipc": aipc,
         "spec": spec.as_dict()}
        for (spec, _), aipc in zip(pairs[:36], targets)
    ]
    reports = []
    for name, order in (("forward", records), ("reversed", records[::-1])):
        ledger = Ledger(tmp_path / f"{name}.jsonl")
        ledger.append_many(order)
        reports.append(calibration_report(extract_training_set(ledger)))
    assert reports[0].rows == 36
    assert reports[0].to_dict() == reports[1].to_dict()
