"""Feature extraction and the ledger training-set extractor:
vector schema, outcome rules, and malformed-record tolerance."""

import numpy as np

from repro.core import WaveScalarConfig
from repro.harness.ledger import (
    FAILED,
    INVALID,
    OK,
    POISONED,
    PREDICTED,
    PRUNED_STATIC,
    Ledger,
)
from repro.harness.spec import CellSpec
from repro.surrogate.features import (
    FEATURE_NAMES,
    cell_features,
    extract_training_set,
    training_rows,
)

CONFIG = WaveScalarConfig(clusters=2, virtualization=64,
                          matching_entries=64, l2_mb=1)


def spec_for(workload="gzip"):
    return CellSpec(config=CONFIG, workload=workload, scale="tiny")


class FakeLedger:
    """Duck-typed stand-in whose ``load`` holds one record per
    (status, aipc, spec) row, a ``None`` field left out of it."""

    def __init__(self, rows):
        self.rows = rows

    def load(self):
        return {
            f"h{index}": {
                name: value
                for name, value in zip(("status", "aipc", "spec"), row)
                if value is not None
            }
            for index, row in enumerate(self.rows)
        }


def test_cell_features_schema():
    row = cell_features(spec_for())
    assert len(row) == len(FEATURE_NAMES)
    assert all(isinstance(v, float) and np.isfinite(v) for v in row)
    named = dict(zip(FEATURE_NAMES, row))
    assert named["clusters"] == 2.0
    assert named["area_mm2"] > 0.0
    assert named["aipc_bound"] > 0.0


def test_cell_features_accepts_precomputed_bound():
    from repro.analysis.dataflow import bound_for_cell

    spec = spec_for()
    bound = bound_for_cell(spec)
    assert cell_features(spec, bound=bound) == cell_features(spec)


def test_extract_outcome_rules():
    ok = spec_for("gzip")
    failed = spec_for("mcf")
    rows = [
        ("ok", 0.125, ok.as_dict()),
        ("failed", None, failed.as_dict()),
        ("poisoned", 0.5, spec_for("twolf").as_dict()),
        ("invalid", None, ok.as_dict()),
        ("pruned_static", None, ok.as_dict()),
        ("predicted", 0.2, ok.as_dict()),
        (None, None, None),  # a record without a status
    ]
    training = extract_training_set(FakeLedger(rows))
    assert training.rows == 3
    assert training.X.shape == (3, len(FEATURE_NAMES))
    # ok trains on measured AIPC; failed/poisoned train on the 0.0
    # score the sweep aggregation assigns them.
    assert list(training.y) == [0.125, 0.0, 0.0]
    assert training.groups == ["gzip", "mcf", "twolf"]
    assert training.cell_hashes[0] == ok.cell_hash()
    # Model-free rows are excluded, never trained on.
    assert training.excluded == {
        "invalid": 1, "pruned_static": 1, "predicted": 1,
        "<malformed>": 1,
    }


def test_extract_tolerates_unparseable_specs():
    rows = [
        ("ok", 0.125, spec_for().as_dict()),
        ("ok", 0.1, {"workload": "gzip"}),  # stale schema
        ("ok", 0.1, "not-a-dict"),
    ]
    training = extract_training_set(FakeLedger(rows))
    assert training.rows == 1
    assert training.excluded == {"<malformed>": 2}


def test_extract_empty_ledger():
    training = extract_training_set(FakeLedger([]))
    assert training.rows == 0
    assert training.X.shape == (0, len(FEATURE_NAMES))


def test_training_rows_matches_extractor_rules():
    ok = spec_for("gzip")
    pairs = [
        (ok, {"status": "ok", "aipc": 0.125}),
        (spec_for("mcf"), {"status": "failed"}),
        (spec_for("twolf"), {"status": "predicted", "aipc": 0.2}),
    ]
    X, y, groups = training_rows(pairs)
    assert X.shape == (2, len(FEATURE_NAMES))
    assert list(y) == [0.125, 0.0]
    assert groups == ["gzip", "mcf"]
    # Precomputed bounds give the identical row.
    from repro.analysis.dataflow import bound_for_cell

    X2, _, _ = training_rows(pairs,
                             bounds={ok.cell_hash(): bound_for_cell(ok)})
    assert np.array_equal(X2[0], X[0])


def test_both_extractors_apply_one_training_rule(tmp_path):
    """A ledger holding every status plus one unparseable spec gives
    the same rows read through :func:`extract_training_set` and
    passed through :func:`training_rows` as the (spec, record) pairs
    the sweep driver holds."""
    statuses = (OK, FAILED, POISONED, INVALID, PRUNED_STATIC, PREDICTED)
    specs = [spec_for(name) for name in
             ("gzip", "mcf", "twolf", "equake", "ammp", "art")]
    ledger = Ledger(tmp_path / "runs.jsonl")
    for index, (status, spec) in enumerate(zip(statuses, specs)):
        ledger.append({"hash": spec.cell_hash(), "status": status,
                       "aipc": 0.125 * (index + 1), "spec": spec.as_dict()})
    ledger.append({"hash": "stale", "status": OK, "aipc": 0.5,
                   "spec": {"workload": "gzip"}})

    training = extract_training_set(ledger)
    pairs = [(CellSpec.from_dict(record["spec"]), record)
             for record in ledger.load().values()
             if record["hash"] != "stale"]
    X, y, groups = training_rows(pairs)
    assert np.array_equal(training.X, X)
    assert list(training.y) == list(y) == [0.125, 0.0, 0.0]
    assert training.groups == groups == ["gzip", "mcf", "twolf"]
    assert training.excluded == {
        INVALID: 1, PRUNED_STATIC: 1, PREDICTED: 1, "<malformed>": 1,
    }
