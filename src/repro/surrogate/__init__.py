"""Learned AIPC surrogate for sweep-cell triage.

Public surface:

* :mod:`repro.surrogate.features` -- cell feature vectors and the
  ledger training-set extractor;
* :mod:`repro.surrogate.model` -- the seeded numpy-only
  :class:`QuantileForest` with conformal intervals;
* :mod:`repro.surrogate.search` -- the bound-clipped
  :class:`SurrogateModel` the sweep driver consults, plus the
  held-out :func:`calibration_report` error gate.

The soundness contract (DESIGN.md §5k): the model orders and
annotates; every *skip* decision is gated by intervals clipped to the
sound static bound, and every Pareto-frontier point is measured
exactly, never predicted.
"""

from .features import (
    FEATURE_NAMES,
    TrainingSet,
    cell_features,
    extract_training_set,
)
from .model import QuantileForest
from .search import (
    MIN_TRAIN_ROWS,
    UNCERTAINTY_THRESHOLD,
    CalibrationReport,
    CellPrediction,
    SurrogateModel,
    calibration_report,
)

__all__ = [
    "FEATURE_NAMES",
    "TrainingSet",
    "cell_features",
    "extract_training_set",
    "QuantileForest",
    "MIN_TRAIN_ROWS",
    "UNCERTAINTY_THRESHOLD",
    "CalibrationReport",
    "CellPrediction",
    "SurrogateModel",
    "calibration_report",
]
