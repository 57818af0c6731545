"""Surrogate-guided search support: sound-clipped predictions and the
held-out calibration report.

:class:`SurrogateModel` is the sweep driver's view of the learned
predictor.  It wraps :class:`~repro.surrogate.model.QuantileForest`
with the two policies the soundness argument needs (DESIGN.md §5k):

* predictions are **clipped to the static AIPC bound** -- the upper
  interval can never exceed what the PR 7 analysis proves impossible;
* before ``min_train`` measured rows exist the model answers with the
  **prior** ``(aipc=bound, lo=0, hi=bound)`` under model hash
  ``"prior"`` -- the surrogate skip test then degenerates exactly to
  the sound static-bound prune test, so a cold-start campaign can
  never skip on an unfitted model's guess.

:func:`calibration_report` is the exact-vs-predicted error gate: a
deterministic holdout split, MAE, and empirical interval coverage
(CI fails the surrogate job when coverage < 0.9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import FEATURE_NAMES, TrainingSet, cell_features
from .model import QuantileForest

#: Measured rows required before the forest replaces the prior.
MIN_TRAIN_ROWS = 12
#: Default skip gate on interval width (hi - lo, in AIPC): a design
#: whose unmeasured lanes carry wider intervals than this is
#: simulated even when its upper interval sits below the frontier.
UNCERTAINTY_THRESHOLD = 1.0


@dataclass(frozen=True)
class CellPrediction:
    """One cell's surrogate answer, already bound-clipped."""

    aipc: float
    lo: float
    hi: float
    model_hash: str

    @property
    def width(self) -> float:
        return self.hi - self.lo


class SurrogateModel:
    """Bound-clipped forest with a prior fallback (see module doc)."""

    def __init__(
        self,
        *,
        seed: int = 0,
        coverage: float = 0.9,
        min_train: int = MIN_TRAIN_ROWS,
        **forest_params,
    ) -> None:
        self.seed = seed
        self.coverage = coverage
        self.min_train = min_train
        self.forest_params = forest_params
        self._forest: Optional[QuantileForest] = None
        self.refits = 0

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self._forest is not None

    @property
    def model_hash(self) -> str:
        return self._forest.model_hash if self._forest else "prior"

    @property
    def train_rows(self) -> int:
        return self._forest.train_rows if self._forest else 0

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        groups: Optional[list[str]] = None,
    ) -> bool:
        """Fit when enough measured rows exist; returns whether the
        forest (vs the prior) now answers predictions.  ``groups``
        (workload names) turns on Mondrian per-workload margins."""
        if X.shape[0] < self.min_train:
            return False
        forest = QuantileForest(
            seed=self.seed, coverage=self.coverage,
            **self.forest_params,
        )
        forest.fit(X, y, groups=groups)
        self._forest = forest
        self.refits += 1
        return True

    # ------------------------------------------------------------------
    def predict_cell(self, spec, bound) -> CellPrediction:
        """Bound-clipped prediction for one cell.

        ``bound`` is the cell's
        :class:`~repro.analysis.dataflow.BoundReport`; clipping to
        ``bound.aipc_bound`` keeps the upper interval sound whenever
        the static analysis is (the forest alone is not).
        """
        cap = float(bound.aipc_bound)
        if self._forest is None:
            return CellPrediction(
                aipc=cap, lo=0.0, hi=cap, model_hash="prior"
            )
        x = np.asarray(
            [cell_features(spec, bound=bound)], dtype=np.float64
        )
        mean, lo, hi = (
            float(column[0]) for column in
            self._forest.predict_with_interval(x, [spec.workload])
        )
        return _clipped(mean, lo, hi, cap, self.model_hash)

    def predict_cells(
        self,
        pairs: Sequence[tuple[object, object]],
        rows: Optional[Sequence[list[float]]] = None,
    ) -> list[CellPrediction]:
        """:meth:`predict_cell` for every ``(spec, bound)`` pair, equal
        to it bit for bit, from one walk of the forest.  ``rows`` may
        pass the pairs' :func:`cell_features` vectors (the sweep keeps
        them, as they depend only on spec and bound)."""
        if self._forest is None or not pairs:
            return [self.predict_cell(*pair) for pair in pairs]
        if rows is None:
            rows = [cell_features(spec, bound=bound)
                    for spec, bound in pairs]
        mean, lo, hi = self._forest.predict_with_interval(
            np.asarray(rows, dtype=np.float64),
            [spec.workload for spec, _ in pairs], per_row=True,
        )
        model_hash = self.model_hash
        return [
            _clipped(m, low, high, float(bound.aipc_bound), model_hash)
            for (_, bound), m, low, high
            in zip(pairs, mean.tolist(), lo.tolist(), hi.tolist())
        ]


def _clipped(mean: float, lo: float, hi: float, cap: float,
             model_hash: str) -> CellPrediction:
    """A forest answer clipped to ``[0, cap]``, the sound bound."""
    hi = min(hi, cap)
    lo = max(0.0, min(lo, hi))
    return CellPrediction(
        aipc=max(0.0, min(mean, cap)), lo=lo, hi=hi,
        model_hash=model_hash,
    )


# ----------------------------------------------------------------------
# Exact-vs-predicted calibration
# ----------------------------------------------------------------------
_BOUND_COL = FEATURE_NAMES.index("aipc_bound")


@dataclass(frozen=True)
class CalibrationReport:
    """Held-out error of the surrogate on one training corpus."""

    rows: int
    train_rows: int
    holdout_rows: int
    mae: float
    coverage: float  # fraction of holdout truths inside [lo, hi]
    target_coverage: float
    mean_interval_width: float
    model_hash: str
    excluded: dict

    @property
    def calibrated(self) -> bool:
        return self.coverage >= self.target_coverage

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "train_rows": self.train_rows,
            "holdout_rows": self.holdout_rows,
            "mae": round(self.mae, 6),
            "coverage": round(self.coverage, 4),
            "target_coverage": self.target_coverage,
            "mean_interval_width": round(self.mean_interval_width, 6),
            "model_hash": self.model_hash,
            "calibrated": self.calibrated,
            "excluded": dict(sorted(self.excluded.items())),
        }

    def render(self) -> str:
        verdict = "CALIBRATED" if self.calibrated else "MISCALIBRATED"
        lines = [
            f"surrogate calibration: {verdict}",
            f"  rows            {self.rows} "
            f"({self.train_rows} train / {self.holdout_rows} holdout)",
            f"  holdout MAE     {self.mae:.4f} AIPC",
            f"  coverage        {self.coverage:.1%} "
            f"(target {self.target_coverage:.0%})",
            f"  interval width  {self.mean_interval_width:.4f} mean",
            f"  model hash      {self.model_hash}",
        ]
        if self.excluded:
            skipped = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.excluded.items())
            )
            lines.append(f"  excluded rows   {skipped}")
        return "\n".join(lines)


def calibration_report(
    training: TrainingSet,
    *,
    holdout: float = 0.25,
    seed: int = 0,
    coverage: float = 0.9,
    **forest_params,
) -> CalibrationReport:
    """Deterministic holdout calibration of the forest on one corpus.

    The split is a seeded permutation (no wall-clock, no global RNG)
    of the rows in cell-hash order, so the report is a function of the
    record set, not of ledger line order (which is completion order
    at ``jobs > 1``); predictions are bound-clipped exactly as the
    sweep driver clips them, so the reported MAE/coverage measure the
    deployed model.
    """
    if not 0.0 < holdout < 1.0:
        raise ValueError(f"holdout must be within (0, 1): {holdout}")
    n = training.rows
    if n < max(8, 2 * MIN_TRAIN_ROWS // 3):
        raise ValueError(
            f"need >= 8 usable rows to calibrate, got {n} "
            f"(excluded: {training.excluded or 'none'})"
        )
    rng = np.random.default_rng(seed)
    perm = np.argsort(training.cell_hashes, kind="stable")[
        rng.permutation(n)]
    n_hold = max(1, int(round(n * holdout)))
    if n - n_hold < 2:
        n_hold = n - 2
    hold = perm[:n_hold]
    train = perm[n_hold:]
    forest = QuantileForest(
        seed=seed, coverage=coverage, **forest_params
    )
    groups = training.groups or None
    forest.fit(
        training.X[train], training.y[train],
        groups=[groups[i] for i in train] if groups else None,
    )
    X_hold = training.X[hold]
    y_hold = training.y[hold]
    hold_groups = [groups[i] for i in hold] if groups else None
    caps = X_hold[:, _BOUND_COL]
    mean, lo, hi = forest.predict_with_interval(X_hold, hold_groups)
    mean = np.minimum(np.maximum(mean, 0.0), caps)
    hi = np.minimum(hi, caps)
    lo = np.minimum(lo, hi)
    inside = (y_hold >= lo - 1e-9) & (y_hold <= hi + 1e-9)
    return CalibrationReport(
        rows=n,
        train_rows=int(train.shape[0]),
        holdout_rows=int(hold.shape[0]),
        mae=float(np.abs(mean - y_hold).mean()),
        coverage=float(inside.mean()),
        target_coverage=coverage,
        mean_interval_width=float((hi - lo).mean()),
        model_hash=forest.model_hash,
        excluded=training.excluded,
    )
