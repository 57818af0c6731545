"""Feature extraction for the AIPC surrogate.

One sweep cell becomes one fixed-width numeric vector drawn from three
sources, all config- or statics-derived (never from simulation):

* the design knobs themselves (cluster geometry, virtualization,
  matching table, cache sizing, die area from the Section 3 model);
* the workload's static/profile features already computed by
  :mod:`repro.analysis.dataflow` graph statics -- critical path,
  recurrence depth, fan-out pressure, dynamic work terms;
* the PR 7 static AIPC bound and its binding roof terms, as a prior
  the learned model can only tighten (predictions are later clipped
  to the bound, which is sound; the model is not).

The training-set extractor reads a ledger through
:meth:`repro.harness.ledger.Ledger.load`, the one reader every other
ledger consumer uses.

Outcome handling is one rule, :func:`repro.harness.ledger
.training_target`, shared by both extractors: ``ok`` rows train on
measured AIPC; ``failed``/``poisoned`` rows train on 0.0 (exactly the
score the sweep aggregation assigns them); ``invalid``,
``pruned_static`` and ``predicted`` rows are *excluded* -- the first
was never a simulatable cell, the other two carry no measurement
(training on a model's own prior outputs would self-reinforce).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..harness.ledger import training_target

#: Column order of every feature vector (stable across releases; the
#: model hash covers fitted structure, not this schema, so keep
#: appends at the end).
FEATURE_NAMES: tuple[str, ...] = (
    # -- design knobs ------------------------------------------------
    "clusters",
    "domains_per_cluster",
    "pes_per_domain",
    "virtualization",
    "matching_entries",
    "l1_kb",
    "l2_mb",
    "l1_ports",
    "total_pes",
    "area_mm2",
    # -- workload statics --------------------------------------------
    "static_alpha",
    "alpha_work",
    "dispatch_work",
    "memory_work",
    "fpu_work",
    "critical_path",
    "recurrence",
    "fanout_pressure",
    "threads",
    # -- static bound prior ------------------------------------------
    "aipc_bound",
    "cycles_lower_bound",
    "critical_path_placed",
    "dispatch_pe",
    "memory_roof",
)

# Per-process memo: area is a pure function of the config and the
# sweep grid re-uses a handful of configs across many workloads.
_AREA_CACHE: dict[str, float] = {}


def _area_of(config) -> float:
    key = config.describe()
    area = _AREA_CACHE.get(key)
    if area is None:
        from ..area.model import chip_area

        area = chip_area(config)
        _AREA_CACHE[key] = area
    return area


def cell_features(spec, bound=None) -> list[float]:
    """The feature vector for one :class:`CellSpec`, in
    :data:`FEATURE_NAMES` order.

    ``bound`` may pass a precomputed
    :class:`~repro.analysis.dataflow.BoundReport` (the sweep driver
    already holds one per cell); otherwise it is recomputed from the
    per-process statics cache.
    """
    from ..analysis.dataflow import _cached_statics, bound_for_cell

    statics = _cached_statics(
        spec.workload, spec.scale, spec.threads, spec.k, spec.seed
    )
    if bound is None:
        bound = bound_for_cell(spec)
    config = spec.config
    components = bound.components
    return [
        float(config.clusters),
        float(config.domains_per_cluster),
        float(config.pes_per_domain),
        float(config.virtualization),
        float(config.matching_entries),
        float(config.l1_kb),
        float(config.l2_mb),
        float(config.l1_ports),
        float(config.total_pes),
        float(_area_of(config)),
        float(statics.static_alpha),
        float(statics.alpha_work),
        float(statics.dispatch_work),
        float(statics.memory_work),
        float(statics.fpu_work),
        float(statics.critical_path),
        float(statics.recurrence),
        float(statics.fanout_pressure),
        float(spec.threads or 0),
        float(bound.aipc_bound),
        float(bound.cycles_lower_bound),
        float(components.get("critical_path_placed", 0.0)),
        float(components.get("dispatch_pe", 0.0)),
        float(components.get("memory", 0.0)),
    ]


@dataclass
class TrainingSet:
    """Feature matrix + targets extracted from one ledger."""

    X: np.ndarray  # (rows, len(FEATURE_NAMES))
    y: np.ndarray  # (rows,)
    #: Workload name per row -- the Mondrian conformal group labels.
    groups: list[str] = field(default_factory=list)
    cell_hashes: list[str] = field(default_factory=list)
    #: Rows excluded per status (``invalid``/``pruned_static``/
    #: ``predicted``/unparseable), for the calibration report.
    excluded: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return int(self.y.shape[0])


def extract_training_set(ledger) -> TrainingSet:
    """Read one ledger into a :class:`TrainingSet`.

    ``ledger`` is a :class:`~repro.harness.ledger.Ledger` (or any
    object with a compatible ``load``); rows come out in the order of
    its winning records.
    """
    from ..harness.spec import CellSpec

    features: list[list[float]] = []
    targets: list[float] = []
    groups: list[str] = []
    hashes: list[str] = []
    excluded: dict[str, int] = {}
    for record in ledger.load().values():
        status = record.get("status")
        target = training_target(status, record.get("aipc"))
        if target is None:
            key = status if isinstance(status, str) else "<malformed>"
            excluded[key] = excluded.get(key, 0) + 1
            continue
        try:
            spec = CellSpec.from_dict(record.get("spec"))
            row = cell_features(spec)
        except Exception:
            # A spec this build can no longer instantiate (not a dict,
            # renamed workload, stale schema) is excluded, not fatal:
            # old campaign ledgers must stay usable as training corpora.
            excluded["<malformed>"] = excluded.get("<malformed>", 0) + 1
            continue
        features.append(row)
        targets.append(target)
        groups.append(spec.workload)
        hashes.append(spec.cell_hash())
    X = np.asarray(features, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))
    y = np.asarray(targets, dtype=np.float64)
    return TrainingSet(X=X, y=y, groups=groups, cell_hashes=hashes,
                       excluded=excluded)


def training_rows(
    specs_and_records: Iterable[tuple[object, dict]],
    bounds: Optional[dict[str, object]] = None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """In-memory variant of :func:`extract_training_set` for the sweep
    driver, which already holds (spec, record) pairs and per-cell
    bounds; same outcome rules.  Returns ``(X, y, groups)``."""
    features: list[list[float]] = []
    targets: list[float] = []
    groups: list[str] = []
    for spec, record in specs_and_records:
        target = training_target(record.get("status"),
                                 record.get("aipc"))
        if target is None:
            continue
        bound = (bounds or {}).get(spec.cell_hash())
        features.append(cell_features(spec, bound=bound))
        targets.append(target)
        groups.append(spec.workload)
    X = np.asarray(features, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))
    return X, np.asarray(targets, dtype=np.float64), groups


def feature_frame(
    X: np.ndarray, names: Sequence[str] = FEATURE_NAMES
) -> list[dict]:
    """Rows as dicts (debug/report helper)."""
    return [
        {name: float(value) for name, value in zip(names, row)}
        for row in X
    ]
