"""Data oracle: fitted forests pinned bit-for-bit as a JSON fixture.

The sweep's skip decisions, the ``predicted`` ledger records and every
``model_hash`` depend on the last bit of the forest's arithmetic, so a
rewrite of the split search or the tree walk must reproduce it
exactly.  This fixture holds, for nine seeded training sets shaped
like the sweep's (24 columns, mostly integer-valued design knobs with
heavy duplication), the model hash, the global and per-group margins,
and ``predict``/``predict_interval`` on ten query rows as
``float.hex()`` strings.  It was recorded at the commit *before* the
split search was batched over features.

To re-record after an intended change to the fitted model::

    PYTHONPATH=src python tests/surrogate/test_forest_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.surrogate.model import QuantileForest

FIXTURE = Path(__file__).with_name("forest_golden.json")

WIDTH = 24
QUERIES = 10
GROUP_NAMES = ("gzip", "mcf", "twolf", "ammp", "art", "equake")

#: name -> (rows, grouped, min_leaf, constant y)
CASES = {
    "n12": (12, False, 2, False),
    "n13_groups": (13, True, 2, False),
    "n30_groups_leaf1": (30, True, 1, False),
    "n30_leaf4": (30, False, 4, False),
    "n59_groups": (59, True, 2, False),
    "n59_leaf1": (59, False, 1, False),
    "n160_groups_leaf4": (160, True, 4, False),
    "n160": (160, False, 2, False),
    "n30_groups_constant_y": (30, True, 2, True),
}


def knob_data(n: int, seed: int):
    """``(X, y, groups)`` shaped like the sweep's training rows: ten
    power-of-two knob columns, nine per-workload statics (constant
    within a group), five continuous bound terms; ``y`` rounded to
    six places like a ledger AIPC, so targets tie too."""
    rng = np.random.default_rng(seed)
    group_ids = rng.integers(0, len(GROUP_NAMES), size=n)
    knobs = 2.0 ** rng.integers(0, 5, size=(n, 10))
    knobs[:, 7] = 2.0  # a constant column, like l1_ports
    statics = np.floor(
        np.random.default_rng(99).uniform(
            1.0, 500.0, size=(len(GROUP_NAMES), 9)
        )
    )[group_ids]
    bounds = rng.uniform(0.05, 4.0, size=(n, 5))
    X = np.hstack([knobs, statics, bounds])
    assert X.shape == (n, WIDTH)
    y = (
        0.02 * np.log2(knobs[:, 0] * knobs[:, 3])
        + 0.1 * bounds[:, 0]
        + 0.05 * group_ids
        + 0.02 * rng.standard_normal(n)
    )
    y = np.round(np.maximum(y, 0.0), 6)
    return X, y, [GROUP_NAMES[g] for g in group_ids]


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _fitted(name: str) -> dict:
    n, grouped, min_leaf, constant = CASES[name]
    seed = sorted(CASES).index(name)
    X, y, groups = knob_data(n, seed)
    if constant:
        y = np.full(n, 0.25)
    forest = QuantileForest(seed=seed)
    forest.min_leaf = min_leaf
    forest.fit(X, y, groups=groups if grouped else None)
    Xq, _, query_groups = knob_data(QUERIES, 1000 + seed)
    mean = forest.predict(Xq)
    lo, hi = forest.predict_interval(
        Xq, groups=query_groups if grouped else None
    )
    return {
        "model_hash": forest.model_hash,
        "margin": _hexes(forest.conformal_margin),
        "group_margins": {
            group: _hexes(pair)
            for group, pair in sorted(forest.group_margins.items())
        },
        "predict": _hexes(mean),
        "lo": _hexes(lo),
        "hi": _hexes(hi),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forest_matches_fixture(recorded, name):
    got = _fitted(name)
    want = recorded[name]
    assert got.keys() == want.keys()
    for field in want:
        assert got[field] == want[field], field


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: _fitted(name) for name in sorted(CASES)},
        indent=1, sort_keys=True,
    ) + "\n")
