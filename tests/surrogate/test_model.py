"""QuantileForest: determinism, hashing, conformal coverage, and
input validation -- all on synthetic data, no simulation."""

import numpy as np
import pytest

from repro.surrogate.model import (
    MIN_GROUP_RESIDUALS,
    QuantileForest,
    _best_split,
    _counts,
)


def synthetic(n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 6))
    y = (0.5 * X[:, 0] + 0.3 * X[:, 1] * X[:, 2]
         + noise * rng.standard_normal(n))
    return X, np.maximum(y, 0.0)


def test_same_seed_is_bit_identical():
    X, y = synthetic(80, seed=1)
    a = QuantileForest(seed=7).fit(X, y)
    b = QuantileForest(seed=7).fit(X, y)
    assert a.model_hash == b.model_hash
    Xq, _ = synthetic(20, seed=2)
    assert np.array_equal(a.predict(Xq), b.predict(Xq))
    lo_a, hi_a = a.predict_interval(Xq)
    lo_b, hi_b = b.predict_interval(Xq)
    assert np.array_equal(lo_a, lo_b)
    assert np.array_equal(hi_a, hi_b)


def test_different_seed_changes_hash():
    X, y = synthetic(80, seed=1)
    a = QuantileForest(seed=0).fit(X, y)
    b = QuantileForest(seed=1).fit(X, y)
    assert a.model_hash != b.model_hash


def test_model_hash_states():
    forest = QuantileForest()
    assert forest.model_hash == "unfitted"
    assert not forest.fitted
    X, y = synthetic(40, seed=3)
    forest.fit(X, y)
    assert forest.fitted
    first = forest.model_hash
    assert len(first) == 16
    assert forest.model_hash == first  # memoized, stable
    # Refit invalidates the memo and (different data) the digest.
    forest.fit(*synthetic(40, seed=4))
    assert forest.model_hash != first


def test_held_out_interval_coverage():
    X, y = synthetic(160, seed=5)
    forest = QuantileForest(seed=0, coverage=0.9).fit(X, y)
    Xq, yq = synthetic(200, seed=6)
    lo, hi = forest.predict_interval(Xq)
    assert np.all(lo >= 0.0)  # AIPC floor
    assert np.all(hi >= lo)
    covered = np.mean((yq >= lo) & (yq <= hi))
    # 0.9 nominal; leave slack for finite-sample noise.
    assert covered >= 0.85
    # Intervals are informative, not vacuous.
    assert np.mean(hi - lo) < float(y.max())


def test_mondrian_groups_calibrate_separately():
    X, y = synthetic(120, seed=8)
    # One noisy group, one clean group.
    groups = ["noisy" if i % 2 else "clean" for i in range(len(y))]
    y = y.copy()
    noise_rows = [i for i, g in enumerate(groups) if g == "noisy"]
    rng = np.random.default_rng(9)
    y[noise_rows] += 0.5 * rng.standard_normal(len(noise_rows))
    y = np.maximum(y, 0.0)
    forest = QuantileForest(seed=0).fit(X, y, groups=groups)
    Xq = X[:10]
    lo_noisy, hi_noisy = forest.predict_interval(
        Xq, groups=["noisy"] * 10)
    lo_clean, hi_clean = forest.predict_interval(
        Xq, groups=["clean"] * 10)
    assert np.mean(hi_noisy - lo_noisy) > np.mean(hi_clean - lo_clean)
    # Unknown labels fall back to the global margin.
    lo_glob, hi_glob = forest.predict_interval(Xq)
    lo_unk, hi_unk = forest.predict_interval(Xq, groups=["???"] * 10)
    assert np.array_equal(lo_unk, lo_glob)
    assert np.array_equal(hi_unk, hi_glob)


def test_tiny_groups_use_global_margin():
    X, y = synthetic(60, seed=10)
    # One row of a rare group: below MIN_GROUP_RESIDUALS, so it must
    # not earn its own (degenerate) margin.
    groups = ["common"] * (len(y) - 1) + ["rare"]
    assert MIN_GROUP_RESIDUALS > 1
    forest = QuantileForest(seed=0).fit(X, y, groups=groups)
    lo_rare, hi_rare = forest.predict_interval(
        X[:5], groups=["rare"] * 5)
    lo_glob, hi_glob = forest.predict_interval(X[:5])
    assert np.array_equal(lo_rare, lo_glob)
    assert np.array_equal(hi_rare, hi_glob)


def test_input_validation():
    X, y = synthetic(20, seed=11)
    with pytest.raises(ValueError, match="coverage"):
        QuantileForest(coverage=1.0)
    with pytest.raises(ValueError, match="coverage"):
        QuantileForest(coverage=0.2)
    with pytest.raises(ValueError, match="shapes"):
        QuantileForest().fit(X[:, 0], y)
    with pytest.raises(ValueError, match="shapes"):
        QuantileForest().fit(X, y[:-1])
    with pytest.raises(ValueError, match="rows"):
        QuantileForest().fit(X[:1], y[:1])
    with pytest.raises(ValueError, match="groups"):
        QuantileForest().fit(X, y, groups=["a"])
    forest = QuantileForest()
    with pytest.raises(RuntimeError):
        forest.predict(X)
    with pytest.raises(RuntimeError):
        forest.predict_interval(X)


# ----------------------------------------------------------------------
# The batched split search and the all-trees walk against their
# one-at-a-time forms
# ----------------------------------------------------------------------
def reference_best_split(X, y, rows, features, min_leaf):
    """The split search one feature at a time, as it was before
    ``_best_split`` searched all candidates in one block.  Kept here
    as the reference; ``src/`` has only the batched form."""
    best_gain = 0.0
    best = None
    n = rows.shape[0]
    y_node = y[rows]
    total = y_node.sum()
    base = total * total / n
    for feat in features:
        order = np.argsort(X[rows, feat], kind="stable")
        xs = X[rows[order], feat]
        prefix = np.cumsum(y_node[order])
        counts = np.arange(1, n, dtype=np.float64)
        left_sum = prefix[:-1]
        right_sum = total - left_sum
        gains = (
            left_sum * left_sum / counts
            + right_sum * right_sum / (n - counts)
            - base
        )
        legal = xs[:-1] < xs[1:]
        if min_leaf > 1:
            legal = legal.copy()
            legal[: min_leaf - 1] = False
            legal[n - min_leaf:] = False
        gains = np.where(legal, gains, -np.inf)
        if not gains.size:
            continue
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (int(feat), float((xs[pos] + xs[pos + 1]) / 2.0))
    return best


def block_best_split(X, y, rows, features, min_leaf):
    """``_best_split`` on the node's candidate block, with the fit's
    own guard and the winning column mapped back to its feature."""
    n = rows.shape[0]
    if n < 2 * min_leaf:
        return None
    y_node = y[rows]
    split = _best_split(
        X[rows[:, None], features], y_node, np.add.reduce(y_node),
        min_leaf, _counts(n, min_leaf), np.arange(features.shape[0]),
    )
    if split is None:
        return None
    column, threshold = split
    return int(features[column]), threshold


def random_node(seed):
    """One tree node's split problem, built to tie: few distinct x
    values, a duplicated column (equal gains on two features), a
    constant column, coarse targets, bootstrap rows with repeats."""
    rng = np.random.default_rng(seed)
    pool = int(rng.integers(2, 40))
    X = rng.integers(0, 4, size=(pool, 8)).astype(np.float64)
    X[:, 5] = X[:, 1]
    X[:, 3] = 2.0
    if seed % 3 == 0:
        X[:, 6] = rng.uniform(0.0, 1.0, size=pool)
    y = rng.uniform(0.0, 1.0, size=pool)
    if seed % 2:
        y = np.round(y, 1)
    # n == 1, n == 2 and n < 2 * min_leaf all come up.
    n = (1, 2, 3, 5)[seed % 4] if seed % 5 == 0 \
        else int(rng.integers(2, 60))
    rows = rng.integers(0, pool, size=n)
    features = np.sort(rng.choice(
        8, size=int(rng.integers(1, 9)), replace=False
    ))
    return X, y, rows, features, int(rng.integers(1, 5))


def test_best_split_matches_per_feature_reference():
    outcomes = {"split": 0, "none": 0, "too_small": 0, "tied": 0}
    for seed in range(200):
        X, y, rows, features, min_leaf = random_node(seed)
        want = reference_best_split(X, y, rows, features, min_leaf)
        got = block_best_split(X, y, rows, features, min_leaf)
        assert got == want, seed
        outcomes["none" if want is None else "split"] += 1
        outcomes["too_small"] += rows.shape[0] < 2 * min_leaf
        outcomes["tied"] += (want is not None and want[0] == 1
                             and 5 in features)
    # The cases the generator exists for all occurred.
    assert all(outcomes.values()), outcomes


def test_single_row_predict_equals_batch_predict():
    """Row by row, every tree reaches the leaf it reaches in one
    call, bit for bit.  The default forest mean over those leaves is
    only equal to rounding: numpy sums a ``(trees, 1)`` block pairwise
    and a ``(trees, rows)`` block tree by tree.  ``per_row=True`` sums
    each row as the one-row call does, which is what the sweep's
    batched predictions rely on (``tests/surrogate/test_search.py``
    holds them to ``predict_cell`` bit for bit)."""
    X, y = synthetic(80, seed=12)
    groups = ["a" if i % 3 else "b" for i in range(len(y))]
    forest = QuantileForest(seed=3).fit(X, y, groups=groups)
    Xq, _ = synthetic(25, seed=13)
    query_groups = ["a", "b", "?"] * 8 + ["a"]
    leaves = forest._tree_preds(Xq)
    mean = forest.predict(Xq)
    per_row = forest.predict(Xq, per_row=True)
    lo, hi = forest.predict_interval(Xq, groups=query_groups)
    for i, label in enumerate(query_groups):
        assert np.array_equal(
            forest._tree_preds(Xq[i])[:, 0], leaves[:, i]
        )
        assert forest.predict(Xq[i])[0].hex() == per_row[i].hex()
        lo_i, hi_i = forest.predict_interval(
            Xq[i:i + 1], groups=[label]
        )
        for one, batch in ((forest.predict(Xq[i]), mean),
                           (lo_i, lo), (hi_i, hi)):
            assert one.shape == (1,)
            assert np.allclose(one, batch[i], rtol=1e-14, atol=0.0)
