"""Dependency-light bagged-trees AIPC regressor (numpy only).

A deliberately small quantile-forest: ``DEFAULT_TREES`` regression trees,
each fit on a bootstrap resample with per-node feature subsampling,
split by exact SSE reduction (vectorized with prefix sums).  The
ensemble mean is the point prediction; out-of-bag *split-conformal*
margins around it form the uncertainty interval, with a
finite-sample coverage guarantee on exchangeable data.  (The
ensemble quantile spread is deliberately NOT stacked on top of the
margin -- the conformal residuals already price the model's error,
and double-counting was measured to cost ~15% extra simulated cells
in the active sweep for no coverage gain.)

Margins are *Mondrian* when :meth:`QuantileForest.fit` receives group
labels (the sweep groups by workload): each group gets the conformal
quantile of its own OOB residuals, falling back to the global margin
for groups with too few residuals.  Per-workload margins matter
because prediction difficulty is wildly workload-dependent -- one
hard workload otherwise inflates every interval in the sweep.

Everything is seeded and deterministic: one
``numpy.random.default_rng(seed)`` drives bootstrap and feature
subsampling, split ties break toward the lowest feature index and
threshold, and :attr:`QuantileForest.model_hash` digests the fitted
tree structure so ledger records can name the exact model that
predicted them.  No wall-clock, no global RNG -- the D-rules
(``repro lint --self``) hold.

The model is *unsound* by construction (it interpolates); callers
must clip predictions to the sound static AIPC bound
(:func:`repro.analysis.dataflow.bound_for_cell`) before acting on
them.  :mod:`repro.surrogate.search` does exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

#: Fitted-forest defaults: small enough to refit inside the sweep
#: loop every round, large enough that OOB coverage is meaningful.
DEFAULT_TREES = 64
DEFAULT_MAX_DEPTH = 8
DEFAULT_MIN_LEAF = 2
#: Per-node feature subsample as a fraction of the feature count.
#: Higher than the classic sqrt rule: the feature set is small and a
#: few knobs (L2 size, virtualization) carry most of the signal, so
#: starving trees of them costs more bias than the extra de-correlation
#: is worth.
DEFAULT_FEATURE_FRACTION = 0.5
#: Minimum OOB residuals a group needs for its own Mondrian margin.
MIN_GROUP_RESIDUALS = 6
#: Finite-sample inflation on every conformal margin.  Mondrian
#: groups calibrate on few residuals (a 6-workload sweep leaves
#: ~15-20 OOB residuals per group), where even the max residual only
#: guarantees ~1 - 1/(m+1) per-side coverage -- short of the 95%
#: each side needs for a 90% two-sided interval.  The inflation buys
#: back the shortfall: on the reference 23x6 study it lifts held-out
#: coverage from ~85-88% to >= 94% across seeds while still skipping
#: more than half the cells.
CONFORMAL_INFLATION = 1.25


@dataclass
class _Tree:
    """One regression tree in flat-array form.

    ``feature[i] < 0`` marks node ``i`` as a leaf with prediction
    ``value[i]``; internal nodes route ``x[feature] <= threshold`` to
    ``left`` else ``right``.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def structure(self) -> list:
        """Canonical JSON-able form for hashing."""
        return [self.feature, self.threshold, self.left, self.right,
                self.value]


def _counts(n: int, min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right row counts at every scored split position of an
    ``n``-row node, as ``(positions, 1)`` float64 columns."""
    left = np.arange(min_leaf, n - min_leaf + 1, dtype=np.float64)[:, None]
    return left, n - left


def _best_split(
    block: np.ndarray,
    y_node: np.ndarray,
    total: float,
    min_leaf: int,
    counts: tuple[np.ndarray, np.ndarray],
    columns: np.ndarray,
) -> Optional[tuple[int, float]]:
    """Exact SSE-minimizing split of one node, as ``(column,
    threshold)`` into its ``(rows, candidates)`` feature block, or
    ``None`` when no legal split improves.  ``total`` is
    ``add.reduce(y_node)``, ``counts`` is :func:`_counts` for the
    node's size and ``columns`` is ``arange(candidates)``.

    All candidates are scored in one block whose columns see exactly
    the 1-D arithmetic (DESIGN.md section 5k), so a node costs the same
    numpy calls for any feature count.  Ties break toward the lowest
    column, then the lowest threshold (the candidates arrive sorted by
    feature index): bit-deterministic under a seed.
    """
    n = block.shape[0]
    order = block.argsort(axis=0, kind="stable")
    xs = block[order, columns]
    # A split after sorted position i is legal when x differs across
    # it; only positions leaving >= min_leaf rows a side are scored.
    lo, hi = min_leaf - 1, n - min_leaf
    left_sum = y_node[order].cumsum(axis=0)[lo:hi]
    right_sum = total - left_sum
    left_n, right_n = counts
    gains = np.where(
        xs[lo:hi] < xs[lo + 1:hi + 1],
        left_sum * left_sum / left_n
        + right_sum * right_sum / right_n
        - total * total / n,
        -np.inf,
    )
    at = gains.argmax(axis=0)
    best_gain, best = 0.0, None
    # Strict > : equal-gain splits on a later feature never displace
    # an earlier one.
    for column, gain in enumerate(gains[at, columns].tolist()):
        if gain > best_gain + 1e-12:
            best_gain, best = gain, column
    if best is None:
        return None
    pos = lo + int(at[best])
    threshold = (xs[pos, best] + xs[pos + 1, best]) / 2.0
    return best, float(threshold)


def _fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    rng: np.random.Generator,
    max_depth: int,
    min_leaf: int,
    n_sub: int,
    counts: dict[int, tuple[np.ndarray, np.ndarray]],
) -> _Tree:
    """One tree on the bootstrap ``rows``.  ``counts`` caches
    :func:`_counts` by node size across the trees of one fit."""
    tree = _Tree([-1], [0.0], [-1], [-1], [0.0])
    feature, threshold = tree.feature, tree.threshold
    left, right, value = tree.left, tree.right, tree.value
    n_features = X.shape[1]
    size = min(n_sub, n_features)
    columns = np.arange(size)
    # Explicit stack; children are created depth-first left-first, so
    # node numbering (and the model hash) is reproducible.
    stack: list[tuple[int, np.ndarray, int]] = [(0, rows, 0)]
    while stack:
        node, node_rows, depth = stack.pop()
        y_node = y[node_rows]
        n = node_rows.shape[0]
        # ``mean()``'s own sum and divide, minus its Python wrapper;
        # the same total feeds the split search.
        total = np.add.reduce(y_node)
        value[node] = float(total / n)
        if depth >= max_depth or n < 2 * min_leaf:
            continue
        targets = y_node.tolist()
        if min(targets) == max(targets):
            continue
        chosen = rng.choice(n_features, size=size, replace=False)
        chosen.sort()
        block = X[node_rows[:, None], chosen]
        pair = counts.get(n)
        if pair is None:
            pair = counts[n] = _counts(n, min_leaf)
        split = _best_split(block, y_node, total, min_leaf, pair,
                            columns)
        if split is None:
            continue
        column, cut = split
        mask = block[:, column] <= cut
        child = len(feature)
        feature[node] = int(chosen[column])
        threshold[node] = cut
        left[node] = child
        right[node] = child + 1
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += (-1, -1)
        right += (-1, -1)
        value += (0.0, 0.0)
        # Push right first so left pops (and numbers) first.
        stack.append((child + 1, node_rows[~mask], depth + 1))
        stack.append((child, node_rows[mask], depth + 1))
    return tree


class _Walk(NamedTuple):
    """Every tree of a forest as one set of flat arrays, for walking
    all trees over all rows level by level.  Trees are concatenated
    with ``roots`` holding each tree's root index.  A leaf tests
    column 0 and points both ways to itself, so rows that reached
    their leaf stay put while deeper rows descend; ``children[i]`` is
    ``(right, left)``, indexed by the ``x <= threshold`` outcome."""

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray


def _flatten(trees: Sequence[_Tree]) -> _Walk:
    sizes = [len(tree.feature) for tree in trees]
    starts = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(starts, sizes)
    feature, threshold, left, right, value = (
        np.concatenate(column)
        for column in zip(*(tree.structure() for tree in trees))
    )
    leaf = feature < 0
    own = np.arange(feature.shape[0])
    return _Walk(
        roots=starts, feature=np.where(leaf, 0, feature),
        threshold=threshold,
        children=np.stack([np.where(leaf, own, right + offset),
                           np.where(leaf, own, left + offset)], axis=1),
        value=value,
    )


class QuantileForest:
    """Bagged regression trees with conformal uncertainty intervals.

    >>> forest = QuantileForest(seed=7).fit(X, y)
    >>> mean = forest.predict(X_new)
    >>> lo, hi = forest.predict_interval(X_new)

    ``predict_interval`` returns the ensemble mean widened by the
    out-of-bag conformal margins; on held-out exchangeable data the
    interval covers the truth with probability >= ``coverage`` (up to
    the usual finite-sample slack).  ``lo`` is floored at 0 -- AIPC
    is non-negative.
    """

    def __init__(self, *, coverage: float = 0.9, seed: int = 0) -> None:
        if not 0.5 <= coverage < 1.0:
            raise ValueError(f"coverage must be in [0.5, 1): {coverage}")
        self.n_trees = DEFAULT_TREES
        self.max_depth = DEFAULT_MAX_DEPTH
        self.min_leaf = DEFAULT_MIN_LEAF
        self.feature_fraction = DEFAULT_FEATURE_FRACTION
        self.coverage = float(coverage)
        self.seed = int(seed)
        self._trees: list[_Tree] = []
        self._walk: Optional[_Walk] = None
        self._margin_lo = 0.0
        self._margin_hi = 0.0
        #: group -> (lo margin, hi margin)
        self._group_margins: dict[str, tuple[float, float]] = {}
        self._hash: Optional[str] = None
        self.train_rows = 0

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return bool(self._trees)

    @property
    def model_hash(self) -> str:
        """16-hex digest of the fitted structure (trees + margin +
        hyperparameters); ``"unfitted"`` before :meth:`fit`."""
        if not self.fitted:
            return "unfitted"
        if self._hash is None:
            payload = json.dumps(
                {
                    "params": [
                        self.n_trees, self.max_depth, self.min_leaf,
                        self.feature_fraction, self.coverage,
                        self.seed,
                    ],
                    "margin": [
                        float(self._margin_lo), float(self._margin_hi)
                    ],
                    "group_margins": {
                        k: [float(lo), float(hi)]
                        for k, (lo, hi)
                        in sorted(self._group_margins.items())
                    },
                    "trees": [t.structure() for t in self._trees],
                },
                sort_keys=True, separators=(",", ":"),
            ).encode()
            self._hash = hashlib.sha256(payload).hexdigest()[:16]
        return self._hash

    # ------------------------------------------------------------------
    def _conformal_quantile(self, scores: list[float]) -> float:
        """Finite-sample one-sided conformal quantile over signed
        scores, at per-side level ``1 - (1-coverage)/2`` (two
        one-sided margins compose into a two-sided ``coverage``
        interval).  Index ``ceil((m+1)*level)-1``, clamped; the ``+1``
        buys the finite-sample guarantee.  Floored at 0: a negative
        signed quantile must not pull the interval edge past the
        point prediction itself.  Scaled by
        :data:`CONFORMAL_INFLATION` to cover the small-``m`` shortfall
        (see its docstring)."""
        scores = sorted(scores)
        m = len(scores)
        level = 1.0 - (1.0 - self.coverage) / 2.0
        idx = min(m - 1, int(np.ceil((m + 1) * level)) - 1)
        return max(0.0, scores[idx]) * CONFORMAL_INFLATION

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        groups: Optional[Sequence[str]] = None,
    ) -> "QuantileForest":
        """Fit trees and conformal margins.

        ``groups`` (optional, one hashable label per row -- the sweep
        passes workload names) switches the margin to Mondrian: each
        group with >= :data:`MIN_GROUP_RESIDUALS` OOB residuals
        calibrates separately; others use the global margin.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(
                f"bad training shapes: X{X.shape} y{y.shape}"
            )
        n = X.shape[0]
        if n < 2:
            raise ValueError(f"need >= 2 training rows, got {n}")
        if groups is not None and len(groups) != n:
            raise ValueError(
                f"groups length {len(groups)} != rows {n}"
            )
        rng = np.random.default_rng(self.seed)
        n_sub = max(
            2, int(np.ceil(X.shape[1] * self.feature_fraction))
        )
        self._trees = []
        self._hash = None
        self.train_rows = n
        in_bag = np.zeros((self.n_trees, n), dtype=bool)
        counts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for t in range(self.n_trees):
            rows = rng.integers(0, n, size=n)
            in_bag[t, rows] = True
            self._trees.append(_fit_tree(
                X, y, rows, rng, self.max_depth, self.min_leaf, n_sub,
                counts,
            ))
        self._walk = _flatten(self._trees)
        # Split-conformal margins over out-of-bag *signed* residuals:
        # for each row, the mean prediction of trees that never saw
        # it.  Upper and lower margins calibrate separately -- an
        # asymmetric error distribution (e.g. a workload whose
        # failures undershoot wildly but whose successes are
        # predictable) then only widens the side that actually errs.
        preds = self._tree_preds(X)
        oob_mask = ~in_bag
        votes = oob_mask.sum(axis=0)
        signed: list[float] = []  # y - oob_pred: >0 means underpredict
        by_group: dict[str, list[float]] = {}
        for i in range(n):
            if votes[i] == 0:
                continue
            oob_pred = preds[oob_mask[:, i], i].mean()
            residual = float(y[i] - oob_pred)
            signed.append(residual)
            if groups is not None:
                by_group.setdefault(str(groups[i]), []).append(residual)
        if signed:
            self._margin_hi = self._conformal_quantile(signed)
            self._margin_lo = self._conformal_quantile(
                [-r for r in signed]
            )
        else:  # degenerate: every tree saw every row
            self._margin_hi = float(np.abs(y - y.mean()).max())
            self._margin_lo = self._margin_hi
        self._group_margins = {
            name: (
                self._conformal_quantile([-r for r in residuals]),
                self._conformal_quantile(residuals),
            )
            for name, residuals in sorted(by_group.items())
            if len(residuals) >= MIN_GROUP_RESIDUALS
        }
        return self

    # ------------------------------------------------------------------
    def _tree_preds(self, X: np.ndarray) -> np.ndarray:
        """``(trees, rows)`` leaf values, C-contiguous: every tree over
        every row at once, one level per step for ``max_depth`` steps
        (no tree is deeper, and a row at its leaf stays there)."""
        if not self.fitted:
            raise RuntimeError("prediction before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        walk = self._walk
        rows = np.arange(X.shape[0])
        nodes = np.repeat(walk.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.max_depth):
            goes_left = (X[rows, walk.feature[nodes]]
                         <= walk.threshold[nodes])
            nodes = walk.children[nodes, goes_left.view(np.uint8)]
        return walk.value[nodes]

    def predict(self, X: np.ndarray, *, per_row: bool = False
                ) -> np.ndarray:
        """The forest mean per row.  ``per_row`` sums each row's leaves
        exactly as a one-row query does (a C-contiguous ``(rows,
        trees)`` array reduced along axis 1); the default reduces the
        ``(trees, rows)`` block tree by tree, which for several rows
        differs from the one-row answer in the last bit."""
        leaves = self._tree_preds(X)
        if per_row:
            return np.ascontiguousarray(leaves.T).mean(axis=1)
        return leaves.mean(axis=0)

    def predict_interval(
        self,
        X: np.ndarray,
        groups: Optional[Sequence[str]] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lo, hi)`` of :meth:`predict_with_interval`."""
        return self.predict_with_interval(X, groups)[1:]

    def predict_with_interval(
        self,
        X: np.ndarray,
        groups: Optional[Sequence[str]] = None,
        *,
        per_row: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(mean, lo, hi)`` arrays from one walk of the trees, the
        interval at the configured coverage.

        ``groups`` selects per-row Mondrian margins fitted for those
        labels; rows whose label has no fitted margin (or when
        ``groups`` is omitted) use the global margin.  ``per_row`` as
        in :meth:`predict`.
        """
        mean = self.predict(X, per_row=per_row)
        default = (self._margin_lo, self._margin_hi)
        if groups is None:
            pairs = [default] * mean.shape[0]
        else:
            pairs = [
                self._group_margins.get(str(name), default)
                for name in groups
            ]
            if len(pairs) != mean.shape[0]:
                raise ValueError(
                    f"groups length {len(pairs)} != rows "
                    f"{mean.shape[0]}"
                )
        lo_m = np.asarray([p[0] for p in pairs])
        hi_m = np.asarray([p[1] for p in pairs])
        return mean, np.maximum(mean - lo_m, 0.0), mean + hi_m

    @property
    def conformal_margin(self) -> tuple[float, float]:
        """Global ``(lo, hi)`` conformal margins."""
        return self._margin_lo, self._margin_hi

    @property
    def group_margins(self) -> dict[str, tuple[float, float]]:
        return dict(self._group_margins)
