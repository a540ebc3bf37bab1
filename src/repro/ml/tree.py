"""CART regression trees (ML18) -- also the base learner of the ensembles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import Regressor


@dataclass
class _Node:
    """One node of the regression tree."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor(Regressor):
    """Binary regression tree grown by greedy variance reduction.

    Supports depth / sample-count stopping rules and per-split random feature
    subsampling (``max_features``), which the random forest uses for
    decorrelation.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[float] = None,
        random_state: int = 0,
    ):
        super().__init__()
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def _best_split(self, X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray):
        """Best (feature, threshold) by weighted-variance reduction, or None.

        Every split position of every candidate feature is scored in one
        NumPy pass: a stable sort of each candidate column, column-wise
        prefix sums (so each position costs O(1)), and a (splits x features)
        score matrix in which positions between equal x values score
        ``+inf``.  The winner is the first minimum in feature-major order --
        features in ``feature_indices`` order, positions left to right --
        and it must beat the parent's score by more than ``1e-12``.
        """
        n_samples = X.shape[0]
        # Split position s puts sorted rows [0, s) left and [s, n) right.
        first = max(self.min_samples_leaf, 1)
        last = min(n_samples - self.min_samples_leaf, n_samples - 1)
        if first > last:
            return None
        parent_score = float(np.sum((y - y.mean()) ** 2))

        columns = X[:, feature_indices]
        order = columns.argsort(axis=0, kind="mergesort")
        x_sorted = columns[order, np.arange(columns.shape[1])]
        y_sorted = y[order]
        prefix = y_sorted.cumsum(axis=0)
        prefix_sq = (y_sorted ** 2).cumsum(axis=0)

        left_sum = prefix[first - 1:last]
        left_sq = prefix_sq[first - 1:last]
        right_sum = prefix[-1] - left_sum
        right_sq = prefix_sq[-1] - left_sq
        left_count = np.arange(first, last + 1, dtype=np.float64)[:, None]
        # float_power squares through pow(), as ``**`` on a float64 scalar
        # does; array ``**`` squares as x*x, which rounds differently on a
        # few values and would flip near-tied splits.
        scores = (left_sq - np.float_power(left_sum, 2) / left_count) + (
            right_sq - np.float_power(right_sum, 2) / (n_samples - left_count)
        )
        scores[x_sorted[first - 1:last] == x_sorted[first:last + 1]] = np.inf

        column, row = divmod(int(scores.T.argmin()), scores.shape[0])
        if not scores[row, column] < parent_score - 1e-12:
            return None
        split = first + row
        threshold = 0.5 * (x_sorted[split - 1, column] + x_sorted[split, column])
        return int(feature_indices[column]), float(threshold)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        node = _Node(value=float(y.mean()))
        if (
            depth >= self.max_depth
            or X.shape[0] < self.min_samples_split
            or np.all(y == y[0])
        ):
            return node

        n_features = X.shape[1]
        if self.max_features is None:
            feature_indices = np.arange(n_features)
        else:
            count = max(1, int(round(self.max_features * n_features)))
            feature_indices = rng.choice(n_features, size=count, replace=False)

        split = self._best_split(X, y, feature_indices)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        self.tree_ = self._grow(X, y, depth=0, rng=rng)

    def _predict_one(self, x: np.ndarray) -> float:
        node = self.tree_
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def _predict(self, X: np.ndarray) -> np.ndarray:
        # Small batches walk the tree per row; larger ones partition the
        # whole index set through each node with vectorised comparisons --
        # identical splits and leaf values, so both paths are bit-identical,
        # but population-sized batches stop paying a Python traversal per
        # sample (the per-generation scoring hot path of the NSGA-II search).
        if X.shape[0] <= 4:
            return np.array([self._predict_one(row) for row in X])
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(self.tree_, np.arange(X.shape[0]))]
        while stack:
            node, indices = stack.pop()
            if indices.size == 0:
                continue
            if node.is_leaf:
                out[indices] = node.value
                continue
            mask = X[indices, node.feature] <= node.threshold
            stack.append((node.left, indices[mask]))
            stack.append((node.right, indices[~mask]))
        return out

    def depth(self) -> int:
        """Actual depth of the grown tree."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.tree_)
