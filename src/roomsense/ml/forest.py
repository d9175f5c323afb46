"""Random forest of Gini trees with impurity-based feature importance."""

import math
from dataclasses import dataclass

import numpy as np

from .._seeds import generator
from ._input import check_fit_input
from .tree import DecisionTree


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 100
    max_features: int | str = "sqrt"  # "sqrt" resolves to floor(sqrt(n_features))
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"rf_n_trees must be >= 1, got {self.n_trees}")
        if self.max_features != "sqrt" and not (
            isinstance(self.max_features, int) and self.max_features >= 1
        ):
            raise ValueError(f"rf_max_features must be sqrt or >= 1, got {self.max_features!r}")


class RandomForest:
    """Bagged Gini trees; majority vote with even-vote ties going to class 0.

    max_features="sqrt" (the default) samples floor(sqrt(n_features))
    candidate features per split.  Each tree draws its bootstrap sample and
    feature subsets from a stream keyed by (seed, tree index), so training
    could run per-tree in parallel without changing the result.
    """

    def __init__(
        self,
        n_trees=100,
        max_features="sqrt",
        bootstrap=True,
        min_samples_split=2,
        max_depth=None,
        seed=0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.seed = seed
        self.trees_ = None
        self.n_features_ = None

    @classmethod
    def from_config(cls, cfg):
        """Forest settings from cfg.rf; the per-tree growth limits from cfg.dt."""
        return cls(
            n_trees=cfg.rf.n_trees,
            max_features=cfg.rf.max_features,
            bootstrap=cfg.rf.bootstrap,
            min_samples_split=cfg.dt.min_samples_split,
            max_depth=cfg.dt.max_depth,
            seed=cfg.seed,
        )

    def to_params(self) -> dict:
        return {
            "n_features": self.n_features_,
            "seed": self.seed,
            "trees": [tree.root_.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_params(cls, params):
        model = cls(n_trees=len(params["trees"]), seed=params["seed"])
        model.n_features_ = params["n_features"]
        model.trees_ = [
            DecisionTree.from_params({"n_features": model.n_features_, "tree": tree})
            for tree in params["trees"]
        ]
        return model

    def _resolved_max_features(self, n_features):
        if self.max_features == "sqrt":
            return max(1, math.floor(math.sqrt(n_features)))
        if self.max_features is None:
            return n_features
        return int(self.max_features)

    def fit(self, X, y):
        X, y = check_fit_input(X, y)  # all rows, not only those a bootstrap draws
        n = len(y)
        self.n_features_ = X.shape[1]
        max_features = self._resolved_max_features(self.n_features_)
        self.trees_ = []
        for t in range(self.n_trees):
            rng = generator(self.seed, "rf-tree", t)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTree(
                min_samples_split=self.min_samples_split,
                max_depth=self.max_depth,
                max_features=max_features,
            )
            tree.fit(X[idx], y[idx], rng=rng)
            self.trees_.append(tree)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        votes = np.zeros(len(X), dtype=int)
        for tree in self.trees_:
            votes += tree.predict(X)
        # strict majority for class 1; an exact tie falls back to class 0
        return (2 * votes > self.n_trees).astype(int)


def mdi_importance(model: RandomForest) -> np.ndarray:
    """Mean-decrease-of-impurity feature importance of a trained forest.

    Per tree, each split contributes its sample-weighted impurity decrease to
    the split feature; per-tree totals are normalized, averaged over trees,
    and the result normalized to sum to 1.
    """
    if not isinstance(model, RandomForest):
        raise ValueError("mdi_importance requires a RandomForest model")
    if not model.trees_:
        raise ValueError("model is not trained")
    acc = np.zeros(model.n_features_)
    for tree in model.trees_:
        totals = tree.decrease_by_feature()
        tree_sum = totals.sum()
        if tree_sum > 0:
            acc += totals / tree_sum
    grand = acc.sum()
    if grand == 0:
        raise ValueError("forest contains no splits; importance undefined")
    return acc / grand
