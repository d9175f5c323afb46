"""Random forest of Gini trees with impurity-based feature importance."""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .._seeds import generator
from ._input import check_fit_input, check_predict_input
from .tree import DecisionTree, DTParams, Node, class1_votes


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 100
    max_features: int | str = "sqrt"  # "sqrt" resolves to floor(sqrt(n_features))
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"rf_n_trees must be >= 1, got {self.n_trees}")
        if self.max_features != "sqrt" and not (
            type(self.max_features) is int and self.max_features >= 1  # not a bool
        ):
            raise ValueError(f"rf_max_features must be sqrt or >= 1, got {self.max_features!r}")


class RandomForest:
    """Bagged Gini trees; majority vote with even-vote ties going to class 0.

    max_features="sqrt" (the default) samples floor(sqrt(n_features))
    candidate features per split.  The trees grow under tree_params, whose
    max_features the forest's own setting replaces.  Each tree draws its
    bootstrap sample and feature subsets from a stream keyed by (seed, tree
    index), so training could run per-tree in parallel without changing the
    result.  A fitted forest is its list of tree roots, `roots_`.
    """

    def __init__(self, params=RFParams(), tree_params=DTParams(), seed=0):
        self.params = params
        self.tree_params = tree_params
        self.seed = seed
        self.roots_ = None
        self.n_features_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.rf, cfg.dt, cfg.seed)

    def to_params(self) -> dict:
        return {
            "n_features": self.n_features_,
            "seed": self.seed,
            "trees": [root.to_dict() for root in self.roots_],
        }

    @classmethod
    def from_params(cls, params):
        model = cls(RFParams(n_trees=len(params["trees"])), seed=params["seed"])
        model.n_features_ = operator.index(params["n_features"])
        model.roots_ = [Node.from_dict(tree, model.n_features_) for tree in params["trees"]]
        return model

    def fit(self, X, y):
        X, y = check_fit_input(X, y)  # all rows, not only those a bootstrap draws
        n = len(y)
        self.n_features_ = X.shape[1]
        max_features = self.params.max_features
        if max_features == "sqrt":
            max_features = max(1, math.floor(math.sqrt(self.n_features_)))
        tree_params = replace(self.tree_params, max_features=max_features)
        self.roots_ = []
        for t in range(self.params.n_trees):
            rng = generator(self.seed, "rf-tree", t)
            idx = rng.integers(0, n, size=n) if self.params.bootstrap else np.arange(n)
            self.roots_.append(DecisionTree(tree_params).fit(X[idx], y[idx], rng=rng).root_)
        return self

    def predict(self, X):
        votes = class1_votes(self.roots_, check_predict_input(X, self.n_features_))
        # strict majority for class 1; an exact tie falls back to class 0
        return (2 * votes > len(self.roots_)).astype(int)


def mdi_importance(model: RandomForest) -> np.ndarray:
    """Mean-decrease-of-impurity feature importance of a trained forest.

    Per tree, each split contributes its sample-weighted impurity decrease to
    the split feature; per-tree totals are normalized, averaged over trees,
    and the result normalized to sum to 1.
    """
    if not isinstance(model, RandomForest):
        raise ValueError("mdi_importance requires a RandomForest model")
    if not model.roots_:
        raise ValueError("model is not trained")
    acc = np.zeros(model.n_features_)
    for root in model.roots_:
        totals = np.zeros(model.n_features_)
        for node, _ in root.walk():  # pre-order keeps the summation order fixed
            if not node.is_leaf:
                totals[node.feature] += (node.n_samples / root.n_samples) * node.impurity_decrease
        tree_sum = totals.sum()
        if tree_sum > 0:
            acc += totals / tree_sum
    grand = acc.sum()
    if grand == 0:
        raise ValueError("forest contains no splits; importance undefined")
    return acc / grand
