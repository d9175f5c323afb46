"""Binary classification tree grown on Gini impurity."""

from dataclasses import asdict, dataclass

import numpy as np

from .._seeds import generator


@dataclass(frozen=True)
class DTParams:
    min_samples_split: int = 2
    max_depth: int | None = None  # None grows until leaves are pure
    max_features: int | None = None  # None considers every feature

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError(f"dt_min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"dt_max_depth must be >= 0, got {self.max_depth}")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(f"dt_max_features must be >= 1, got {self.max_features}")


def gini(labels) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of a {0,1} label multiset."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("gini of an empty label set")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    p1 = float(np.mean(labels == 1))
    p0 = 1.0 - p1
    return 1.0 - p0 * p0 - p1 * p1


@dataclass
class Node:
    """Internal split node or class leaf (value is set on leaves only)."""

    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    value: int | None = None
    n_samples: int = 0
    impurity_decrease: float = 0.0

    @property
    def is_leaf(self):
        return self.value is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "n": self.n_samples}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "n": self.n_samples,
            "decrease": self.impurity_decrease,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d) -> "Node":
        if "value" in d:
            return cls(value=d["value"], n_samples=d["n"])
        return cls(
            feature=d["feature"],
            threshold=d["threshold"],
            n_samples=d["n"],
            impurity_decrease=d["decrease"],
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def _best_split(X, y, feature_indices, parent_impurity):
    """Best (feature, threshold, decrease) over candidate features, or None.

    Thresholds are midpoints between consecutive sorted unique values.  Ties
    resolve to the lowest feature index, then the lowest threshold; zero-gain
    splits are allowed so impure nodes keep splitting (XOR-style structure
    needs them).
    """
    n = len(y)
    best = None
    best_decrease = -np.inf
    for f in feature_indices:
        order = np.argsort(X[:, f], kind="stable")
        col = X[order, f]
        ones = np.cumsum(y[order])
        cut = np.nonzero(col[1:] > col[:-1])[0]  # split after these positions
        if cut.size == 0:
            continue
        n_left = cut + 1.0
        n_right = n - n_left
        p_left = ones[cut] / n_left
        p_right = (ones[-1] - ones[cut]) / n_right
        child_impurity = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        decrease = parent_impurity - child_impurity
        k = int(np.argmax(decrease))  # first maximum: lowest threshold wins ties
        if decrease[k] > best_decrease:
            best_decrease = float(decrease[k])
            threshold = (col[cut[k]] + col[cut[k] + 1]) / 2.0
            best = (int(f), float(threshold), best_decrease)
    return best


class DecisionTree:
    """CART-style tree: exact Gini splits, grown until leaves are pure.

    max_features, when set, samples that many candidate features per node
    from the supplied RNG (used by the random forest); by default every
    feature is considered.  Leaf class ties go to class 0.
    """

    def __init__(self, min_samples_split=2, max_depth=None, max_features=None, seed=0):
        DTParams(min_samples_split, max_depth, max_features)  # range checks
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed
        self.root_ = None
        self.n_features_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(**asdict(cfg.dt), seed=cfg.seed)

    def to_params(self) -> dict:
        return {"n_features": self.n_features_, "tree": self.root_.to_dict()}

    @classmethod
    def from_params(cls, params):
        tree = cls()
        tree.n_features_ = params["n_features"]
        tree.root_ = Node.from_dict(params["tree"])
        return tree

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if rng is None:
            rng = generator(self.seed, "dt")
        self.n_features_ = X.shape[1]
        self.root_ = self._grow(X, y, depth=0, rng=rng)
        return self

    def _leaf(self, y):
        counts = np.bincount(y, minlength=2)
        return Node(value=int(np.argmax(counts)), n_samples=len(y))

    def _candidate_features(self, rng):
        if self.max_features is None or self.max_features >= self.n_features_:
            return np.arange(self.n_features_)
        picked = rng.choice(self.n_features_, size=self.max_features, replace=False)
        return np.sort(picked)  # ascending keeps the lowest-index tie rule meaningful

    def _grow(self, X, y, depth, rng):
        n = len(y)
        impurity = gini(y)
        if (
            impurity == 0.0
            or n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return self._leaf(y)
        split = _best_split(X, y, self._candidate_features(rng), impurity)
        if split is None:
            return self._leaf(y)
        feature, threshold, decrease = split
        mask = X[:, feature] <= threshold
        node = Node(
            feature=feature,
            threshold=threshold,
            n_samples=n,
            impurity_decrease=decrease,
        )
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self):
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    def decrease_by_feature(self):
        """Sample-weighted impurity decrease accumulated per feature."""
        totals = np.zeros(self.n_features_)
        root_n = self.root_.n_samples

        def walk(node):
            if node.is_leaf:
                return
            totals[node.feature] += (node.n_samples / root_n) * node.impurity_decrease
            walk(node.left)
            walk(node.right)

        walk(self.root_)
        return totals
