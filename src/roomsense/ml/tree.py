"""Binary classification tree grown on Gini impurity."""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .._seeds import generator
from ._input import check_fit_input, check_labels, check_predict_input


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


def _impurity(ones, n):
    """Gini impurity of n labels of which `ones` are 1."""
    p1 = ones / n
    p0 = 1.0 - p1
    return 1.0 - p0 * p0 - p1 * p1


def gini(labels) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of a {0,1} label multiset."""
    labels = np.asarray(labels)
    check_labels(labels)
    return _impurity(int(np.count_nonzero(labels == 1)), labels.size)


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
    def from_dict(cls, d, n_features) -> "Node":
        """Inverse of to_dict; rejects what `predict` or `mdi_importance` would
        trip over: a sample count that is not an int >= 1, a leaf value other
        than 0 or 1, a split feature outside [0, n_features), a NaN threshold
        and a non-finite impurity decrease."""
        n = operator.index(d["n"])
        if n < 1:
            raise ValueError(f"node sample count must be >= 1, got {n}")
        if "value" in d:
            if d["value"] not in (0, 1):
                raise ValueError(f"leaf value must be 0 or 1, got {d['value']!r}")
            return cls(value=d["value"], n_samples=n)
        feature, threshold = operator.index(d["feature"]), float(d["threshold"])
        decrease = float(d["decrease"])
        if not 0 <= feature < n_features:
            raise ValueError(f"split feature {feature} outside [0, {n_features})")
        if math.isnan(threshold):
            raise ValueError("split threshold is NaN")
        if not math.isfinite(decrease):
            raise ValueError(f"impurity decrease must be finite, got {decrease}")
        return cls(
            feature=feature,
            threshold=threshold,
            n_samples=n,
            impurity_decrease=decrease,
            left=cls.from_dict(d["left"], n_features),
            right=cls.from_dict(d["right"], n_features),
        )

    def walk(self):
        """(node, depth) pairs of this subtree in pre-order: node, left subtree, right subtree."""
        pending = [(self, 0)]
        while pending:
            node, depth = pending.pop()
            yield node, depth
            if not node.is_leaf:
                pending.append((node.right, depth + 1))
                pending.append((node.left, depth + 1))


def class1_votes(roots, X):
    """Per row of X, how many of the trees under `roots` route it to a class-1 leaf."""
    columns = X.T.copy()  # contiguous per feature: cheaper row gathers below
    votes = np.zeros(len(X), dtype=int)
    for root in roots:
        pending = [(root, np.arange(len(X)))]  # (node, rows that reach it)
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                if node.value:
                    votes[rows] += 1
                continue
            left = columns[node.feature][rows] <= node.threshold
            rows_left = rows[left]
            if rows_left.size:
                pending.append((node.left, rows_left))
            if rows_left.size < rows.size:
                pending.append((node.right, rows[~left]))
    return votes


def _cut_sizes(n):
    """The sizes 1, 2, ..., n - 1 (row 0) and their doubles (row 1), as floats."""
    return np.arange(1.0, n) * np.array([[1.0], [2.0]])


def _best_split(X, y, feature_indices, parent_impurity, sizes):
    """Best (feature, threshold, decrease, n_left, ones_left) over candidate
    features of the feature-major X (features x rows), or None; the last two
    count the rows, and the class-1 rows among them, that go left.

    Thresholds are midpoints between consecutive sorted unique values.  Ties
    resolve to the lowest feature index, then the lowest threshold; zero-gain
    splits are allowed so impure nodes keep splitting (XOR-style structure
    needs them).  All candidate features are scored in one array pass: column
    c of the sorted values is the cut after the first c + 1 samples.  `sizes` is a
    `_cut_sizes` table for at least len(y) rows: its exact float integers give
    every product the rounding of `n_left * 2.0`.
    """
    n = len(y)
    n_left, twice_left = sizes[0, : n - 1], sizes[1, : n - 1]
    n_right, twice_right = sizes[0, n - 2 :: -1], sizes[1, n - 2 :: -1]
    values = X.take(feature_indices, axis=0)  # a row per candidate feature
    # equal values in any order: a valid cut keeps them on one side
    ones = y.take(values.argsort(axis=1)).cumsum(axis=1)
    values.sort(axis=1)
    invalid = values[:, 1:] <= values[:, :-1]  # a cut between equal values splits nothing
    p = ones[:, :-1] / n_left
    decrease = twice_left * p
    decrease *= np.subtract(1.0, p, out=p)
    np.divide(ones[:, -1:] - ones[:, :-1], n_right, out=p)
    right = twice_right * p
    right *= np.subtract(1.0, p, out=p)
    decrease += right
    decrease /= n  # the children's impurity, weighted
    np.subtract(parent_impurity, decrease, out=decrease)
    decrease[invalid] = -np.inf
    # first maximum in (feature, cut) order: lowest feature, then lowest threshold
    f, c = divmod(int(decrease.argmax()), n - 1)
    if invalid[f, c]:  # every cell is -inf: no cut separates two values
        return None
    threshold = (values[f, c] + values[f, c + 1]) / 2.0
    return int(feature_indices[f]), float(threshold), float(decrease[f, c]), c + 1, int(ones[f, c])


_DRAW_BLOCK = 32  # split nodes whose feature draws one `integers` call makes
_draw_highs = functools.cache(  # a block's bounds, per node: Floyd's k draws, k - 1 shuffles
    lambda n, k: np.tile(np.r_[n - k + 1 : n + 1, k:1:-1], (_DRAW_BLOCK, 1)))


def _candidate_features(n, k, rng):
    """Endless stream of the candidate features of each split node in turn.

    With k None or >= n every node gets all n features.  Otherwise node after
    node gets `np.sort(rng.choice(n, k, replace=False))` without a `choice`
    call: one `rng.integers(0, highs)` call makes the draws of 32 nodes, and
    array operations resolve their subsets together.  numpy makes these draws
    whenever it uses Floyd's algorithm (up to 10,000 features, or k <= n / 50),
    as in every fit roomsense makes: k draws with highs n - k + 1 ... n, where
    draw v for j = n - k ... n - 1 picks j if v is already picked and v
    otherwise, then k - 1 shuffle draws with highs k ... 2, unused as the pick
    is sorted.  A caller's `rng` ends a fit advanced by whole blocks; the
    forest discards each tree's `rng` after its fit, so no output moves.
    """
    if k is None or k >= n:
        yield from itertools.repeat(np.arange(n))
    highs = _draw_highs(n, k)
    while True:
        picked = rng.integers(0, highs)[:, :k]
        for i in range(1, k):  # column i is draw v for j = n - k + i, one row per node
            picked[(picked[:, :i] == picked[:, i, None]).any(axis=1), i] = n - k + i
        yield from np.sort(picked, axis=1)


class DecisionTree:
    """CART-style tree: exact Gini splits, grown until leaves are pure.

    max_features, when set, samples that many candidate features per node
    from the supplied RNG (used by the random forest); by default every
    feature is considered.  Leaf class ties go to class 0.  Labels are
    checked once per fit, not per node, and the tree grows on a feature-major
    copy of X and float labels, the layout the split search reads fastest.
    """

    def __init__(self, params=DTParams(), seed=0):
        self.params = params
        self.seed = seed
        self.root_ = None
        self.n_features_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.dt, cfg.seed)

    def to_params(self) -> dict:
        return {"n_features": self.n_features_, "tree": self.root_.to_dict()}

    @classmethod
    def from_params(cls, params):
        tree = cls()
        tree.n_features_ = operator.index(params["n_features"])
        tree.root_ = Node.from_dict(params["tree"], tree.n_features_)
        return tree

    def fit(self, X, y, rng=None):
        X, y = check_fit_input(X, y)
        if rng is None:
            rng = generator(self.seed, "dt")
        self.n_features_ = X.shape[1]
        draws = _candidate_features(self.n_features_, self.params.max_features, rng)
        # no node has more rows than the root: one cut-size table serves every split
        self.root_ = self._grow(X.T.copy(), y.astype(float), None, len(y),
                                int(np.count_nonzero(y)), 0, draws, _cut_sizes(len(y)))
        return self

    @staticmethod
    def _leaf(ones, n):
        return Node(value=int(2 * ones > n), n_samples=n)  # a tie goes to class 0

    def _grow(self, X, y, rows, n, ones, depth, draws, sizes):
        """Subtree over the n labels of y, and columns of the feature-major X,
        that the mask `rows` keeps (all of them when it is None), `ones` of them
        class 1.  A node that stops growing becomes a leaf before any copy."""
        impurity = _impurity(ones, n)
        max_depth = self.params.max_depth
        if impurity == 0.0 or n < self.params.min_samples_split or (
                max_depth is not None and depth >= max_depth):
            return self._leaf(ones, n)
        if rows is not None:
            X, y = X.compress(rows, axis=1), y.compress(rows)
        split = _best_split(X, y, next(draws), impurity, sizes)
        if split is None:
            return self._leaf(ones, n)
        feature, threshold, decrease, n_left, ones_left = split
        left = X[feature] <= threshold
        return Node(
            feature=feature, threshold=threshold, n_samples=n, impurity_decrease=decrease,
            left=self._grow(X, y, left, n_left, ones_left, depth + 1, draws, sizes),
            right=self._grow(X, y, ~left, n - n_left, ones - ones_left, depth + 1, draws, sizes),
        )

    def predict(self, X):
        return class1_votes([self.root_], check_predict_input(X, self.n_features_))

    def depth(self):
        return max(depth for _, depth in self.root_.walk())
