"""k-nearest-neighbors classifier over Euclidean distance."""

import operator
from dataclasses import dataclass

import numpy as np

from ._input import check_fit_input, check_predict_input, check_trainable

# Rows scored per distance block: bounds predict's temporaries at
# PREDICT_BLOCK x training rows x features doubles, whatever the batch size.
PREDICT_BLOCK = 256


@dataclass(frozen=True)
class KNNParams:
    k: int = 5

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"knn_k must be odd and >= 1, got {self.k}")


class KNearestNeighbors:
    """Majority vote among the k nearest training rows.

    k must be odd so a binary vote cannot tie.  Equal distances at the k-th
    neighbor break toward the lower training-row index (stable sort).
    """

    def __init__(self, params=KNNParams()):
        self.params = params
        self.X_ = None
        self.y_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.knn)

    def to_params(self) -> dict:
        return {"k": self.params.k, "X": self.X_.tolist(), "y": self.y_.tolist()}

    @classmethod
    def from_params(cls, params):
        """Refit on the saved rows, which runs every check the stored state needs."""
        return cls(KNNParams(operator.index(params["k"]))).fit(params["X"], params["y"])

    def fit(self, X, y):
        X, y = check_fit_input(X, y)
        check_trainable(y, "knn", self.params.k)
        self.X_ = X.copy()
        self.y_ = y.copy()
        return self

    @property
    def n_features_(self):
        return self.X_.shape[1]

    def predict(self, X):
        X = check_predict_input(X, self.n_features_)
        k = self.params.k
        out = np.empty(len(X), dtype=int)
        for start in range(0, len(X), PREDICT_BLOCK):
            block = slice(start, start + PREDICT_BLOCK)
            diff = X[block, None, :] - self.X_[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
            out[block] = 2 * self.y_[nearest].sum(axis=1) > k  # k is odd: no ties
        return out
