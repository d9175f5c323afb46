"""k-nearest-neighbors classifier over Euclidean distance."""

from dataclasses import asdict, dataclass

import numpy as np

from ._input import check_fit_input


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

    def __init__(self, k=5):
        KNNParams(k)  # range checks
        self.k = k
        self.X_ = None
        self.y_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(**asdict(cfg.knn))

    def to_params(self) -> dict:
        return {"k": self.k, "X": self.X_.tolist(), "y": self.y_.tolist()}

    @classmethod
    def from_params(cls, params):
        model = cls(params["k"])
        model.X_ = np.array(params["X"], dtype=float)
        model.y_ = np.array(params["y"], dtype=int)
        return model

    def fit(self, X, y):
        X, y = check_fit_input(X, y)
        if self.k > len(y):
            raise ValueError(f"k={self.k} exceeds the {len(y)} training samples")
        self.X_ = X.copy()
        self.y_ = y.copy()
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.X_.shape[1]:
            raise ValueError(f"expected {self.X_.shape[1]} features, got {X.shape[1]}")
        diff = X[:, None, :] - self.X_[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        nearest = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
        out = np.empty(len(X), dtype=int)
        for i, idx in enumerate(nearest):
            out[i] = int(np.argmax(np.bincount(self.y_[idx], minlength=2)))
        return out
