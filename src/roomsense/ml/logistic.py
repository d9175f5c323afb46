"""Logistic regression trained by batch gradient descent."""

from dataclasses import asdict, dataclass

import numpy as np

from ._input import check_fit_input


@dataclass(frozen=True)
class LRParams:
    learning_rate: float = 0.1
    iterations: int = 1000

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"lr_learning_rate must be > 0, got {self.learning_rate}")
        if self.iterations < 1:
            raise ValueError(f"lr_iterations must be >= 1, got {self.iterations}")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class LogisticRegression:
    """Unregularized batch gradient descent on mean cross-entropy.

    loss_history_ holds the loss before training and after every step
    (iterations + 1 values).  A probability of exactly 0.5 classifies as 1.
    """

    def __init__(self, learning_rate=0.1, iterations=1000):
        LRParams(learning_rate, iterations)  # range checks
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.weights_ = None
        self.bias_ = None
        self.loss_history_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(**asdict(cfg.lr))

    def to_params(self) -> dict:
        return {"weights": [float(w) for w in self.weights_], "bias": self.bias_}

    @classmethod
    def from_params(cls, params):
        model = cls()
        model.weights_ = np.array(params["weights"], dtype=float)
        model.bias_ = float(params["bias"])
        return model

    @staticmethod
    def _loss(z, y):
        # mean cross-entropy via logaddexp, stable for large |z|
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def fit(self, X, y):
        X, y = check_fit_input(X, y)
        y = y.astype(float)  # float labels keep the loop's arithmetic in one dtype
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        history = []
        for _ in range(self.iterations):
            z = X @ w + b
            history.append(self._loss(z, y))
            residual = _sigmoid(z) - y
            w -= self.learning_rate * (X.T @ residual) / n
            b -= self.learning_rate * float(np.mean(residual))
        history.append(self._loss(X @ w + b, y))
        self.weights_ = w
        self.bias_ = b
        self.loss_history_ = np.array(history)
        return self

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[1] != len(self.weights_):
            raise ValueError(f"expected {len(self.weights_)} features, got {X.shape[1]}")
        return X @ self.weights_ + self.bias_

    def predict(self, X):
        return (_sigmoid(self.decision_function(X)) >= 0.5).astype(int)
