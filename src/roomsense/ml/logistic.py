"""Logistic regression trained by batch gradient descent."""

from dataclasses import dataclass

import numpy as np

from ._input import check_finite, check_fit_input, check_predict_input


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

    def __init__(self, params=LRParams()):
        self.params = params
        self.weights_ = None
        self.bias_ = None
        self.loss_history_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.lr)

    def to_params(self) -> dict:
        return {"weights": [float(w) for w in self.weights_], "bias": self.bias_}

    @classmethod
    def from_params(cls, params):
        model = cls()
        model.weights_ = check_finite("weights", params["weights"], ndim=1)
        model.bias_ = float(check_finite("bias", params["bias"], ndim=0))
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
        for _ in range(self.params.iterations):
            z = X @ w + b
            history.append(self._loss(z, y))
            residual = _sigmoid(z) - y
            w -= self.params.learning_rate * (X.T @ residual) / n
            b -= self.params.learning_rate * float(np.mean(residual))
        history.append(self._loss(X @ w + b, y))
        self.weights_ = w
        self.bias_ = b
        self.loss_history_ = np.array(history)
        return self

    @property
    def n_features_(self):
        return len(self.weights_)

    def decision_function(self, X):
        X = check_predict_input(X, self.n_features_)
        return X @ self.weights_ + self.bias_

    def predict(self, X):
        return (_sigmoid(self.decision_function(X)) >= 0.5).astype(int)
