"""Logistic regression trained by batch gradient descent."""

from dataclasses import dataclass

import numpy as np

from .._schema import ConfigError
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


LOSS_BLOCK = 64  # steps whose z are kept and scored together


def _sigmoid(z):
    # clamped below only: above 500, 1 + exp(-z) already rounds to 1.0
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -500.0)))


class LogisticRegression:
    """Unregularized batch gradient descent on mean cross-entropy.

    loss_history_ holds the loss before training and after every step
    (iterations + 1 values), taken per LOSS_BLOCK steps from their kept z,
    with the same values.  A probability of exactly 0.5 classifies as 1.
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

    def fit(self, X, y):
        X, y = check_fit_input(X, y)
        y = y.astype(float)  # float labels keep the loop's arithmetic in one dtype
        n, d = X.shape
        steps = self.params.iterations
        w = np.zeros(d)
        b = 0.0
        history = np.empty(steps + 1)
        Z = np.empty((min(LOSS_BLOCK, steps + 1), n))
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is refused below
            for step in range(steps + 1):
                k = step % LOSS_BLOCK
                Z[k] = z = X @ w + b
                if k == LOSS_BLOCK - 1 or step == steps:
                    block = Z[: k + 1]  # mean cross-entropy; logaddexp is stable at large |z|
                    losses = np.logaddexp(0.0, block)
                    losses -= np.multiply(block, y, out=block)  # these z are not read again
                    history[step - k : step + 1] = losses.mean(axis=1)
                if step < steps:
                    residual = _sigmoid(z) - y
                    w -= self.params.learning_rate * (X.T @ residual) / n
                    b -= self.params.learning_rate * float(residual.sum() / n)
        if not np.isfinite([*w, b]).all():
            raise ConfigError(f"lr_learning_rate: gradient descent at {self.params.learning_rate} "
                              "diverges to non-finite weights")
        self.weights_ = w
        self.bias_ = b
        self.loss_history_ = history
        return self

    @property
    def n_features_(self):
        return len(self.weights_)

    def decision_function(self, X):
        X = check_predict_input(X, self.n_features_)
        return X @ self.weights_ + self.bias_

    def predict(self, X):
        return (_sigmoid(self.decision_function(X)) >= 0.5).astype(int)
