"""RBF-kernel support vector machine trained with simplified SMO."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .._seeds import generator
from ._input import check_finite, check_fit_input, check_predict_input

# Hard cap on SMO sweeps, a safety net behind max_passes.
MAX_SWEEPS = 1000


@dataclass(frozen=True)
class SVMParams:
    c: float = 1.0
    # None scales as 1 / (n_features * var(X)); a config file may spell it "scale"
    gamma: float | None = field(default=None, metadata={"none": "scale"})
    tol: float = 1e-3
    max_passes: int = 10

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"svm_c must be > 0, got {self.c}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"svm_gamma must be > 0, got {self.gamma}")
        if not self.tol >= 0:
            raise ValueError(f"svm_tol must be >= 0, got {self.tol}")
        if self.max_passes < 1:
            raise ValueError(f"svm_max_passes must be >= 1, got {self.max_passes}")


def rbf_kernel(A, B, gamma):
    """exp(-gamma * ||a - b||^2) for every row pair of A and B."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


class SupportVectorMachine:
    """Binary SVM with an RBF kernel, optimized pairwise (simplified SMO).

    Training stops after max_passes consecutive full sweeps without an alpha
    update, or at MAX_SWEEPS sweeps.  After fit, n_sweeps_ holds the sweeps
    run and converged_ whether the max_passes clean sweeps were reached;
    stopping at MAX_SWEEPS instead warns with a RuntimeWarning.  Neither is
    serialized.  gamma=None scales as 1 / (n_features * var(X)).  A decision
    value of exactly 0 classifies as class 0.
    """

    def __init__(self, params=SVMParams(), seed=0):
        self.params = params
        self.seed = seed
        self.X_ = None
        self.y_signed_ = None
        self.alphas_ = None
        self.bias_ = None
        self.gamma_ = None
        self.n_sweeps_ = None
        self.converged_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.svm, cfg.seed)

    def to_params(self) -> dict:
        """Only the support vectors are kept; they alone enter the decision function."""
        mask = self.support_mask_
        return {
            "gamma": self.gamma_,
            "bias": self.bias_,
            "n_features": self.X_.shape[1],
            "support_vectors": self.X_[mask].tolist(),
            "alphas": self.alphas_[mask].tolist(),
            "y_signed": self.y_signed_[mask].tolist(),
        }

    @classmethod
    def from_params(cls, params):
        """Inverse of to_params; rejects a gamma SVMParams would reject and
        arrays whose lengths or values the decision function cannot use."""
        gamma = float(check_finite("gamma", params["gamma"], ndim=0))
        model = cls(SVMParams(gamma=gamma))
        model.gamma_ = gamma
        model.bias_ = float(check_finite("bias", params["bias"], ndim=0))
        support_vectors = np.reshape(params["support_vectors"], (-1, int(params["n_features"])))
        model.X_ = check_finite("support_vectors", support_vectors, ndim=2)
        model.alphas_ = check_finite("alphas", params["alphas"], ndim=1)
        model.y_signed_ = check_finite("y_signed", params["y_signed"], ndim=1)
        if not len(model.X_) == len(model.alphas_) == len(model.y_signed_):
            raise ValueError("support_vectors, alphas and y_signed differ in length")
        if not np.isin(model.y_signed_, (-1.0, 1.0)).all():
            raise ValueError("y_signed must be -1 or 1")
        return model

    def fit(self, X, y):
        X, y = check_fit_input(X, y)
        n = len(y)
        y_signed = np.where(y == 1, 1.0, -1.0)

        gamma = self.params.gamma
        if gamma is None:
            spread = float(X.var())
            gamma = 1.0 / (X.shape[1] * spread) if spread > 0 else 1.0 / X.shape[1]

        K = rbf_kernel(X, X, gamma)
        alphas = np.zeros(n)
        ay = np.zeros(n)  # alphas * y_signed, kept in step with alphas
        b = 0.0
        rng = generator(self.seed, "svm")
        C, tol, max_passes = self.params.c, self.params.tol, self.params.max_passes

        # The strided K[:, i] views, made once.  A contiguous copy would be
        # faster but switches the dot product to a BLAS kernel whose sums
        # round differently.  Scalars are read from a list: same doubles.
        columns = list(K.T)
        ys = y_signed.tolist()

        def f(i):
            return float(ay @ columns[i] + b)

        passes = 0
        sweeps = 0
        while passes < max_passes and sweeps < MAX_SWEEPS:
            changed = 0
            for i in range(n):
                E_i = f(i) - ys[i]
                r_i = ys[i] * E_i
                if not ((r_i < -tol and alphas[i] < C) or (r_i > tol and alphas[i] > 0)):
                    continue
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                E_j = f(j) - ys[j]
                a_i_old, a_j_old = alphas[i], alphas[j]
                if ys[i] != ys[j]:
                    L = max(0.0, a_j_old - a_i_old)
                    H = min(C, C + a_j_old - a_i_old)
                else:
                    L = max(0.0, a_i_old + a_j_old - C)
                    H = min(C, a_i_old + a_j_old)
                if L == H:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                a_j = a_j_old - ys[j] * (E_i - E_j) / eta
                a_j = min(H, max(L, a_j))
                if abs(a_j - a_j_old) < 1e-5:
                    continue
                a_i = a_i_old + ys[i] * ys[j] * (a_j_old - a_j)
                b1 = (
                    b
                    - E_i
                    - ys[i] * (a_i - a_i_old) * K[i, i]
                    - ys[j] * (a_j - a_j_old) * K[i, j]
                )
                b2 = (
                    b
                    - E_j
                    - ys[i] * (a_i - a_i_old) * K[i, j]
                    - ys[j] * (a_j - a_j_old) * K[j, j]
                )
                if 0 < a_i < C:
                    b = b1
                elif 0 < a_j < C:
                    b = b2
                else:
                    b = (b1 + b2) / 2.0
                alphas[i], alphas[j] = a_i, a_j
                ay[i], ay[j] = a_i * ys[i], a_j * ys[j]
                changed += 1
            passes = passes + 1 if changed == 0 else 0
            sweeps += 1

        self.X_ = X
        self.y_signed_ = y_signed
        self.alphas_ = alphas
        self.bias_ = float(b)
        self.gamma_ = float(gamma)
        self.n_sweeps_ = sweeps
        self.converged_ = passes >= max_passes
        if not self.converged_:
            warnings.warn(
                f"SMO stopped at max_sweeps={MAX_SWEEPS} before "
                f"{max_passes} consecutive sweeps without an update",
                RuntimeWarning,
                stacklevel=2,
            )
        return self

    @property
    def support_mask_(self):
        return self.alphas_ > 1e-12

    def decision_function(self, X):
        X = check_predict_input(X, self.X_.shape[1])
        mask = self.support_mask_
        if not mask.any():
            return np.full(len(X), self.bias_)
        K = rbf_kernel(self.X_[mask], X, self.gamma_)
        return (self.alphas_[mask] * self.y_signed_[mask]) @ K + self.bias_

    def predict(self, X):
        return (self.decision_function(X) > 0).astype(int)
