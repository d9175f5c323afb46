"""RBF-kernel support vector machine trained with WSS-2 SMO."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._input import check_finite, check_fit_input, check_predict_input, check_trainable

# Hard cap on SMO iterations, a safety net behind the gap test; fits of a
# few hundred rows stop after a few hundred iterations.
MAX_ITER = 100_000
# Curvature used for a pair whose K_ii + K_jj - 2 K_ij is not positive (LIBSVM's TAU).
TAU = 1e-12


@dataclass(frozen=True)
class SVMParams:
    c: float = 1.0
    # None scales as 1 / (n_features * var(X)); a config file may spell it "scale"
    gamma: float | None = field(default=None, metadata={"none": "scale"})
    # the solver stops when the violating-pair gap falls below tol
    tol: float = 1e-3
    # Unused by the WSS-2 solver, which stops on tol alone.  It stays a
    # validated key because every output file echoes the config: dropping
    # it moves the pinned digests of all of them, so it goes when they are
    # next re-pinned.
    max_passes: int = 10

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"svm_c must be > 0, got {self.c}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"svm_gamma must be > 0, got {self.gamma}")
        if not self.tol > 0:
            raise ValueError(f"svm_tol must be > 0, got {self.tol}")
        if self.max_passes < 1:
            raise ValueError(f"svm_max_passes must be >= 1, got {self.max_passes}")


def rbf_kernel(A, B, gamma):
    """exp(-gamma * ||a - b||^2) for every row pair of A and B."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    with np.errstate(over="ignore"):  # an overflowing product is -inf: exp gives the limit 0
        return np.exp(-gamma * np.maximum(sq, 0.0))


class SupportVectorMachine:
    """Binary SVM with an RBF kernel, trained by SMO with second-order
    working-set selection (WSS-2; Fan, Chen & Lin 2005), LIBSVM's solver.

    The dual is min 1/2 (a*y)' K (a*y) - sum(a) over 0 <= a <= C, y'a = 0.
    The solver keeps F = -y * G, G the dual gradient; F = y - K @ (a*y), the
    bias each row would need to sit on its margin.  Each iteration takes i,
    the row of I_up with the largest F, and j, the row of I_low with F below
    F_i and the largest gain (F_i - F_j)^2 / (K_ii + K_jj - 2 K_ij), then
    moves a_i by +y_i t and a_j by -y_j t, t the Newton step clipped to the
    box.  It stops when the violating-pair gap max_{I_up} F - min_{I_low} F
    is below tol.  The bias is the mean F over free vectors (0 < a < C), or
    the midpoint of the two limits when none is free.

    The solver is deterministic and draws no random numbers.  After fit,
    n_iter_ holds the pair updates made, gap_ the final gap, and converged_
    whether the gap fell below tol; stopping at MAX_ITER instead warns with
    a RuntimeWarning.  None of these is serialized.  gamma=None scales as
    1 / (n_features * var(X)).  A decision value of exactly 0 classifies as
    class 0.
    """

    def __init__(self, params=SVMParams()):
        self.params = params
        self.X_ = None
        self.y_signed_ = None
        self.alphas_ = None
        self.bias_ = None
        self.gamma_ = None
        self.n_iter_ = None
        self.gap_ = None
        self.converged_ = None

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.svm)

    def to_params(self) -> dict:
        """Only the support vectors are kept; they alone enter the decision function."""
        mask = self.support_mask_
        return {
            "gamma": self.gamma_,
            "bias": self.bias_,
            "n_features": self.n_features_,
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
        check_trainable(y, "svm")  # one class: I_up or I_low is empty, so nothing can move
        y_signed = np.where(y == 1, 1.0, -1.0)

        gamma = self.params.gamma
        if gamma is None:
            spread = float(X.var())
            gamma = 1.0 / (X.shape[1] * spread) if spread > 0 else 1.0 / X.shape[1]

        K = rbf_kernel(X, X, gamma)
        diag = K.diagonal()
        C, tol = self.params.c, self.params.tol
        positive = y_signed > 0
        alphas = np.zeros(len(y))
        F = y_signed.copy()
        # -inf (I_up) and +inf (I_low) outside each set, 0 inside: at a = 0,
        # I_up holds the positives and I_low the negatives
        up_off = np.where(positive, 0.0, -np.inf)
        low_off = np.where(positive, np.inf, 0.0)

        for n_iter in range(MAX_ITER + 1):
            F_up, F_low = F + up_off, F + low_off
            i = int(F_up.argmax())
            f_max, f_min = F_up[i], F_low.min()
            if f_max - f_min < tol or n_iter == MAX_ITER:
                break
            # each pair's curvature, and its objective gain, 0 for a j outside
            # I_low or at or above f_max
            curve = diag[i] + diag - 2.0 * K[i]
            curve[curve <= 0.0] = TAU
            drop = np.maximum(f_max - F_low, 0.0)
            j = int((drop * drop / curve).argmax())

            a_i, a_j = alphas[i], alphas[j]
            room_i = C - a_i if positive[i] else a_i
            room_j = a_j if positive[j] else C - a_j
            t = min(drop[j] / curve[j], room_i, room_j)
            # a clipped step puts its row exactly on the bound
            new_i = a_i + y_signed[i] * t if t < room_i else (C if positive[i] else 0.0)
            new_j = a_j - y_signed[j] * t if t < room_j else (0.0 if positive[j] else C)
            F -= (y_signed[i] * (new_i - a_i)) * K[i] + (y_signed[j] * (new_j - a_j)) * K[j]
            alphas[i], alphas[j] = new_i, new_j
            for k, a in ((i, new_i), (j, new_j)):
                in_up, in_low = (a < C, a > 0.0) if positive[k] else (a > 0.0, a < C)
                up_off[k] = 0.0 if in_up else -np.inf
                low_off[k] = 0.0 if in_low else np.inf

        free = (alphas > 0.0) & (alphas < C)
        self.X_ = X
        self.y_signed_ = y_signed
        self.alphas_ = alphas
        self.bias_ = float(F[free].mean() if free.any() else (f_max + f_min) / 2.0)
        self.gamma_ = float(gamma)
        self.n_iter_ = n_iter
        self.gap_ = float(f_max - f_min)
        self.converged_ = bool(self.gap_ < tol)
        if not self.converged_:
            warnings.warn(
                f"SMO stopped at max_iter={MAX_ITER} with violating-pair gap "
                f"{self.gap_:.3g} >= tol {tol}",
                RuntimeWarning,
                stacklevel=2,
            )
        return self

    @property
    def n_features_(self):
        return self.X_.shape[1]

    @property
    def support_mask_(self):
        return self.alphas_ > 1e-12

    def decision_function(self, X):
        X = check_predict_input(X, self.n_features_)
        mask = self.support_mask_
        K = rbf_kernel(self.X_[mask], X, self.gamma_)
        return (self.alphas_[mask] * self.y_signed_[mask]) @ K + self.bias_

    def predict(self, X):
        return (self.decision_function(X) > 0).astype(int)
