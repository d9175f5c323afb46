"""RBF-kernel support vector machine trained with simplified SMO."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .._seeds import generator
from ._input import check_finite, check_fit_input, check_predict_input, check_trainable

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


def _clip(x, lo, hi):
    """min(hi, max(lo, x)) with the builtins' tie rules, at a fraction of their cost."""
    x = x if x > lo else lo
    return x if x < hi else hi


def _draws(rng, high, block=1024):
    """The values of successive rng.integers(high) calls, fetched in blocks.

    One integers(high, size=m) call returns the same values as m scalar
    calls, because the bit generator itself keeps the spare half of a 64-bit
    draw; the block's unused tail is lost, so rng must serve nothing else.
    """
    while True:
        yield from rng.integers(high, size=block).tolist()


_U = 2.0**-53  # unit roundoff of IEEE double precision


def _gamma(k):
    """Higham's gamma_k = k*u / (1 - k*u): the relative error of k roundings."""
    return k * _U / (1.0 - k * _U)


class DecisionVector:
    """SMO's decision values f(k) = float(ay @ K[:, k] + b) for every row at
    once, with a bound d that certifies |g[k] - f(k)| <= d for every k.

    It owns ay (alphas * y_signed) and b; `exact(k)` is the one place f(k)
    is computed exactly, by the strided dot product SMO has always used.
    SMO reads g and d as Python floats at the start of each sweep and after
    each `set`, and settles each row's checks from g[k] -/+ d where it can.

    The bound (Higham 2002, sec. 3.1).  Let T_k = sum_m ay_m K_mk + b in exact
    arithmetic, S = n * amax * kmax >= sum_m |ay_m K_mk| (amax is a running max
    of |alpha|, kmax = max K) and B a running max of |b|.
    - f(k) and, at `refresh`, g = ay @ K + b are each n products and b summed
      in some order, so both are within gamma_{n+1} * (S + B) of T_k.
    - `set` adds the exact change Di*K_ik + Dj*K_jk + Db to T_k, and to g the
      rounded di*K[i], dj*K[j] and db, where di = fl(Di) etc.  Each product
      carries two roundings, db one, and the three additions to g (with
      |g_k| <= S + B + drift) add gamma_3 * (|g_k| + |terms|); together the
      error of g grows by at most
      gamma_3 * (S + B + drift) + gamma_7 * (kmax * (|di| + |dj|) + |db|).
    d = 2 * (gamma_{n+1} * (S + B) + drift), where drift starts at
    gamma_{n+1} * (S + B) and sums those growths.  The factor 2 covers the
    rounding of d itself and of g[k] -/+ d, so those rounded ends still
    enclose f(k).
    """

    def __init__(self, K, y_signed, c):
        n = len(K)
        self.K = K
        # The strided K[:, k] views, made once.  A contiguous copy would be
        # faster but switches the dot product to a BLAS kernel whose sums
        # round differently.
        self.columns = list(K.T)
        self.y = y_signed
        self.ay = np.zeros(n)
        self.b = 0.0
        self.kmax = float(K.max())
        self.amax = c  # exact SMO keeps every alpha in [0, c]
        self.bmax = 0.0
        self.n_exact = 0
        self.n_updates = 0
        self.refresh()

    def exact(self, k):
        """f(k) exactly as simplified SMO computes it."""
        self.n_exact += 1
        return float(self.ay @ self.columns[k] + self.b)

    def _dot_error(self):
        n = len(self.ay)
        return _gamma(n + 1) * (n * self.amax * self.kmax + self.bmax)

    def refresh(self):
        """Recompute g from ay and b, which resets the drift."""
        self.g = self.ay @ self.K + self.b
        self.drift = self._dot_error()
        self.d = 2.0 * (self._dot_error() + self.drift)

    def set(self, i, a_i, j, a_j, b):
        """Store alphas a_i, a_j and bias b, and update g and d to match."""
        ay_i, ay_j = a_i * self.y[i], a_j * self.y[j]
        di, dj, db = ay_i - self.ay[i], ay_j - self.ay[j], b - self.b
        self.amax = max(self.amax, abs(a_i), abs(a_j))
        self.bmax = max(self.bmax, abs(b))
        n = len(self.ay)
        self.drift += _gamma(3) * (n * self.amax * self.kmax + self.bmax + self.drift)
        self.drift += _gamma(7) * (self.kmax * (abs(di) + abs(dj)) + abs(db))
        self.d = 2.0 * (self._dot_error() + self.drift)
        self.ay[i], self.ay[j], self.b = ay_i, ay_j, b
        self.g += di * self.K[i]
        self.g += dj * self.K[j]
        self.g += db
        self.n_updates += 1


class SupportVectorMachine:
    """Binary SVM with an RBF kernel, optimized pairwise (simplified SMO).

    Each sweep visits the rows in order; a row that violates KKT is paired
    with a random j from the "svm" RNG stream.  Each row is first checked
    against a DecisionVector: g = ay @ K + b for all rows, kept current
    through each update, with a certified bound d on |g[k] - f(k)|.  A KKT
    check that holds, or fails, for every value in g[k] -/+ d needs no
    exact f(k), and a step whose clipped size is below 1e-5 at both ends of
    the E_i - E_j range it allows is skipped (the step is monotone in
    E_i - E_j).
    Undecided cases and every committed update compute f exactly, so the
    fit matches the unscreened loop bit for bit, RNG draws included.

    Training stops after max_passes consecutive full sweeps without an alpha
    update, or at MAX_SWEEPS sweeps.  After fit, n_sweeps_ holds the sweeps
    run, n_updates_ the committed pair updates, n_exact_ the exact f
    evaluations, and converged_ whether the max_passes clean sweeps were
    reached; stopping at MAX_SWEEPS instead warns with a RuntimeWarning.
    None of these is serialized.  gamma=None scales as
    1 / (n_features * var(X)).  A decision value of exactly 0 classifies as
    class 0.
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
        self.n_updates_ = None
        self.n_exact_ = None
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
        check_trainable(y, "svm")  # one class: every pair has L == H, so no alpha would move
        n = len(y)
        y_signed = np.where(y == 1, 1.0, -1.0)

        gamma = self.params.gamma
        if gamma is None:
            spread = float(X.var())
            gamma = 1.0 / (X.shape[1] * spread) if spread > 0 else 1.0 / X.shape[1]

        K = rbf_kernel(X, X, gamma)
        draws = _draws(generator(self.seed, "svm"), n - 1)
        C, tol, max_passes = self.params.c, self.params.tol, self.params.max_passes

        # Scalars are read from lists: the same doubles, less indexing cost.
        alphas = [0.0] * n
        ys = y_signed.tolist()
        diag = K.diagonal().tolist()
        kernel = K.item
        dv = DecisionVector(K, y_signed, C)
        b = 0.0

        passes = 0
        sweeps = 0
        while passes < max_passes and sweeps < MAX_SWEEPS:
            changed = 0
            dv.refresh()
            g, d = dv.g.tolist(), dv.d
            for i in range(n):
                # f(i) lies in [g_i - d, g_i + d], and r = y_i * (f(i) - y_i) in
                # [r_lo, r_hi]: y * fl(f - y) = fl(y*f - 1) is monotone in f.
                y_i, a_i_old, g_i = ys[i], alphas[i], g[i]
                r_lo, r_hi = y_i * g_i - d - 1.0, y_i * g_i + d - 1.0
                below, above = a_i_old < C, a_i_old > 0
                if not ((r_lo < -tol and below) or (r_hi > tol and above)):
                    continue  # meets KKT whatever f(i) is
                if (r_hi < -tol and below) or (r_lo > tol and above):
                    E_i = None  # violates KKT whatever f(i) is
                    e_lo, e_hi = g_i - d - y_i, g_i + d - y_i
                else:
                    E_i = dv.exact(i) - y_i
                    r_i = y_i * E_i
                    if not ((r_i < -tol and below) or (r_i > tol and above)):
                        continue
                    e_lo = e_hi = E_i
                j = next(draws)
                if j >= i:
                    j += 1
                y_j, a_j_old = ys[j], alphas[j]
                if y_i != y_j:
                    L, H = a_j_old - a_i_old, C + a_j_old - a_i_old
                else:
                    L, H = a_i_old + a_j_old - C, a_i_old + a_j_old
                # max(0.0, L) and min(C, H), tie rules included, without the slow builtins
                L = L if L > 0.0 else 0.0
                H = H if H < C else C
                if L == H:
                    continue
                k_ij = kernel(i, j)
                eta = 2.0 * k_ij - diag[i] - diag[j]
                if eta >= 0:
                    continue
                # The clipped step is monotone in E_i - E_j: when it is dead at
                # both ends of that difference's range, it is dead throughout.
                ej_lo, ej_hi = g[j] - d - y_j, g[j] + d - y_j
                step_lo = _clip(a_j_old - y_j * (e_lo - ej_hi) / eta, L, H) - a_j_old
                step_hi = _clip(a_j_old - y_j * (e_hi - ej_lo) / eta, L, H) - a_j_old
                if abs(step_lo) < 1e-5 and abs(step_hi) < 1e-5:
                    continue
                if E_i is None:
                    E_i = dv.exact(i) - y_i
                E_j = dv.exact(j) - y_j
                a_j = a_j_old - y_j * (E_i - E_j) / eta
                a_j = _clip(a_j, L, H)
                if abs(a_j - a_j_old) < 1e-5:
                    continue
                a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
                b1 = b - E_i - y_i * (a_i - a_i_old) * diag[i] - y_j * (a_j - a_j_old) * k_ij
                b2 = b - E_j - y_i * (a_i - a_i_old) * k_ij - y_j * (a_j - a_j_old) * diag[j]
                if 0 < a_i < C:
                    b = b1
                elif 0 < a_j < C:
                    b = b2
                else:
                    b = (b1 + b2) / 2.0
                alphas[i], alphas[j] = a_i, a_j
                dv.set(i, a_i, j, a_j, b)
                g, d = dv.g.tolist(), dv.d
                changed += 1
            passes = passes + 1 if changed == 0 else 0
            sweeps += 1

        self.X_ = X
        self.y_signed_ = y_signed
        self.alphas_ = np.array(alphas)
        self.bias_ = float(b)
        self.gamma_ = float(gamma)
        self.n_sweeps_ = sweeps
        self.n_updates_ = dv.n_updates
        self.n_exact_ = dv.n_exact
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
    def n_features_(self):
        return self.X_.shape[1]

    @property
    def support_mask_(self):
        return self.alphas_ > 1e-12

    def decision_function(self, X):
        X = check_predict_input(X, self.n_features_)
        mask = self.support_mask_
        if not mask.any():
            return np.full(len(X), self.bias_)
        K = rbf_kernel(self.X_[mask], X, self.gamma_)
        return (self.alphas_[mask] * self.y_signed_[mask]) @ K + self.bias_

    def predict(self, X):
        return (self.decision_function(X) > 0).astype(int)
