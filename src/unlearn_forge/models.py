"""Small differentiable classifiers with analytic gradients.

Two kinds are supported:

* ``logistic`` -- multinomial logistic regression, strongly convex once the
  l2 term is on, with an exact closed-form Hessian.
* ``mlp`` -- one hidden tanh layer; gradients are analytic, the exact
  Hessian is not provided.

The training objective is always the mean soft-label cross-entropy over the
batch plus ``l2/2 * ||theta||^2``.  Soft-label rows must sum to 1 but entries
may be negative (negative label smoothing).

``minibatch_sgd`` is the one minibatch loop behind ``sgd_train`` and every
iterative unlearning method; each caller supplies its per-batch gradient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError, UnsupportedModelError
from .numcore import rng_stream, softmax_rows

log = logging.getLogger("unlearn_forge")

_P_FLOOR = 1e-300


@dataclass(frozen=True)
class Model:
    kind: str  # "logistic" | "mlp"
    theta: np.ndarray
    d: int
    K: int
    l2: float = 1e-2
    hidden: int = 0

    def __post_init__(self):
        if self.kind not in ("logistic", "mlp"):
            raise DomainError(f"unknown model kind {self.kind!r}")
        if self.K < 2:
            raise DomainError("need at least 2 classes")
        expected = n_params(self.kind, self.d, self.K, self.hidden)
        if self.theta.shape != (expected,):
            raise DimensionError(f"theta has shape {self.theta.shape}, expected ({expected},)")

    def with_theta(self, theta: np.ndarray) -> "Model":
        return replace(self, theta=np.asarray(theta, dtype=np.float64))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr < 0:
            raise DomainError("invalid training configuration")


def n_params(kind: str, d: int, K: int, hidden: int = 0) -> int:
    if kind == "logistic":
        return K * d + K
    return hidden * d + hidden + K * hidden + K


def init_model(kind: str, d: int, K: int, l2: float = 1e-2, hidden: int = 16,
               rng: np.random.Generator | None = None) -> Model:
    """Fresh model with small random weights (zeros for logistic)."""
    h = hidden if kind == "mlp" else 0
    p = n_params(kind, d, K, h)
    if kind == "logistic":
        theta = np.zeros(p)
    else:
        rng = rng if rng is not None else rng_stream(0, 0)
        theta = 0.1 * rng.standard_normal(p)
    return Model(kind=kind, theta=theta, d=d, K=K, l2=l2, hidden=h)


def _unpack_logistic(model: Model):
    W = model.theta[: model.K * model.d].reshape(model.K, model.d)
    b = model.theta[model.K * model.d:]
    return W, b


def _unpack_mlp(model: Model):
    d, K, h = model.d, model.K, model.hidden
    t = model.theta
    i = 0
    W1 = t[i:i + h * d].reshape(h, d); i += h * d
    b1 = t[i:i + h]; i += h
    W2 = t[i:i + K * h].reshape(K, h); i += K * h
    b2 = t[i:i + K]
    return W1, b1, W2, b2


def logits(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DimensionError(f"X has shape {X.shape}, expected (n, {model.d})")
    if model.kind == "logistic":
        W, b = _unpack_logistic(model)
        return X @ W.T + b
    W1, b1, W2, b2 = _unpack_mlp(model)
    return np.tanh(X @ W1.T + b1) @ W2.T + b2


def forward(model: Model, X: np.ndarray) -> np.ndarray:
    """Class probabilities, rows summing to 1."""
    return softmax_rows(logits(model, X))


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Argmax class labels; ties break to the lowest class index."""
    return np.argmax(forward(model, X), axis=1)


def onehot(y: np.ndarray, K: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= K):
        raise DomainError("label outside [0, K)")
    out = np.zeros((y.shape[0], K))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _check_soft(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (X.shape[0], model.K):
        raise DimensionError(f"soft labels have shape {soft.shape}, expected ({X.shape[0]}, {model.K})")
    sums = soft.sum(axis=1)
    # all-zero rows are allowed (no label weight); otherwise rows must sum to 1.
    # Same test as np.isclose(sums, 1.0, atol=1e-9) | np.isclose(sums, 0.0, atol=1e-12),
    # written out because np.isclose costs more than a batch-32 gradient itself
    bad = ~((np.abs(sums - 1.0) <= 1e-9 + 1e-5) | (np.abs(sums) <= 1e-12))
    if np.any(bad):
        raise DomainError("soft label rows must sum to 1 (or be all zero)")
    return soft


def ce_loss(model: Model, X: np.ndarray, soft: np.ndarray) -> float:
    """Mean of sum_j soft[j] * (-log p_j) over rows, plus l2/2 * ||theta||^2."""
    X = np.asarray(X, dtype=np.float64)
    soft = _check_soft(model, X, soft)
    p = forward(model, X)
    if np.any((p <= 0) & (soft != 0)):
        log.debug("clamping zero probabilities in ce_loss")
    logp = np.log(np.maximum(p, _P_FLOOR))
    data = -np.mean(np.sum(soft * logp, axis=1)) if X.shape[0] else 0.0
    return float(data + 0.5 * model.l2 * np.dot(model.theta, model.theta))


def grad(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Analytic gradient of ce_loss w.r.t. theta."""
    X = np.asarray(X, dtype=np.float64)
    return _grad(model, X, _check_soft(model, X, soft))


def _grad(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """grad without the input checks, for callers that made them once."""
    n = X.shape[0]
    if n == 0:
        return model.l2 * model.theta.copy()
    p = forward(model, X)
    S = soft.sum(axis=1, keepdims=True)
    dlogits = (p * S - soft) / n
    if model.kind == "logistic":
        gW = dlogits.T @ X
        gb = dlogits.sum(axis=0)
        return np.concatenate([gW.ravel(), gb]) + model.l2 * model.theta
    W1, b1, W2, b2 = _unpack_mlp(model)
    A = np.tanh(X @ W1.T + b1)
    gW2 = dlogits.T @ A
    gb2 = dlogits.sum(axis=0)
    dA = dlogits @ W2
    dZ = dA * (1.0 - A * A)
    gW1 = dZ.T @ X
    gb1 = dZ.sum(axis=0)
    return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2]) + model.l2 * model.theta


def hessian(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Exact Hessian of ce_loss for the logistic model.

    Per example the cross-entropy Hessian w.r.t. the logits is
    ``S * (diag(p) - p p^T)`` with ``S`` the soft-label row sum, so the result
    is PSD plus ``l2 * I`` whenever all S >= 0.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("exact Hessian is only available for the logistic model")
    X = np.asarray(X, dtype=np.float64)
    soft = _check_soft(model, X, soft)
    n, d, K = X.shape[0], model.d, model.K
    P = n_params("logistic", d, K)
    if n == 0:
        return model.l2 * np.eye(P)
    p = forward(model, X)
    S = soft.sum(axis=1)
    A = S[:, None, None] * (p[:, :, None] * np.eye(K)[None, :, :] - p[:, :, None] * p[:, None, :])
    Xt = np.hstack([X, np.ones((n, 1))])
    H_aug = np.einsum("nkl,ni,nj->kilj", A, Xt, Xt) / n
    H_aug = H_aug.reshape(K * (d + 1), K * (d + 1))
    # reorder from per-class [w_k, b_k] blocks to the flat [W.ravel(), b] layout
    perm = np.empty(P, dtype=np.int64)
    for k in range(K):
        perm[k * d:(k + 1) * d] = np.arange(k * (d + 1), k * (d + 1) + d)
        perm[K * d + k] = k * (d + 1) + d
    H = H_aug[np.ix_(perm, perm)]
    H = 0.5 * (H + H.T)
    return H + model.l2 * np.eye(P)


def minibatch_sgd(model: Model, n: int, cfg, rng: np.random.Generator, batch_grad,
                  epoch_loss, name: str) -> tuple[Model, list[float]]:
    """Per epoch, step ``theta -= cfg.lr * batch_grad(model_at_theta, idx)`` over the
    ``cfg.batch_size`` slices of one ``rng.permutation(n)``, then record
    ``epoch_loss(model_at_theta)``.  Ascent closures return the negated gradient.
    Raises DomainError naming ``name`` once theta or the loss is not finite."""
    theta = model.theta.copy()
    history: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            theta = theta - cfg.lr * batch_grad(model.with_theta(theta), order[start:start + cfg.batch_size])
            if not np.isfinite(theta).all():
                raise DomainError(f"{name} diverged in epoch {epoch}: parameters are no longer finite")
        history.append(epoch_loss(model.with_theta(theta)))
        if not np.isfinite(history[-1]):
            raise DomainError(f"{name} diverged in epoch {epoch}: loss is {history[-1]}")
    return model.with_theta(theta), history


def sgd_train(model: Model, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
              rng: np.random.Generator | None = None) -> tuple[Model, list[float]]:
    """Deterministic mini-batch SGD on one-hot labels; returns per-epoch losses."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise DomainError("cannot train on an empty dataset")
    labels = _check_soft(model, X, onehot(y, model.K))
    rng = rng if rng is not None else rng_stream(cfg.seed, 0)
    return minibatch_sgd(model, X.shape[0], cfg, rng,
                         lambda m, idx: _grad(m, X[idx], labels[idx]),
                         lambda m: ce_loss(m, X, labels), "sgd_train")


def newton_optimize(model: Model, X: np.ndarray, soft: np.ndarray,
                    tol: float = 1e-8, max_iter: int = 200, damping: float = 1e-9) -> Model:
    """Full-batch damped Newton to gradient norm <= tol (logistic only).

    With l2 > 0 the objective is strongly convex, so this converges to the
    unique optimum; used wherever exact stationarity is required.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("newton_optimize requires the logistic model")
    m = model
    for _ in range(max_iter):
        g = grad(m, X, soft)
        if np.linalg.norm(g) <= tol:
            return m
        H = hessian(m, X, soft)
        step = np.linalg.solve(H + damping * np.eye(H.shape[0]), g)
        # backtracking keeps the step safe far from the optimum
        t = 1.0
        f0 = ce_loss(m, X, soft)
        while t > 1e-8:
            cand = m.with_theta(m.theta - t * step)
            if ce_loss(cand, X, soft) <= f0:
                m = cand
                break
            t *= 0.5
        else:
            m = m.with_theta(m.theta - 1e-8 * step)
    return m
