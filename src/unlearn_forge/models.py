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
iterative unlearning method.  Each caller prepares an epoch's batches once,
from that epoch's shuffled order, and the loop then steps through them with
only the parameter-dependent gradient left per step.  The loop owns one
``Model`` per run and steps its parameter vector in place.

The kernels are called thousands of times on batches of a few dozen rows, so
they reuse their own temporaries (``out=``, in-place updates) wherever that
leaves every floating-point operation as it was; the results are bit for bit
those of the plain expressions.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SolverError, UnsupportedModelError
from .numcore import rng_stream, softmax_rows, solve_damped

log = logging.getLogger("unlearn_forge")

_P_FLOOR = 1e-300
_SUM_TOL = 1e-9 + 1e-5  # soft-label row sums must lie within this of 1

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 200
NEWTON_DAMPING = 1e-9

HESSIAN_CHUNK_ROWS = 1024


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
        if not 0 <= self.l2 < np.inf:  # false for nan too
            raise DomainError(f"l2 is {self.l2}, not a finite value >= 0")
        expected = n_params(self.kind, self.d, self.K, self.hidden)
        if self.theta.shape != (expected,):
            raise DimensionError(f"theta has shape {self.theta.shape}, expected ({expected},)")

    def with_theta(self, theta: np.ndarray) -> "Model":
        """This model with parameters ``theta`` (not copied when already
        float64).  The other fields were validated when this model was built,
        so only theta's shape is checked: Newton calls this once per trial
        step, ``minibatch_sgd`` once per run."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise DimensionError(f"theta has shape {theta.shape}, expected {self.theta.shape}")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, theta=theta)
        return new


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
    if kind == "mlp" and hidden < 1:
        raise DomainError(f"an mlp needs hidden >= 1, got {hidden}")
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
        Z = X @ W.T
    else:
        W1, b1, W2, b = _unpack_mlp(model)
        Z = np.tanh(X @ W1.T + b1) @ W2.T
    Z += b
    return Z


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
    off = np.abs(sums - 1.0)
    # every row summing to 1 is the common case: one max decides it (a NaN sum
    # fails it and goes on to the full test)
    if not off.size or off.max() <= _SUM_TOL:
        return soft
    # all-zero rows are allowed (no label weight); otherwise rows must sum to 1.
    # Same test as np.isclose(sums, 1.0, atol=1e-9) | np.isclose(sums, 0.0, atol=1e-12),
    # written out because np.isclose costs more than a batch-32 gradient itself
    if not ((off <= _SUM_TOL) | (np.abs(sums) <= 1e-12)).all():
        raise DomainError("soft label rows must sum to 1 (or be all zero)")
    return soft


def ce_loss(model: Model, X: np.ndarray, soft: np.ndarray) -> float:
    """Mean of sum_j soft[j] * (-log p_j) over rows, plus l2/2 * ||theta||^2."""
    X = np.asarray(X, dtype=np.float64)
    soft = _check_soft(model, X, soft)
    p = forward(model, X)
    if log.isEnabledFor(logging.DEBUG) and np.any((p <= 0) & (soft != 0)):
        log.debug("clamping zero probabilities in ce_loss")
    logp = np.maximum(p, _P_FLOOR, out=p)
    np.log(logp, out=logp)
    logp *= soft
    data = -logp.sum(axis=1).mean() if X.shape[0] else 0.0
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
    dlogits = forward(model, X)
    dlogits *= soft.sum(axis=1, keepdims=True)
    dlogits -= soft
    dlogits /= n
    # each block of the gradient is written straight into its view of g
    g = np.empty(model.theta.size)
    if model.kind == "logistic":
        gW, gb = _unpack_logistic(model.with_theta(g))
        np.matmul(dlogits.T, X, out=gW)
        dlogits.sum(axis=0, out=gb)
    else:
        W1, b1, W2, b2 = _unpack_mlp(model)
        gW1, gb1, gW2, gb2 = _unpack_mlp(model.with_theta(g))
        A = np.tanh(X @ W1.T + b1)
        dZ = dlogits @ W2
        dZ *= 1.0 - A * A
        np.matmul(dZ.T, X, out=gW1)
        dZ.sum(axis=0, out=gb1)
        np.matmul(dlogits.T, A, out=gW2)
        dlogits.sum(axis=0, out=gb2)
    g += model.l2 * model.theta
    return g


def hessian(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Exact Hessian of ce_loss for the logistic model.

    Per example the cross-entropy Hessian w.r.t. the logits is
    ``S * (diag(p) - p p^T)`` with ``S`` the soft-label row sum, so the result
    is PSD plus ``l2 * I`` whenever all S >= 0.  W.r.t. the per-class weights
    ``[w_k, b_k]`` on ``x~ = [x, 1]`` each row adds that matrix Kronecker
    ``x~ x~^T`` (Böhning 1992, "Multinomial logistic regression algorithm").
    Summed over rows this is a block-diagonal part minus a Gram part: block k
    is ``X~^T diag(S * p_k) X~`` and the Gram part is ``B^T diag(S) B`` with
    ``B = p (x) x~``, n x K(d+1), so both come from products with ``S * B``.
    B is built ``HESSIAN_CHUNK_ROWS`` rows at a time to bound peak RSS: whole,
    B and its scaled copy take 2 n K (d+1) floats (30 MB at n = 9,000, K = 10,
    d = 20); in chunks they take 3.4 MB whatever n is.
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
    m = d + 1
    Xt = np.empty((n, m))
    Xt[:, :d] = X
    Xt[:, d] = 1.0
    gram = np.zeros((K * m, K * m))
    blocks = np.zeros((K * m, m))
    for lo in range(0, n, HESSIAN_CHUNK_ROWS):
        rows = slice(lo, lo + HESSIAN_CHUNK_ROWS)
        B = (p[rows, :, None] * Xt[rows, None, :]).reshape(-1, K * m)
        SB = S[rows, None] * B
        gram += SB.T @ B
        blocks += SB.T @ Xt[rows]
    diagonal, reorder = _hessian_index(K, d)
    H_aug = np.negative(gram, out=gram)
    H_aug[diagonal] += blocks
    H_aug /= n
    H = H_aug[reorder]
    H += H.T
    H *= 0.5
    H += model.l2 * np.eye(P)
    return H


@functools.lru_cache(maxsize=64)
def _hessian_index(K: int, d: int):
    """Fancy indices for ``hessian``'s augmented K(d+1) x K(d+1) matrix: the
    entries of its K diagonal (d+1) x (d+1) blocks, laid out like the stacked
    ``blocks`` array, and the reorder from per-class ``[w_k, b_k]`` blocks to
    the flat ``[W.ravel(), b]`` layout.  Read-only, so the cache can share them."""
    m = d + 1
    rows = np.arange(K * m)[:, None]
    cols = rows // m * m + np.arange(m)
    starts = np.arange(K)[:, None] * m
    perm = np.concatenate([(starts + np.arange(d)).ravel(), starts.ravel() + d])
    reorder = np.ix_(perm, perm)
    for a in (rows, cols) + reorder:
        a.flags.writeable = False
    return (rows, cols), reorder


def minibatch_sgd(model: Model, n: int, cfg, rng: np.random.Generator, epoch_grad,
                  epoch_loss, name: str) -> tuple[Model, list[float]]:
    """Per epoch, draw ``order = rng.permutation(n)`` and call ``epoch_grad(order)``
    once; it prepares that epoch's batches and returns ``batch_grad(model_at_theta,
    lo, hi)``, the gradient on the rows ``order[lo:hi]``.  Then step
    ``theta -= cfg.lr * batch_grad(...)`` over the ``cfg.batch_size`` slices of
    ``order`` and record ``epoch_loss(model_at_theta)``.  Both get the run's one
    model, whose theta is stepped in place, so neither may keep it past the
    call.  Ascent closures return the negated gradient.  Raises DomainError
    naming ``name`` once theta or the loss is not finite."""
    theta = model.theta.copy()
    model = model.with_theta(theta)  # this run's own model, stepped in place
    history: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        batch_grad = epoch_grad(rng.permutation(n))
        for lo in range(0, n, cfg.batch_size):
            theta -= cfg.lr * batch_grad(model, lo, lo + cfg.batch_size)
            if not np.isfinite(theta).all():
                raise DomainError(f"{name} diverged in epoch {epoch}: parameters are no longer finite")
        history.append(epoch_loss(model))
        if not np.isfinite(history[-1]):
            raise DomainError(f"{name} diverged in epoch {epoch}: loss is {history[-1]}")
    return model, history


def sgd_train(model: Model, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
              rng: np.random.Generator | None = None) -> tuple[Model, list[float]]:
    """Deterministic mini-batch SGD on one-hot labels; returns per-epoch losses."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise DomainError("cannot train on an empty dataset")
    labels = _check_soft(model, X, onehot(y, model.K))
    rng = rng if rng is not None else rng_stream(cfg.seed, 0)

    def epoch_grad(order):
        Xo, So = X[order], labels[order]
        return lambda m, lo, hi: _grad(m, Xo[lo:hi], So[lo:hi])
    return minibatch_sgd(model, X.shape[0], cfg, rng, epoch_grad,
                         lambda m: ce_loss(m, X, labels), "sgd_train")


def newton_optimize(model: Model, X: np.ndarray, soft: np.ndarray) -> Model:
    """Full-batch damped Newton to gradient norm <= NEWTON_TOL (logistic only).

    With l2 > 0 the objective is strongly convex, so this converges to the
    unique optimum; used wherever exact stationarity is required.  Steps solve
    (H + NEWTON_DAMPING I) step = g and backtrack; raises SolverError when no
    step size lowers the loss or NEWTON_MAX_ITER steps end above NEWTON_TOL.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("newton_optimize requires the logistic model")
    m = model
    f0 = ce_loss(m, X, soft)
    for it in range(NEWTON_MAX_ITER + 1):
        g = grad(m, X, soft)
        g_norm = np.linalg.norm(g)
        if g_norm <= NEWTON_TOL:
            return m
        if it == NEWTON_MAX_ITER:
            raise SolverError(f"newton_optimize: gradient norm {g_norm:.3e} after {it} iterations")
        step = solve_damped(hessian(m, X, soft), g, NEWTON_DAMPING)
        t = 1.0
        while t > 1e-8:
            cand = m.with_theta(m.theta - t * step)
            f_cand = ce_loss(cand, X, soft)
            if f_cand <= f0:
                m, f0 = cand, f_cand
                break
            t *= 0.5
        else:
            raise SolverError(f"newton_optimize: no descent step at gradient norm {g_norm:.3e}")
