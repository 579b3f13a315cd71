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
iterative unlearning method.  It steps a stack of S parameter vectors, one
run per seed, in lockstep: each step is one stacked numpy call for all S
runs, so numpy's fixed cost per call is paid once per step, not once per
seed.  A single run is the S = 1 case.  Each caller prepares an epoch's
batches once, from that epoch's shuffled orders, and the loop then steps
through them with only the parameter-dependent gradient left per step.  The
loop owns one ``Model`` per call and steps its parameter stack in place.

The kernels (``logits``, ``forward``, ``ce_loss``, ``grad``, ``hessian``)
take leading axes by broadcasting: a ``theta`` of shape (S, P) and rows of
shape (n, d) or (S, n, d) give S results, each with the bits of its own 2-D
call.

``newton_optimize`` runs damped Newton the same way: it steps an (S, P)
stack of independent problems, one stacked ``grad``, ``hessian``,
``solve_damped`` and ``ce_loss`` call per iteration for all problems still
moving, and each problem freezes on its own once converged.  One problem is
the S = 1 case.

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
from .numcore import rng_stream, row_dot, softmax_rows, solve_damped

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
        so only theta's shape is checked."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise DimensionError(f"theta has shape {theta.shape}, expected {self.theta.shape}")
        return self._with(theta)

    def with_stack(self, theta: np.ndarray) -> "Model":
        """``with_theta`` for a ``theta`` of any leading shape, such as the
        (S, P) stack of S lockstep runs or one of its rows; only the last
        axis is checked."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[-1:] != self.theta.shape[-1:]:
            raise DimensionError(f"theta has shape {theta.shape}, expected (..., {self.theta.shape[-1]})")
        return self._with(theta)

    def _with(self, theta: np.ndarray) -> "Model":
        """This model with the float64 ``theta``, unchecked."""
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


# Views of theta's blocks, with theta's leading axes in front of each block's
# shape; the weight matrices are views too, so a kernel may write into them.
def _unpack_logistic(model: Model):
    t, K, d = model.theta, model.K, model.d
    W = t[..., : K * d].reshape(t.shape[:-1] + (K, d))
    b = t[..., K * d:]
    return W, b


def _unpack_mlp(model: Model):
    d, K, h = model.d, model.K, model.hidden
    t = model.theta
    lead = t.shape[:-1]
    i = 0
    W1 = t[..., i:i + h * d].reshape(lead + (h, d)); i += h * d
    b1 = t[..., i:i + h]; i += h
    W2 = t[..., i:i + K * h].reshape(lead + (K, h)); i += K * h
    b2 = t[..., i:i + K]
    return W1, b1, W2, b2


def logits(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] != model.d:
        raise DimensionError(f"X has shape {X.shape}, expected (n, {model.d})")
    if model.kind == "logistic":
        W, b = _unpack_logistic(model)
        Z = X @ W.swapaxes(-1, -2)
    else:
        W1, b1, W2, b = _unpack_mlp(model)
        Z = np.tanh(X @ W1.swapaxes(-1, -2) + b1[..., None, :]) @ W2.swapaxes(-1, -2)
    Z += b[..., None, :]
    return Z


def forward(model: Model, X: np.ndarray) -> np.ndarray:
    """Class probabilities, rows summing to 1."""
    return softmax_rows(logits(model, X))


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Argmax class labels; ties break to the lowest class index."""
    return np.argmax(forward(model, X), axis=-1)


def onehot(y: np.ndarray, K: int) -> np.ndarray:
    """Rows of the K x K identity picked by ``y``, of shape y.shape + (K,)."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= K):
        raise DomainError("label outside [0, K)")
    out = np.zeros(y.shape + (K,))
    out.reshape(-1, K)[np.arange(y.size), y.ravel()] = 1.0
    return out


def _check_soft(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape[-2:] != (X.shape[-2], model.K):
        raise DimensionError(f"soft labels have shape {soft.shape}, expected ({X.shape[-2]}, {model.K})")
    sums = soft.sum(axis=-1)
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


def ce_loss(model: Model, X: np.ndarray, soft: np.ndarray) -> float | np.ndarray:
    """Mean of sum_j soft[j] * (-log p_j) over rows, plus l2/2 * ||theta||^2;
    a float, or an array over the leading axes of a stacked call."""
    X = np.asarray(X, dtype=np.float64)
    soft = _check_soft(model, X, soft)
    p = forward(model, X)
    if log.isEnabledFor(logging.DEBUG) and np.any((p <= 0) & (soft != 0)):
        log.debug("clamping zero probabilities in ce_loss")
    logp = np.maximum(p, _P_FLOOR, out=p)
    np.log(logp, out=logp)
    logp *= soft
    # the row mean as np.mean computes it (sum, then divide by the count),
    # without its per-call Python overhead
    data = -(logp.sum(axis=-1).sum(axis=-1) / X.shape[-2]) if X.shape[-2] else 0.0
    loss = data + 0.5 * model.l2 * row_dot(model.theta)
    return float(loss) if loss.ndim == 0 else loss


def grad(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Analytic gradient of ce_loss w.r.t. theta."""
    X = np.asarray(X, dtype=np.float64)
    return _grad(model, X, _check_soft(model, X, soft))


def _grad(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """grad without the input checks, for callers that made them once."""
    n = X.shape[-2]
    if n == 0:
        return model.l2 * model.theta.copy()
    dlogits = forward(model, X)
    dlogits *= soft.sum(axis=-1, keepdims=True)
    dlogits -= soft
    dlogits /= n
    # each block of the gradient is written straight into its view of g
    g = np.empty(dlogits.shape[:-2] + model.theta.shape[-1:])
    dlogits_T = dlogits.swapaxes(-1, -2)
    if model.kind == "logistic":
        gW, gb = _unpack_logistic(model._with(g))
        np.matmul(dlogits_T, X, out=gW)
        dlogits.sum(axis=-2, out=gb)
    else:
        W1, b1, W2, b2 = _unpack_mlp(model)
        gW1, gb1, gW2, gb2 = _unpack_mlp(model._with(g))
        A = np.tanh(X @ W1.swapaxes(-1, -2) + b1[..., None, :])
        dZ = dlogits @ W2
        dZ *= 1.0 - A * A
        np.matmul(dZ.swapaxes(-1, -2), X, out=gW1)
        dZ.sum(axis=-2, out=gb1)
        np.matmul(dlogits_T, A, out=gW2)
        dlogits.sum(axis=-2, out=gb2)
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

    Stacked, theta of shape (S, P), X of shape (S, n, d) and soft labels of
    shape (S, n, K) give a C-ordered (S, P, P) array, each slice the bits of
    its 2-D call; the chunks stay ``HESSIAN_CHUNK_ROWS`` rows along n, so B
    and its scaled copy take 2 S n K (d+1) floats up to that bound.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("exact Hessian is only available for the logistic model")
    X = np.asarray(X, dtype=np.float64)
    soft = _check_soft(model, X, soft)
    n, d, K = X.shape[-2], model.d, model.K
    P = n_params("logistic", d, K)
    if n == 0:
        lead = np.broadcast_shapes(model.theta.shape[:-1], X.shape[:-2], soft.shape[:-2])
        return np.broadcast_to(model.l2 * np.eye(P), lead + (P, P)).copy()
    p = forward(model, X)
    lead = p.shape[:-2]
    S = soft.sum(axis=-1)
    m = d + 1
    Xt = np.empty(X.shape[:-1] + (m,))
    Xt[..., :d] = X
    Xt[..., d] = 1.0
    gram = np.zeros(lead + (K * m, K * m))
    blocks = np.zeros(lead + (K * m, m))
    for lo in range(0, n, HESSIAN_CHUNK_ROWS):
        rows = slice(lo, lo + HESSIAN_CHUNK_ROWS)
        B = p[..., rows, :, None] * Xt[..., rows, None, :]
        B = B.reshape(B.shape[:-2] + (K * m,))
        SB = S[..., rows, None] * B
        SB_T = SB.swapaxes(-1, -2)
        gram += SB_T @ B
        blocks += SB_T @ Xt[..., rows, :]
    (rows, cols), (perm_rows, perm_cols) = _hessian_index(K, d)
    H_aug = np.negative(gram, out=gram)
    H_aug[..., rows, cols] += blocks
    H_aug /= n
    # advanced indexing lays a stack out with the stack axis innermost; in C
    # order each slice is laid out as its 2-D call's result, so a BLAS
    # product on a slice (``H[s] @ v``) rounds as it does on that result
    H = np.ascontiguousarray(H_aug[..., perm_rows, perm_cols])
    H += H.swapaxes(-1, -2)
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


def minibatch_sgd(model: Model, n: int, cfg, rngs, epoch_grad, epoch_loss,
                  name: str) -> tuple[Model, list[list[float]]]:
    """Step the (S, P) parameter stack ``model.theta`` in lockstep, run s
    drawing its shuffles from ``rngs[s]``.

    Per epoch, draw ``orders[s] = rngs[s].permutation(n)`` and call
    ``epoch_grad(orders)`` once; it prepares that epoch's batches, stacked per
    run, and returns ``batch_grad(model_at_theta, lo, hi)``, the (S, P)
    gradients on the rows ``orders[:, lo:hi]``.  Then step
    ``theta -= cfg.lr * batch_grad(...)`` over the ``cfg.batch_size`` slices
    of the orders and record ``epoch_loss(model_at_theta)``, the S losses.
    Both get the call's one model, whose theta is stepped in place, so neither
    may keep it past the call.  Ascent closures return the negated gradient.
    Returns the stepped model and one loss history per run.  Raises
    DomainError naming ``name`` once any run's theta or loss is not finite."""
    theta = model.theta.copy()
    model = model.with_theta(theta)  # this call's own model, stepped in place
    losses = []
    for epoch in range(1, cfg.epochs + 1):
        batch_grad = epoch_grad(np.stack([rng.permutation(n) for rng in rngs]))
        for lo in range(0, n, cfg.batch_size):
            theta -= cfg.lr * batch_grad(model, lo, lo + cfg.batch_size)
            if not np.isfinite(theta).all():
                raise DomainError(f"{name} diverged in epoch {epoch}: parameters are no longer finite")
        del batch_grad  # the epoch's batches go before the next epoch's are built
        loss = epoch_loss(model)
        losses.append(loss)
        if not np.isfinite(loss).all():
            raise DomainError(f"{name} diverged in epoch {epoch}: "
                              f"loss is {float(loss[~np.isfinite(loss)][0])}")
    return model, np.reshape(losses, (cfg.epochs, len(theta))).T.tolist()


def sgd_train(model: Model, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
              rng=None) -> tuple[Model, list]:
    """Deterministic mini-batch SGD on one-hot labels; returns the trained
    model and its per-epoch losses.

    In lockstep form ``model.theta`` is an (S, P) stack, ``y`` has shape (n,)
    or (S, n) and ``rng`` is a list of S generators: run s trains
    ``theta[s]`` on its labels with ``rng[s]``, and the result is the
    stacked model and S histories, each the bits of that run alone."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise DomainError("cannot train on an empty dataset")
    single = model.theta.ndim == 1
    if single:
        model = model.with_stack(model.theta[None])
        rng = [rng if rng is not None else rng_stream(cfg.seed, 0)]
    labels = _check_soft(model, X, onehot(y, model.K))

    def epoch_grad(orders):
        Xo = X[orders]
        So = labels[orders] if labels.ndim == 2 else np.take_along_axis(labels, orders[..., None], 1)
        return lambda m, lo, hi: _grad(m, Xo[:, lo:hi], So[:, lo:hi])
    trained, history = minibatch_sgd(model, X.shape[0], cfg, rng, epoch_grad,
                                     lambda m: ce_loss(m, X, labels), "sgd_train")
    return (trained.with_stack(trained.theta[0]), history[0]) if single else (trained, history)


def newton_optimize(model: Model, X: np.ndarray, soft: np.ndarray) -> Model:
    """Full-batch damped Newton to gradient norm <= NEWTON_TOL (logistic only).

    With l2 > 0 the objective is strongly convex, so this converges to the
    unique optimum; used wherever exact stationarity is required.  Steps solve
    (H + NEWTON_DAMPING I) step = g and backtrack; raises SolverError when no
    step size lowers the loss or NEWTON_MAX_ITER steps end above NEWTON_TOL.

    In lockstep form ``model.theta`` is an (S, P) stack, X has shape
    (S, n, d) and soft (S, n, K): S independent problems, stepped by one
    stacked kernel call each per iteration.  Each problem stops once its own
    gradient norm is <= NEWTON_TOL and backtracks on its own, so it ends on
    the bits of its solo run; NEWTON_MAX_ITER bounds each problem's steps.
    The errors of a stack of two or more name the first failing problem.  A
    2-D call is the S = 1 case.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("newton_optimize requires the logistic model")
    X = np.asarray(X, dtype=np.float64)
    soft = np.asarray(soft, dtype=np.float64)
    out = model.theta.reshape(-1, model.theta.shape[-1]).copy()
    if X.shape[:-2] != model.theta.shape[:-1] or soft.shape[:-2] != model.theta.shape[:-1]:
        raise DimensionError(f"X {X.shape} and soft labels {soft.shape} do not hold one "
                             f"problem for each of the {len(out)} parameter rows")
    # the first loss checks the caller's own inputs; then they become an (S, ...) stack
    f0 = np.ravel(ce_loss(model, X, soft))
    X, soft = X.reshape((len(out),) + X.shape[-2:]), soft.reshape((len(out),) + soft.shape[-2:])
    # the rows of ``out`` still stepping, with their inputs, parameters and losses
    live = np.arange(len(out))

    def problem(i):  # names live row i in the errors of a stack of two or more
        return f" (problem {live[i]})" if len(out) > 1 else ""
    theta = out.copy()
    for it in range(NEWTON_MAX_ITER + 1):
        m = model._with(theta)
        g = grad(m, X, soft)
        g_norm = np.sqrt(row_dot(g))  # the bits of np.linalg.norm on each row
        done = g_norm <= NEWTON_TOL
        if done.any():
            out[live[done]] = theta[done]
            keep = ~done
            if not keep.any():
                return model._with(out.reshape(model.theta.shape))
            live, theta, f0, g, g_norm = live[keep], theta[keep], f0[keep], g[keep], g_norm[keep]
            X, soft = X[keep], soft[keep]
            m = model._with(theta)
        if it == NEWTON_MAX_ITER:
            raise SolverError(f"newton_optimize: gradient norm {g_norm[0]:.3e} after {it} "
                              f"iterations{problem(0)}")
        step = solve_damped(hessian(m, X, soft), g, NEWTON_DAMPING)
        # backtrack: ``todo`` indexes the rows that have not yet found a step
        # size lowering their loss, and all of them are at the same size t
        t = 1.0
        todo = np.arange(len(live))
        while True:
            cand = theta[todo] - t * step[todo]
            f_cand = ce_loss(model._with(cand), X[todo], soft[todo])
            ok = f_cand <= f0[todo]
            theta[todo[ok]], f0[todo[ok]] = cand[ok], f_cand[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            t *= 0.5
            if t <= 1e-8:
                raise SolverError(f"newton_optimize: no descent step at gradient norm "
                                  f"{g_norm[todo[0]]:.3e}{problem(todo[0])}")
