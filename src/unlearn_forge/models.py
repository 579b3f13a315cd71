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
It records each epoch's loss with ``ce_loss`` on the rows it is given and
decides divergence once per epoch, from that loss and the epoch's errors: a
run that blows up raises one DomainError naming the run and the epoch.

The kernels (``logits``, ``forward``, ``ce_loss``, ``grad``, ``hessian``)
take leading axes by broadcasting: a ``theta`` of shape (S, P) and rows of
shape (n, d) or (S, n, d) give S results, each with the bits of its own 2-D
call.

``newton_optimize`` runs damped Newton the same way: it steps an (S, P)
stack of independent problems, one stacked gradient, ``hessian`` and
``solve_damped`` call per iteration and one stacked ``forward`` and loss per
backtracking try, each on all problems still live; a finished problem leaves
in one place.  The gradient and the Hessian both start from the
probabilities the accepted try computed, so an iterate goes through
``forward`` once, for its loss.  One problem is the S = 1 case.

The kernels are called thousands of times on batches of a few dozen rows, so
they reuse their own temporaries (``out=``, in-place updates) wherever that
leaves every floating-point operation as it was; the results are bit for bit
those of the plain expressions.  The fixed costs of a step are paid once per
run: a model caches the views of theta that ``logits`` multiplies by (a
``cached_property``: theta is set once per model and stepped in place), the
engine's callers write each gradient into one buffer per run, and a gradient
on one-hot labels skips the scaling by their row sums, all exactly 1.0.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SolverError, UnsupportedModelError
from .numcore import rng_stream, row_dot, row_sum, softmax_rows, solve_damped

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
        expected = n_params(self.kind, self.d, self.K, self.hidden)
        if not 0 <= self.l2 < np.inf:  # false for nan too
            raise DomainError(f"l2 is {self.l2}: negative or not finite")
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
        """This model with the float64 ``theta``, unchecked; ``_logit_views``
        of this theta stay behind."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, theta=theta)
        new.__dict__.pop("_logit_views", None)
        return new

    def __getstate__(self):
        # a copy or another process builds the views of its own theta
        return {k: v for k, v in self.__dict__.items() if k != "_logit_views"}

    @functools.cached_property
    def _logit_views(self) -> tuple:
        """The views of theta that ``logits`` multiplies by: (W^T, b[..., None, :])
        for a logistic model, (W1^T, b1[..., None, :], W2, W2^T, b2[..., None, :])
        for an mlp; built once per model, so once per run stepping it in place."""
        if self.kind == "logistic":
            W, b = _unpack_logistic(self)
            return W.swapaxes(-1, -2), b[..., None, :]
        W1, b1, W2, b2 = _unpack_mlp(self)
        return W1.swapaxes(-1, -2), b1[..., None, :], W2, W2.swapaxes(-1, -2), b2[..., None, :]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or not 0 <= self.lr < np.inf:  # nan too
            raise DomainError("invalid training configuration")


def n_params(kind: str, d: int, K: int, hidden: int = 0) -> int:
    """The parameter count of a model of this description; a DomainError
    when no model has it."""
    if kind not in ("logistic", "mlp"):
        raise DomainError(f"unknown model kind {kind!r}")
    if K < 2:
        raise DomainError("need at least 2 classes")
    if d < 1:
        raise DomainError(f"need at least 1 feature, got d = {d}")
    if kind == "logistic":
        return K * d + K
    if hidden < 1:
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


# Views of the blocks of theta, or of ``t``, an array of theta's layout such
# as a gradient, with its leading axes in front of each block's shape; the
# weight matrices are views too, so a kernel may write into them.
def _unpack_logistic(model: Model, t: np.ndarray | None = None):
    t = model.theta if t is None else t
    K, d = model.K, model.d
    W = t[..., : K * d].reshape(t.shape[:-1] + (K, d))
    b = t[..., K * d:]
    return W, b


def _unpack_mlp(model: Model, t: np.ndarray | None = None):
    d, K, h = model.d, model.K, model.hidden
    t = model.theta if t is None else t
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
        W_T, b = model._logit_views
        Z = X @ W_T
    else:
        W1_T, b1, _, W2_T, b = model._logit_views
        Z = np.tanh(X @ W1_T + b1) @ W2_T
    Z += b
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
    return _checked_sums(model, X, soft)[0]


def _checked_sums(model: Model, X: np.ndarray, soft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked soft labels and their row sums."""
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape[-2:] != (X.shape[-2], model.K):
        raise DimensionError(f"soft labels have shape {soft.shape}, expected ({X.shape[-2]}, {model.K})")
    sums = row_sum(soft)
    off = np.abs(sums - 1.0)
    # every row summing to 1 is the common case: one max decides it (a NaN sum
    # fails it and goes on to the full test)
    if not off.size or off.max() <= _SUM_TOL:
        return soft, sums
    # all-zero rows are allowed (no label weight); otherwise rows must sum to 1.
    # Same test as np.isclose(sums, 1.0, atol=1e-9) | np.isclose(sums, 0.0, atol=1e-12),
    # written out because np.isclose costs more than a batch-32 gradient itself
    if not ((off <= _SUM_TOL) | (np.abs(sums) <= 1e-12)).all():
        raise DomainError("soft label rows must sum to 1 (or be all zero)")
    return soft, sums


def ce_loss(model: Model, X: np.ndarray, soft: np.ndarray) -> float | np.ndarray:
    """Mean of sum_j soft[j] * (-log p_j) over rows, plus l2/2 * ||theta||^2;
    a float, or an array over the leading axes of a stacked call.  The
    input checks and ``forward``, over the loss body ``_ce_loss``."""
    X = np.asarray(X, dtype=np.float64)
    soft = _check_soft(model, X, soft)
    return _ce_loss(model, forward(model, X), soft)


def _ce_loss(model: Model, p: np.ndarray, soft: np.ndarray) -> float | np.ndarray:
    """ce_loss from the probabilities ``p = forward(model, X)``, without the
    input checks; overwrites ``p``."""
    if log.isEnabledFor(logging.DEBUG) and np.any((p <= 0) & (soft != 0)):
        log.debug("clamping zero probabilities in ce_loss")
    logp = np.maximum(p, _P_FLOOR, out=p)
    np.log(logp, out=logp)
    logp *= soft
    # the row mean as np.mean computes it (sum, then divide by the count),
    # without its per-call Python overhead
    n = p.shape[-2]
    data = -(row_sum(logp).sum(axis=-1) / n) if n else np.zeros(p.shape[:-2])
    loss = data + 0.5 * model.l2 * row_dot(model.theta)
    return float(loss) if loss.ndim == 0 else loss


def grad(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """Analytic gradient of ce_loss w.r.t. theta."""
    X = np.asarray(X, dtype=np.float64)
    return _grad(model, X, *_checked_sums(model, X, soft))


def _grad(model: Model, X: np.ndarray, soft: np.ndarray, sums=None,
          out: np.ndarray | None = None, p: np.ndarray | None = None) -> np.ndarray:
    """grad without the input checks, for callers that made them once.

    ``sums`` are the soft labels' row sums, computed when None; one-hot
    labels pass the float 1.0, every row's exact sum, and skip the scaling,
    since p * 1.0 is p.  ``out``, when given, is the buffer a nonempty
    batch's gradient is written into, of the result's shape.  ``p``, when
    given, is ``forward(model, X)`` already computed; it is overwritten."""
    n = X.shape[-2]
    if n == 0:
        lead = np.broadcast_shapes(model.theta.shape[:-1], X.shape[:-2], soft.shape[:-2])
        return np.broadcast_to(model.l2 * model.theta, lead + model.theta.shape[-1:]).copy()
    dlogits = forward(model, X) if p is None else p
    if sums is None:
        sums = row_sum(soft)
    if not isinstance(sums, float):
        dlogits *= sums[..., None]
    dlogits -= soft
    dlogits /= n
    # each block of the gradient is written straight into its view of g
    g = np.empty(dlogits.shape[:-2] + model.theta.shape[-1:]) if out is None else out
    dlogits_T = dlogits.swapaxes(-1, -2)
    if model.kind == "logistic":
        gW, gb = _unpack_logistic(model, g)
        np.matmul(dlogits_T, X, out=gW)
        dlogits.sum(axis=-2, out=gb)
    else:
        W1_T, b1, W2, _, _ = model._logit_views
        gW1, gb1, gW2, gb2 = _unpack_mlp(model, g)
        A = np.tanh(X @ W1_T + b1)
        dZ = dlogits @ W2
        dZ *= 1.0 - A * A
        np.matmul(dZ.swapaxes(-1, -2), X, out=gW1)
        dZ.sum(axis=-2, out=gb1)
        np.matmul(dlogits_T, A, out=gW2)
        dlogits.sum(axis=-2, out=gb2)
    g += model.l2 * model.theta
    return g


def hessian(model: Model, X: np.ndarray, soft: np.ndarray,
            p: np.ndarray | None = None) -> np.ndarray:
    """Exact Hessian of ce_loss for the logistic model.  ``p``, when given,
    is ``forward(model, X)`` already computed; it is read, not written, and
    no forward runs.

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
    d = 20); in chunks they take 3.4 MB whatever n is.  The rows ``x~`` are
    augmented chunk by chunk too, and every chunk reuses the same buffers.

    Stacked, theta of shape (S, P), X of shape (S, n, d) and soft labels of
    shape (S, n, K) give a C-ordered (S, P, P) array, each slice the bits of
    its 2-D call.  The chunks count rows over the whole stack: with fewer
    than ``HESSIAN_CHUNK_ROWS`` rows per instance a chunk holds as many whole
    instances as fit, and with more it holds the next ``HESSIAN_CHUNK_ROWS``
    rows of one instance.  So each slice takes its own row chunks in the
    order of its 2-D call, and B, its scaled copy and the augmented rows stay
    within the same bound at any S.  An X or soft labels without the stack's
    leading axes are shared by every instance, not broadcast into copies.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("exact Hessian is only available for the logistic model")
    X = np.asarray(X, dtype=np.float64)
    soft, S = _checked_sums(model, X, soft)
    n, d, K = X.shape[-2], model.d, model.K
    P = n_params("logistic", d, K)
    if n == 0:
        lead = np.broadcast_shapes(model.theta.shape[:-1], X.shape[:-2], soft.shape[:-2])
        return np.broadcast_to(model.l2 * np.eye(P), lead + (P, P)).copy()
    if p is None:
        p = forward(model, X)
    lead = p.shape[:-2]
    m = d + 1
    # the stack's instances along one axis; rows without the stack's leading
    # axes become a zero-stride view, shared by every instance, not a copy
    p = p.reshape((-1, n, K))
    X = np.broadcast_to(X, lead + (n, d)).reshape((-1, n, d))
    S = np.broadcast_to(S, lead + (n,)).reshape((-1, n))
    gram = np.zeros((len(p), K * m, K * m))
    blocks = np.zeros((len(p), K * m, m))
    step = min(n, HESSIAN_CHUNK_ROWS)  # rows of one instance per chunk
    per = max(1, HESSIAN_CHUNK_ROWS // n)  # instances per chunk
    # every chunk writes its augmented rows, B and S * B into the same three
    # buffers: arrays made afresh per chunk go back to the OS when freed and
    # fault in again on the next, about a fifth of the time of the n = 10,000,
    # K = 10, d = 20 Hessian
    cap = min(per, len(p)) * step
    bufs = [np.empty(cap * width) for width in (m, K * m, K * m)]
    for first in range(0, len(p), per):
        inst = slice(first, first + per)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            Xc = X[inst, rows]
            c = Xc.shape[:-1]  # (instances, rows) of this chunk
            size = c[0] * c[1]
            Xt = bufs[0][:size * m].reshape(c + (m,))
            Xt[..., :d] = Xc
            Xt[..., d] = 1.0
            B = bufs[1][:size * K * m].reshape(c + (K * m,))
            np.multiply(p[inst, rows, :, None], Xt[..., None, :], out=B.reshape(c + (K, m)))
            SB = np.multiply(S[inst, rows, None], B, out=bufs[2][:size * K * m].reshape(B.shape))
            SB_T = SB.swapaxes(-1, -2)
            gram[inst] += SB_T @ B
            blocks[inst] += SB_T @ Xt
    (rows, cols), (perm_rows, perm_cols) = _hessian_index(K, d)
    H_aug = np.negative(gram, out=gram)
    H_aug[..., rows, cols] += blocks
    H_aug /= n
    del p, blocks  # before the reorder's copy (a caller's p stays the caller's)
    # advanced indexing lays a stack out with the stack axis innermost; copied
    # back into H_aug, in C order, each slice is laid out as its 2-D call's
    # result, so a BLAS product on a slice (``H[s] @ v``) rounds as it does on
    # that result, and the reorder holds one stacked copy, not two
    np.copyto(H_aug, H_aug[..., perm_rows, perm_cols])
    H = H_aug.reshape(lead + (P, P))
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


def minibatch_sgd(model: Model, n: int, cfg, rngs, epoch_grad, loss_rows,
                  name: str) -> tuple[Model, list[list[float]]]:
    """Step the (S, P) parameter stack ``model.theta`` in lockstep, run s
    drawing its shuffles from ``rngs[s]``.

    Per epoch, draw ``orders[s] = rngs[s].permutation(n)`` and call
    ``epoch_grad(orders)`` once; it prepares that epoch's batches, stacked per
    run, and returns ``batch_grad(model_at_theta, lo, hi)``, the (S, P)
    gradients on the rows ``orders[:, lo:hi]``.  Then step
    ``theta -= cfg.lr * batch_grad(...)`` over the ``cfg.batch_size`` slices
    of the orders and record the S losses ``ce_loss`` gives on ``loss_rows``,
    an ``(X, soft labels)`` pair.  ``batch_grad`` gets the call's one model,
    whose theta is stepped in place, so it may not keep it past the call,
    and the step scales the gradient it returns in place (the product
    ``g * lr`` has the bits of ``lr * g``), so that may be one buffer reused
    by every step.  An ascent (``_sgd``'s) returns the negated gradient.
    Returns the stepped model and one loss history per run.

    Divergence is decided once per epoch: a DomainError from the epoch's
    steps or its loss (``softmax_rows`` refusing logits that overflowed), or
    a loss that is not finite, raises one DomainError naming ``name`` and the
    epoch.  Its reason is "parameters are no longer finite" whenever theta
    is not.  That names the epoch a check after every step would: an entry
    that is not finite stays so for the rest of the epoch (inf - x is inf,
    nan stays nan), and the epoch's loss is then not finite either, since
    its l2 term ``0.5 * l2 * theta . theta`` is inf for l2 > 0 and
    0 * inf = nan for l2 = 0.  Since that rule names every overflow, the run
    keeps numpy's overflow and invalid-value warnings to itself."""
    theta = model.theta.copy()
    model = model.with_theta(theta)  # this call's own model, stepped in place
    X, labels = loss_rows
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            batch_grad = epoch_grad(np.stack([rng.permutation(n) for rng in rngs]))
            try:
                for lo in range(0, n, cfg.batch_size):
                    g = batch_grad(model, lo, lo + cfg.batch_size)
                    g *= cfg.lr
                    theta -= g
                del batch_grad  # the epoch's batches go before the next epoch's are built
                loss = ce_loss(model, X, labels)
                if not np.isfinite(loss).all():
                    raise DomainError(f"loss is {float(loss[~np.isfinite(loss)][0])}")
            except DomainError as exc:
                reason = exc if np.isfinite(theta).all() else "parameters are no longer finite"
                raise DomainError(f"{name} diverged in epoch {epoch}: {reason}") from exc
            losses.append(loss)
    return model, np.reshape(losses, (cfg.epochs, len(theta))).T.tolist()


def sgd_train(model: Model, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
              rng=None) -> tuple[Model, list]:
    """Deterministic mini-batch SGD on one-hot labels; returns the trained
    model and its per-epoch losses.

    In lockstep form ``model.theta`` is an (S, P) stack, ``y`` has shape (n,)
    or (S, n) and ``rng`` is a list of S generators: run s trains
    ``theta[s]`` on its labels with ``rng[s]``, and the result is the
    stacked model and S histories, each the bits of that run alone."""
    single = model.theta.ndim == 1
    if single:
        model = model.with_stack(model.theta[None])
        rng = [rng if rng is not None else rng_stream(cfg.seed, 0)]
    trained, history = _sgd(model, X, y, cfg, rng, "sgd_train")
    return (trained.with_stack(trained.theta[0]), history[0]) if single else (trained, history)


def _sgd(model: Model, X: np.ndarray, y: np.ndarray, cfg: TrainConfig, rngs,
         name: str, ascent: bool = False) -> tuple[Model, list[list[float]]]:
    """``sgd_train`` of the (S, P) stack ``model.theta`` with one generator
    per run, naming the run ``name`` when it diverges; with ``ascent`` each
    step climbs the loss, its gradient negated in place."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise DomainError("cannot train on an empty dataset")
    labels = _check_soft(model, X, onehot(y, model.K))
    g = np.empty(model.theta.shape)

    def epoch_grad(orders):
        Xo = X[orders]
        So = labels[orders] if labels.ndim == 2 else np.take_along_axis(labels, orders[..., None], 1)
        if ascent:
            return lambda m, lo, hi: np.negative(_grad(m, Xo[:, lo:hi], So[:, lo:hi], 1.0, g), out=g)
        return lambda m, lo, hi: _grad(m, Xo[:, lo:hi], So[:, lo:hi], 1.0, g)
    return minibatch_sgd(model, X.shape[0], cfg, rngs, epoch_grad, (X, labels), name)


def newton_optimize(model: Model, X: np.ndarray, soft: np.ndarray) -> Model:
    """Full-batch damped Newton to gradient norm <= NEWTON_TOL (logistic only).

    With l2 > 0 the objective is strongly convex, so this converges to the
    unique optimum; used wherever exact stationarity is required.  Steps solve
    (H + NEWTON_DAMPING I) step = g and backtrack; raises SolverError when no
    step size lowers the loss or NEWTON_MAX_ITER steps end above NEWTON_TOL.

    Backtracking gives up at a step size of 1e-8.  A problem whose Newton
    decrement there is 0 <= g.step <= c eps |f|, with c = 4, f its loss and
    eps float64's machine epsilon, has converged as far as its loss can show
    and freezes, logging one DEBUG record: a full step would lower f by about
    g.step / 2, at most 2 eps |f|, a few units in the last place of f and
    within the rounding of a mean of rounded row losses, so ``f_cand <= f``
    cannot resolve it.  The two such stalls measured, just above NEWTON_TOL,
    read g.step at 0.34 and 0.63 eps |f|; c = 4 leaves a margin over both.
    Any other problem raises there.

    In lockstep form ``model.theta`` is an (S, P) stack, X has shape
    (S, n, d) and soft (S, n, K): S independent problems, stepped by one
    stacked kernel call each per iteration.  Each problem stops once its own
    gradient norm is <= NEWTON_TOL (a NaN norm is not) or once it freezes,
    and then leaves the stack at the top of the next iteration, its one exit.
    It backtracks on its own, so it ends on the bits of its solo run;
    NEWTON_MAX_ITER bounds each problem's steps.  The errors of a stack of
    two or more name the first failing problem.  A 2-D call is the S = 1 case.

    Only the first loss is a checked ``ce_loss`` call, on the caller's
    inputs.  Each backtracking try runs ``forward`` and ``_ce_loss`` on the
    whole live stack; a problem accepted on an earlier try rides along between
    its start and its accepted candidate, where its logits stay finite, unread.
    The accepted probabilities are kept for the next gradient, which gets a
    copy (``_grad``'s ``p``, overwritten), and the next Hessian (``hessian``'s
    ``p``, read), as are the first iterate's: an iterate goes through
    ``forward`` once, and a run makes 1 + 1 + tries forwards (the checked
    loss, the first iterate, each try).  On ``verify-theory``'s instances
    the first try, t = 1, is the only one: 17 iterations and 17 tries at 100
    instances and theory seed 0.  X is taken in C order, so any layout of X
    gives the bits of its C-ordered copy.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("newton_optimize requires the logistic model")
    # C order: a stacked forward on X and one on its compacted rows X[keep]
    # then give each problem the same bits, whatever the caller's layout
    X = np.asarray(X, dtype=np.float64, order="C")
    soft = np.asarray(soft, dtype=np.float64)
    theta = model.theta.reshape(-1, model.theta.shape[-1]).copy()
    S = len(theta)
    if X.shape[:-2] != model.theta.shape[:-1] or soft.shape[:-2] != model.theta.shape[:-1]:
        raise DimensionError(f"X {X.shape} and soft labels {soft.shape} do not hold one "
                             f"problem for each of the {S} parameter rows")
    # the first loss checks the caller's own inputs, so the gradients skip the
    # checks; then the inputs become an (S, ...) stack
    f = np.ravel(ce_loss(model, X, soft))
    X, soft = X.reshape((S,) + X.shape[-2:]), soft.reshape((S,) + soft.shape[-2:])
    sums = row_sum(soft)
    # the problems still stepping; X, soft, sums and p keep only their rows
    live = np.arange(S)
    frozen = np.zeros(S, dtype=bool)  # stalled at the loss's resolution
    # forward at theta[live], for the gradient and the Hessian: computed for
    # the first iterate, then kept from each accepted backtracking try
    p = forward(model._with(theta), X)

    def problem(s):  # names problem s in the errors of a stack of two or more
        return f" (problem {s})" if S > 1 else ""
    for it in range(NEWTON_MAX_ITER + 1):
        g = _grad(model._with(theta[live]), X, soft, sums, p=p.copy())
        g_norm = np.sqrt(row_dot(g))  # the bits of np.linalg.norm on each row
        # the one exit; a NaN norm is not converged, and its solve raises
        keep = ~(g_norm <= NEWTON_TOL) & ~frozen[live]
        if not keep.any():
            return model._with(theta.reshape(model.theta.shape))
        if not keep.all():
            live, g, g_norm = live[keep], g[keep], g_norm[keep]
            X, soft, sums, p = X[keep], soft[keep], sums[keep], p[keep]
        if it == NEWTON_MAX_ITER:
            raise SolverError(f"newton_optimize: gradient norm {g_norm[0]:.3e} after {it} "
                              f"iterations{problem(live[0])}")
        start = theta[live]
        step = solve_damped(hessian(model._with(start), X, soft, p), g, NEWTON_DAMPING)
        # backtrack: ``todo`` marks the live problems still looking for a step
        # size t that lowers their loss; p, which the Hessian only read, now
        # keeps each accepted try's forward
        t = 1.0
        todo = np.ones(len(live), dtype=bool)
        while True:
            cand = start - t * step
            m = model._with(cand)
            p_cand = forward(m, X)
            np.copyto(p, p_cand, where=todo[:, None, None])
            f_cand = _ce_loss(m, p_cand, soft)
            ok = todo & (f_cand <= f[live])
            theta[live[ok]], f[live[ok]] = cand[ok], f_cand[ok]
            todo &= ~ok
            if not todo.any():
                break
            t *= 0.5
            if t <= 1e-8:
                # freeze the problems whose decrease is below the loss's
                # resolution (see the docstring); raise on any other
                dec = (g[todo] * step[todo]).sum(axis=-1)
                flat = (dec >= 0) & (dec <= 4 * np.finfo(np.float64).eps * np.abs(f[live[todo]]))
                if not flat.all():
                    first = np.flatnonzero(todo)[~flat][0]
                    raise SolverError(f"newton_optimize: no descent step at gradient norm "
                                      f"{g_norm[first]:.3e}{problem(live[first])}")
                for i, dec_i in zip(np.flatnonzero(todo), dec):
                    log.debug("newton_optimize: no descent step at gradient norm %.3e, where "
                              "g.step %.3e is below the loss's resolution: frozen%s",
                              g_norm[i], dec_i, problem(live[i]))
                frozen[live[todo]] = True
                break
        del p_cand
