"""Naive reference implementations the tests check the shipped code against.

Each one takes a slow, independent route to a quantity the package computes
in closed form or analytically: central finite differences for gradients,
the dense per-row einsum for the logistic Hessian, projected gradient descent
for the label-LDP prediction distribution, and the per-label and unmixed
forms of the smoothed and gradient-mixed losses.

The ``*_ref`` functions are the logistic kernels as they were written before
their per-call cost was cut (fresh temporaries, ``concatenate``, ``hstack``,
a per-class block loop, the full soft-label mask on every call): the shipped
kernels must equal them bit for bit.  ``theory_report_ref`` is one
instance's theorem check as it was written before the checks were stacked,
which each stacked report must equal bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from unlearn_forge import influence, models
from unlearn_forge.errors import DimensionError, DomainError
from unlearn_forge.models import Model, n_params, onehot
from unlearn_forge.numcore import solve_damped
from unlearn_forge.privacy import LdpParams


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient (f(x+h*e_i) - f(x-h*e_i)) / (2h)."""
    if h <= 0:
        raise DomainError("step h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = f(xp)
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DomainError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def hessian_einsum(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """models.hessian summed row by row: one three-operand einsum over
    ``S_n (diag(p_n) - p_n p_n^T)`` and both augmented feature rows."""
    X = np.asarray(X, dtype=np.float64)
    soft = np.asarray(soft, dtype=np.float64)
    n, d, K = X.shape[0], model.d, model.K
    P = n_params("logistic", d, K)
    if n == 0:
        return model.l2 * np.eye(P)
    p = models.forward(model, X)
    S = soft.sum(axis=1)
    A = S[:, None, None] * (p[:, :, None] * np.eye(K)[None, :, :] - p[:, :, None] * p[:, None, :])
    Xt = np.hstack([X, np.ones((n, 1))])
    H_aug = np.einsum("nkl,ni,nj->kilj", A, Xt, Xt) / n
    H_aug = H_aug.reshape(K * (d + 1), K * (d + 1))
    # reorder from per-class [w_k, b_k] blocks to the flat [W.ravel(), b] layout
    starts = np.arange(K)[:, None] * (d + 1)
    perm = np.concatenate([(starts + np.arange(d)).ravel(), starts.ravel() + d])
    H = H_aug[np.ix_(perm, perm)]
    H = 0.5 * (H + H.T)
    return H + model.l2 * np.eye(P)


def simplex_oracle(params: LdpParams, iters: int = 10_000, step: float = 1e-2) -> np.ndarray:
    """Projected gradient descent on the weighted risk over the simplex.

    Independent numerical check of the closed-form distribution; the
    objective is strictly convex on the interior for valid params.
    """
    K, a, g2 = params.K, params.alpha, params.gamma2
    A = params.A
    w = np.full(K, -a * g2 / K)
    w[0] = A  # target label at index 0

    p = np.full(K, 1.0 / K)
    for _ in range(iters):
        g = -w / p
        p = _project_simplex(p - step * g)
        p = np.maximum(p, 1e-12)
        p /= p.sum()
    return p


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.max(np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0])
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def gls_label(y: int, K: int, alpha: float) -> np.ndarray:
    """Smoothed label row: alpha/K everywhere, 1 + (1-K)*alpha/K at y."""
    if not (0 <= y < K):
        raise DomainError("label outside [0, K)")
    if alpha > 1:
        raise DomainError("smooth rate must be <= 1")
    row = np.full(K, alpha / K)
    row[y] = 1.0 + (1.0 - K) * alpha / K
    return row


def gls_loss(model: Model, x: np.ndarray, y: int, alpha: float) -> float:
    """Weighted-per-label form of the smoothed loss for one example.

    Equals ce_loss against gls_label(y, K, alpha); the target term carries
    weight 1 + (1-K)*alpha/K and each other label alpha/K.  Kept as a
    separate code path so the decomposition identity is checkable.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != 1:
        raise DimensionError("gls_loss takes a single example")
    K = model.K
    l2_term = 0.5 * model.l2 * float(np.dot(model.theta, model.theta))
    p = models.forward(model, x)[0]
    logp = np.log(np.maximum(p, 1e-300))
    target = -logp[y]
    others = sum(-logp[yp] for yp in range(K) if yp != y)
    return float((1.0 + (1.0 - K) / K * alpha) * target + (alpha / K) * others + l2_term)


def mixed_loss(model: Model, Xr: np.ndarray, yr: np.ndarray,
               Xf: np.ndarray, soft_f: np.ndarray, p: float) -> float:
    """p * mean retain loss - (1-p) * mean smoothed forget loss.

    The minus sign realizes gradient ascent on the forget term.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must be in [0, 1]")
    lr_ = models.ce_loss(model, Xr, onehot(yr, model.K))
    lf_ = models.ce_loss(model, Xf, soft_f)
    return p * lr_ - (1.0 - p) * lf_


def softmax_rows_ref(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise DomainError("logits must be finite")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward_ref(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if model.kind == "logistic":
        W, b = models._unpack_logistic(model)
        return softmax_rows_ref(X @ W.T + b)
    W1, b1, W2, b2 = models._unpack_mlp(model)
    return softmax_rows_ref(np.tanh(X @ W1.T + b1) @ W2.T + b2)


def check_soft_ref(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape != (X.shape[0], model.K):
        raise DimensionError(f"soft labels have shape {soft.shape}, expected ({X.shape[0]}, {model.K})")
    sums = soft.sum(axis=1)
    bad = ~((np.abs(sums - 1.0) <= 1e-9 + 1e-5) | (np.abs(sums) <= 1e-12))
    if np.any(bad):
        raise DomainError("soft label rows must sum to 1 (or be all zero)")
    return soft


def ce_loss_ref(model: Model, X: np.ndarray, soft: np.ndarray) -> float:
    X = np.asarray(X, dtype=np.float64)
    soft = check_soft_ref(model, X, soft)
    p = forward_ref(model, X)
    logp = np.log(np.maximum(p, 1e-300))
    data = -np.mean(np.sum(soft * logp, axis=1)) if X.shape[0] else 0.0
    return float(data + 0.5 * model.l2 * np.dot(model.theta, model.theta))


def grad_ref(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    soft = check_soft_ref(model, X, soft)
    n = X.shape[0]
    if n == 0:
        return model.l2 * model.theta.copy()
    p = forward_ref(model, X)
    S = soft.sum(axis=1, keepdims=True)
    dlogits = (p * S - soft) / n
    if model.kind == "logistic":
        gW = dlogits.T @ X
        gb = dlogits.sum(axis=0)
        return np.concatenate([gW.ravel(), gb]) + model.l2 * model.theta
    W1, b1, W2, b2 = models._unpack_mlp(model)
    A = np.tanh(X @ W1.T + b1)
    gW2 = dlogits.T @ A
    gb2 = dlogits.sum(axis=0)
    dA = dlogits @ W2
    dZ = dA * (1.0 - A * A)
    gW1 = dZ.T @ X
    gb1 = dZ.sum(axis=0)
    return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2]) + model.l2 * model.theta


def hessian_ref(model: Model, X: np.ndarray, soft: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    soft = check_soft_ref(model, X, soft)
    n, d, K = X.shape[0], model.d, model.K
    P = n_params("logistic", d, K)
    if n == 0:
        return model.l2 * np.eye(P)
    p = forward_ref(model, X)
    S = soft.sum(axis=1)
    Xt = np.hstack([X, np.ones((n, 1))])
    m = d + 1
    gram = np.zeros((K * m, K * m))
    blocks = np.zeros((K * m, m))
    for lo in range(0, n, models.HESSIAN_CHUNK_ROWS):
        rows = slice(lo, lo + models.HESSIAN_CHUNK_ROWS)
        B = (p[rows, :, None] * Xt[rows, None, :]).reshape(-1, K * m)
        SB = S[rows, None] * B
        gram += SB.T @ B
        blocks += SB.T @ Xt[rows]
    H_aug = -gram
    for k in range(K):
        H_aug[k * m:(k + 1) * m, k * m:(k + 1) * m] += blocks[k * m:(k + 1) * m]
    H_aug /= n
    starts = np.arange(K)[:, None] * m
    perm = np.concatenate([(starts + np.arange(d)).ravel(), starts.ravel() + d])
    H = H_aug[np.ix_(perm, perm)]
    H = 0.5 * (H + H.T)
    return H + model.l2 * np.eye(P)


def theory_report_ref(theta_tr: Model, theta_r: Model, tr, retain, forget, damping: float,
                      alpha_grid: np.ndarray | None = None) -> influence.TheoryReport:
    """One instance's ``check_theorem1`` report, with the ``check_theorem2``
    fields when ``alpha_grid`` is given, from 2-D kernel calls: a fresh sum
    Hessian for each of delta_r, delta_f, delta_n and the residual, and
    ``np.linalg.norm`` for every norm."""
    K = theta_tr.K

    def sum_hessian(m, ds):
        return ds.n * models.hessian(m, ds.X, onehot(ds.y, K))

    def sum_grad(m, ds):
        return ds.n * models.grad(m, ds.X, onehot(ds.y, K))
    rep = influence.TheoryReport()
    rep.grad_norm_tr = float(np.linalg.norm(models.grad(theta_tr, tr.X, onehot(tr.y, K))))
    rep.grad_norm_r = float(np.linalg.norm(models.grad(theta_r, retain.X, onehot(retain.y, K))))
    for name, norm in (("theta_tr", rep.grad_norm_tr), ("theta_r", rep.grad_norm_r)):
        if norm > influence.STATIONARITY_WARN:
            rep.warnings.append(f"{name} not stationary (grad norm {norm:.2e})")
    rep.delta_r = solve_damped(sum_hessian(theta_r, tr), sum_grad(theta_r, tr), damping)
    rep.delta_f = solve_damped(sum_hessian(theta_tr, retain), sum_grad(theta_tr, forget), damping)
    rep.dist_ga = float(np.linalg.norm(rep.delta_r - rep.delta_f))
    rep.dist_noop = float(np.linalg.norm(rep.delta_r))
    rep.ga_cannot_help = rep.dist_ga > rep.dist_noop
    rep.theorem1_residual = float(np.linalg.norm(sum_grad(theta_r, forget)
                                                 + sum_hessian(theta_r, tr) @ rep.delta_f))
    if alpha_grid is None:
        return rep
    nontarget = (1.0 - onehot(forget.y, K)) / (K - 1)
    g_n = forget.n * (K - 1) * models.grad(theta_tr, forget.X, nontarget)
    rep.delta_n = solve_damped(sum_hessian(theta_tr, retain), g_n, damping) / (K - 1)
    u = rep.delta_r - rep.delta_f
    v = rep.delta_n - rep.delta_f
    rep.inner = float(u @ v)
    rep.condition_met = rep.inner <= 0.0
    rep.closed_form_alpha = influence.closed_form_best_alpha(rep.delta_r, rep.delta_f, rep.delta_n, K)
    dists = np.linalg.norm(u + (1.0 - K) / K * alpha_grid[:, None] * v, axis=1)
    if rep.condition_met:
        i = int(np.argmin(dists))
        rep.best_alpha = float(alpha_grid[i])
        rep.dist_gls_at_best_alpha = float(dists[i])
    return rep
