"""Influence-function machinery and numerical verifiers for the
gradient-ascent and label-smoothing unlearning theory.

All quantities are computed on the convex logistic model with exact
Hessians.  Per-example losses include the l2 term, so the sum objective over
a dataset D is sum_D ce(z) + |D| * l2/2 * ||theta||^2 and its stationary
point coincides with the mean training objective's.

Directions (damped solves throughout; ``delta_f`` is also IU's update):

* delta_r = (sum_{D_tr} H(theta_r))^{-1} sum_{D_tr} g(theta_r)
* delta_f = (sum_{D_r} H(theta_tr))^{-1} sum_{D_f} g(theta_tr)
* delta_n = 1/(K-1) (sum_{D_r} H(theta_tr))^{-1} sum_{D_f} sum_{y' != y} g_{y'}(theta_tr)

The smoothed-unlearning distance as a function of the smooth rate a is
||delta_r - delta_f + ((1-K)/K) * a * (delta_n - delta_f)||, a quadratic
in a minimized in closed form for cross-checking the grid search.

The theorem checks work on a stack the way ``models.newton_optimize`` does:
models carrying (S, P) parameter stacks and, for each dataset argument, a
sequence of S equal-shaped datasets give S reports, each with the bits of
its own 2-D call, from one stacked kernel call per term.  A 2-D call is the
S = 1 case.  Each check builds the two sum Hessians it needs once:
H_tr(theta_r) serves delta_r and the Theorem-1 residual, H_r(theta_tr)
serves delta_f and delta_n.  H_tr(theta_r) and the sum gradient delta_r
solves for share one forward (``models.hessian``'s ``p``), so a theorem-2
check runs 7 forwards over its 6 distinct (theta, rows) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import LabeledDataset
from .errors import DimensionError, DomainError, UnsupportedModelError
from .models import Model, onehot
from .numcore import DEFAULT_DAMPING, row_dot, solve_damped

STATIONARITY_WARN = 1e-3


def _rows(sets) -> tuple[np.ndarray, np.ndarray]:
    """X and y of one dataset, or of a sequence of S equal-shaped datasets
    stacked to (S, n, d) and (S, n)."""
    if isinstance(sets, LabeledDataset):
        return sets.X, sets.y
    shapes = {s.X.shape for s in sets}
    if len(shapes) != 1:
        raise DimensionError(f"a stacked call needs datasets of one shape, got {sorted(shapes)}")
    return np.stack([s.X for s in sets]), np.stack([s.y for s in sets])


def _sum_hessian(model: Model, X, y) -> np.ndarray:
    return X.shape[-2] * models.hessian(model, X, onehot(y, model.K))


def _sum_grad(model: Model, X, y) -> np.ndarray:
    return X.shape[-2] * models.grad(model, X, onehot(y, model.K))


def _sum_hessian_and_grad(model: Model, X, y) -> tuple[np.ndarray, np.ndarray]:
    """``_sum_hessian`` and ``_sum_grad`` from one forward, which the Hessian
    reads and the gradient then overwrites."""
    X, soft = np.asarray(X, dtype=np.float64), onehot(y, model.K)
    p = models.forward(model, X)
    H = X.shape[-2] * models.hessian(model, X, soft, p)
    return H, X.shape[-2] * models._grad(model, X, soft, p=p)


@dataclass
class TheoryReport:
    delta_r: np.ndarray | None = None
    delta_f: np.ndarray | None = None
    delta_n: np.ndarray | None = None
    dist_ga: float = 0.0
    dist_noop: float = 0.0
    inner: float = 0.0
    theorem1_residual: float = 0.0
    ga_cannot_help: bool = False
    condition_met: bool = False
    best_alpha: float | None = None
    dist_gls_at_best_alpha: float | None = None
    closed_form_alpha: float | None = None
    grad_norm_tr: float = 0.0
    grad_norm_r: float = 0.0
    warnings: list[str] = field(default_factory=list)


def influence_of(z: tuple[np.ndarray, int], model: Model, ds: LabeledDataset,
                 damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """-(H + damping I)^{-1} grad l(theta, z) with H the Hessian of the
    dataset objective at a near-stationary theta."""
    if model.kind != "logistic":  # before the stationarity check, which an MLP would reach
        raise UnsupportedModelError("theory checks require the logistic model")
    x, y = z
    g_full = models.grad(model, ds.X, onehot(ds.y, model.K))
    if np.linalg.norm(g_full) > 1e-4:
        raise DomainError("model is not stationary on the dataset (grad norm > 1e-4)")
    H = models.hessian(model, ds.X, onehot(ds.y, model.K))
    g = models.grad(model, np.atleast_2d(x), onehot(np.array([y]), model.K))
    return -solve_damped(H, g, damping)


def delta_f(theta_tr_model: Model, retain: LabeledDataset, forget: LabeledDataset,
            damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Backtracked unlearning direction evaluated at the trained optimum.

    H_r is the sum Hessian over the retain rows.  Per-example losses carry
    the l2 term, so sum Hessians add over rows and H_r = H_tr - H_f exactly.
    theta + delta_f is the influence-unlearning step (forget weight -1)."""
    H = _sum_hessian(theta_tr_model, retain.X, retain.y)
    g = _sum_grad(theta_tr_model, forget.X, forget.y)
    return solve_damped(H, g, damping)


def nontarget_grad_sum(model: Model, forget: LabeledDataset) -> np.ndarray:
    """sum over forget rows of sum_{y' != y} grad ce(x, y'), l2 included per term.

    grad is linear in the soft label: one call on rows (1 - onehot(y))/(K-1).
    An (S, P) model and a sequence of S equal-shaped forget sets give the S
    sums in one call."""
    X, y = _rows(forget)
    nontarget = (1.0 - onehot(y, model.K)) / (model.K - 1)
    return X.shape[-2] * (model.K - 1) * models.grad(model, X, nontarget)


def gls_distance(dr: np.ndarray, df: np.ndarray, dn: np.ndarray, K: int, alpha) -> np.ndarray:
    """||delta_r - delta_f + ((1-K)/K) * alpha * (delta_n - delta_f)||, one
    distance per smooth rate of a float or an array ``alpha``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.linalg.norm(dr - df + (1.0 - K) / K * alpha[..., None] * (dn - df), axis=-1)


def closed_form_best_alpha(dr: np.ndarray, df: np.ndarray, dn: np.ndarray, K: int) -> float | None:
    """Unconstrained minimizer of the quadratic alpha -> gls_distance^2."""
    u = dr - df
    v = dn - df
    c = (1.0 - K) / K
    denom = c * c * float(v @ v)
    if denom == 0.0:
        return None
    return -c * float(u @ v) / denom


def check_theorem1(theta_tr_model: Model, theta_r_model: Model,
                   tr: LabeledDataset, retain: LabeledDataset, forget: LabeledDataset,
                   damping: float = DEFAULT_DAMPING) -> TheoryReport | list[TheoryReport]:
    """Exact-unlearning condition residual plus the GA-distance comparison.

    Reports dist_ga = ||delta_r - delta_f||, dist_noop = ||delta_r|| and
    flags the regime where gradient ascent moves the model further from the
    retrained optimum than doing nothing.  Stacked models and sequences of
    datasets give a list of reports (see the module docstring).
    """
    return _check(theta_tr_model, theta_r_model, tr, retain, forget, None, damping)


def check_theorem2(theta_tr_model: Model, theta_r_model: Model,
                   tr: LabeledDataset, retain: LabeledDataset, forget: LabeledDataset,
                   alpha_grid: np.ndarray,
                   damping: float = DEFAULT_DAMPING) -> TheoryReport | list[TheoryReport]:
    """Smoothing-helps condition and the best negative smooth rate on a grid.

    When <delta_r - delta_f, delta_n - delta_f> <= 0 the distance as a
    function of the smooth rate decreases for some alpha < 0; the grid
    argmin is recorded together with the closed-form quadratic minimizer.
    The report carries the ``check_theorem1`` fields too.  The grid is
    checked before any kernel runs.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=np.float64)
    if alpha_grid.size == 0:
        raise DomainError("empty alpha grid")
    if not np.all(alpha_grid < 0):  # a NaN fails too
        raise DomainError("alpha grid must be all negative")
    return _check(theta_tr_model, theta_r_model, tr, retain, forget, alpha_grid, damping)


def _check(theta_tr_model: Model, theta_r_model: Model, tr, retain, forget,
           alpha_grid: np.ndarray | None, damping: float):
    """The theorem-1 report of each stacked instance, with the theorem-2
    fields when ``alpha_grid`` is given; one report for a 2-D call."""
    (X_tr, y_tr), (X_r, y_r), (X_f, y_f) = _rows(tr), _rows(retain), _rows(forget)
    shape = theta_tr_model.theta.shape
    if theta_r_model.theta.shape != shape or any(X.shape[:-2] != shape[:-1]
                                                 for X in (X_tr, X_r, X_f)):
        raise DimensionError(f"theta_r {theta_r_model.theta.shape} and the data "
                             f"({X_tr.shape}, {X_r.shape}, {X_f.shape}) do not hold one "
                             f"instance for each row of theta_tr {shape}")
    # a 2-D call is a one-row stack, over which the kernels broadcast its 2-D data
    theta_tr_model = theta_tr_model.with_stack(np.atleast_2d(theta_tr_model.theta))
    theta_r_model = theta_r_model.with_stack(np.atleast_2d(theta_r_model.theta))
    S = len(theta_tr_model.theta)
    K = theta_tr_model.K
    # every norm is the root of a row dot, the bits of np.linalg.norm on each row
    grad_norm_tr = np.sqrt(row_dot(models.grad(theta_tr_model, X_tr, onehot(y_tr, K))))
    grad_norm_r = np.sqrt(row_dot(models.grad(theta_r_model, X_r, onehot(y_r, K))))
    H_tr_at_r, g_tr_at_r = _sum_hessian_and_grad(theta_r_model, X_tr, y_tr)
    H_r_at_tr = _sum_hessian(theta_tr_model, X_r, y_r)
    dr = solve_damped(H_tr_at_r, g_tr_at_r, damping)
    df = solve_damped(H_r_at_tr, _sum_grad(theta_tr_model, X_f, y_f), damping)
    dist_ga = np.sqrt(row_dot(dr - df))
    dist_noop = np.sqrt(row_dot(dr))
    # residual of: sum_{D_f} g(theta_r) + H_tr(theta_r) H_r(theta_tr)^{-1} sum_{D_f} g(theta_tr);
    # each slice of the C-ordered stack takes the BLAS matrix-vector product
    # of its 2-D call
    residual = _sum_grad(theta_r_model, X_f, y_f)
    residual += (H_tr_at_r @ df[..., None])[..., 0]
    theorem1_residual = np.sqrt(row_dot(residual))
    if alpha_grid is not None:
        dn = solve_damped(H_r_at_tr, nontarget_grad_sum(theta_tr_model, forget), damping) / (K - 1)
    reports = []
    for s in range(S):
        rep = TheoryReport(delta_r=dr[s], delta_f=df[s], dist_ga=float(dist_ga[s]),
                           dist_noop=float(dist_noop[s]),
                           theorem1_residual=float(theorem1_residual[s]),
                           grad_norm_tr=float(grad_norm_tr[s]), grad_norm_r=float(grad_norm_r[s]))
        if rep.grad_norm_tr > STATIONARITY_WARN:
            rep.warnings.append(f"theta_tr not stationary (grad norm {rep.grad_norm_tr:.2e})")
        if rep.grad_norm_r > STATIONARITY_WARN:
            rep.warnings.append(f"theta_r not stationary (grad norm {rep.grad_norm_r:.2e})")
        rep.ga_cannot_help = rep.dist_ga > rep.dist_noop
        if alpha_grid is not None:
            rep.delta_n, rep.inner = dn[s], float((dr[s] - df[s]) @ (dn[s] - df[s]))
            rep.condition_met = rep.inner <= 0.0
            rep.closed_form_alpha = closed_form_best_alpha(dr[s], df[s], dn[s], K)
            # one instance at a time, so that the sweep's G x P floats do not grow with S
            dists = gls_distance(dr[s], df[s], dn[s], K, alpha_grid)
            if rep.condition_met:
                i = int(np.argmin(dists))
                rep.best_alpha = float(alpha_grid[i])
                rep.dist_gls_at_best_alpha = float(dists[i])
        reports.append(rep)
    return reports if len(shape) > 1 else reports[0]
